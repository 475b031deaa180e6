"""Exact-arithmetic workbench for associative conformal algebras.

The package builds conformal algebras two ways — differentially, from a
coefficient algebra with a derivation, and by finite product tables — and
checks the conformal axioms coefficient-by-coefficient against a
brute-force oracle.  On top of that sit growth functions, unital
recognition, identity transport, and a probe for delta-stable ideals.
All arithmetic is over Q, exactly.

`import confal` loads no submodule: each exported name is imported from its
submodule on first use (PEP 562), so a program pays only for the layers it
touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule it is imported from
_SUBMODULE = {
    name: module
    for module, names in (
        ("axioms", ("CheckReport", "IdentityReport", "associativity_report",
                    "coefficient_locality_report", "conformal_axioms_report",
                    "identity_report", "left_annihilator_probe")),
        ("diff_conformal", ("ConfElem", "DifferentialAlgebra", "DongReport", "dong_check")),
        ("dsl", ("AlgebraSpec", "build", "build_all", "load_path", "parse",
                 "parse_element", "pretty")),
        ("errors", ("BoundExceeded", "ClosureBoundExceeded", "ConfalError",
                    "MismatchWitness", "NotNilpotent", "NotUnital", "ParseError",
                    "ResourceBound")),
        ("exact_arith", ("DOp", "MatPoly", "Poly", "rat", "ratio")),
        ("growth", ("GrowthReport", "coeff_growth_check", "detect_degree",
                    "enumerate_span", "growth_table", "module_rank")),
        ("instances", ("cur_dual_numbers", "cur_matrix", "cur_matrix_presented",
                       "poly_zero", "weyl_algebra")),
        ("ore_skew", ("Derivation", "FinDim", "LinearAction", "MatPolyRing", "OreRing",
                      "PolyRing", "ScaledDdx", "SkewLaurent", "ZeroDerivation",
                      "ad_derivation", "matrix_findim", "nilpotency_index",
                      "weyl_instance")),
        ("presented_conformal", ("PresElem", "PresentedAlgebra", "ProductTable",
                                 "check_associativity", "coeff_assoc_check",
                                 "is_conformal_identity")),
        ("products", ("ALL_ZERO",)),
        ("structure", ("IdealClosure", "RecognitionResult", "SimplicityReport",
                       "TransportResult", "canonical_rep", "coefficient_fit_degree",
                       "delta_stable_closure", "find_identity", "peel_components",
                       "recognition_roundtrip", "recognize_unital", "simplicity_probe",
                       "transport_identity")),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
