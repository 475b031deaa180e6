"""Structure recovery: identities, peeling, recognition, transport, ideals."""

import pathlib
import random
from fractions import Fraction

import pytest

from confal import (
    ClosureBoundExceeded,
    ConfElem,
    DOp,
    DifferentialAlgebra,
    MatPoly,
    MatPolyRing,
    MismatchWitness,
    NotNilpotent,
    NotUnital,
    Poly,
    PolyRing,
    ScaledDdx,
    ZeroDerivation,
    canonical_rep,
    coefficient_fit_degree,
    cur_dual_numbers,
    cur_matrix,
    cur_matrix_presented,
    delta_stable_closure,
    find_identity,
    matrix_findim,
    peel_components,
    poly_zero,
    recognition_roundtrip,
    recognize_unital,
    simplicity_probe,
    transport_identity,
    weyl_algebra,
)
from confal import structure
from confal.cli import main
from confal.dsl import build_all, load_path
from confal.exact_arith import add_scaled
from confal.linalg import RowSpace
from confal.structure import (
    SimplicityReport,
    class_coords,
    coefficient_subalgebra,
    iterated_derivation_check,
)

WEYL = weyl_algebra()
CUR2 = cur_matrix(2)


# -- identity search ----------------------------------------------------------------------


def test_find_identity_weyl():
    e = find_identity(WEYL)
    assert e == WEYL.generator("e")


def test_find_identity_not_unital():
    base = PolyRing("x")
    no_id = DifferentialAlgebra(
        base, ZeroDerivation(base), {"g": Poly.variable()}, name="xQ[x]"
    )
    with pytest.raises(NotUnital):
        find_identity(no_id)


# -- peeling ------------------------------------------------------------------------------


def test_peel_components_frozen():
    # G = L + d e peels to the layers [(1, -e), (0, L)]
    e, L = WEYL.generator("e"), WEYL.generator("L")
    G = L + e.derive()
    comps = peel_components(WEYL, G, e)
    assert [n for n, _ in comps] == [1, 0]
    assert comps[0][1] == -e
    assert comps[1][1] == L


def test_peel_reconstructs():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    f = WEYL.apply_dop_power(L, 2) + e.derive() * Fraction(1, 3)
    comps = peel_components(WEYL, f, e)
    rebuilt = WEYL.zero_elem()
    for n, c in comps:
        piece = WEYL.apply_dop_power(c, n)
        rebuilt = rebuilt + piece * (-1) ** n
    assert rebuilt == f
    # layer indices strictly decrease (the peeling loop variant)
    orders = [n for n, _ in comps]
    assert orders == sorted(orders, reverse=True) and len(set(orders)) == len(orders)


def test_peeled_pieces_are_normalized():
    # every peeled layer g satisfies g (0) e = g, and products of layers
    # stay normalized: (g (0) h) (0) e = g (0) h
    e, L = WEYL.generator("e"), WEYL.generator("L")
    G = L + e.derive()
    layers = [c for _, c in peel_components(WEYL, G, e)]
    for g in layers:
        assert WEYL.nth(g, e, 0) == g
        for h in layers:
            gh = WEYL.nth(g, h, 0)
            assert WEYL.nth(gh, e, 0) == gh


def test_peel_requires_identity():
    L = WEYL.generator("L")
    with pytest.raises(NotUnital):
        peel_components(WEYL, WEYL.generator("e"), L)


# -- cross-check helpers ---------------------------------------------------------------------


def test_coefficient_fit_degree():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    assert coefficient_fit_degree(WEYL, e) == 0
    assert coefficient_fit_degree(WEYL, e.derive()) == 1
    two_layers = L + WEYL.apply_dop_power(e, 2)
    assert coefficient_fit_degree(WEYL, two_layers) == 2
    assert two_layers.max_dop_degree() == 2


def test_iterated_derivation_identity():
    assert iterated_derivation_check(WEYL, WEYL.generator("e")) == []
    assert iterated_derivation_check(CUR2, CUR2.generator("u11") + CUR2.generator("u22")) == []


def test_canonical_rep_and_class():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    u = L + e.derive()  # d-part must drop out of the class
    c = canonical_rep(WEYL, u)
    assert c == L
    assert class_coords(WEYL, u) == class_coords(WEYL, L)


# -- recognition ----------------------------------------------------------------------------


def test_recognize_weyl_recovers_derivation():
    res = recognize_unital(WEYL)
    assert res.ok and not res.closed and not res.delta_is_zero
    assert res.labels[:2] == ["e", "L"]
    assert res.delta[0] == {}
    assert res.delta[1] == {0: Fraction(1)}  # delta~[L] = e
    assert res.fit_ok and res.dtilde_ok and res.leibniz_ok
    # the d-layer decomposition of each generator is recorded
    assert [n for n, _ in res.components["L"]] == [0]
    replay = recognition_roundtrip(WEYL, res, n_max=2)
    assert replay["checked"] > 0


def test_recognize_cur2_recovers_matrix_algebra():
    res = recognize_unital(CUR2)
    assert res.ok and res.closed and res.delta_is_zero
    assert res.dim == 4 and res.space._track
    u11, u12, u21 = (res.labels.index(name) for name in ("u11", "u12", "u21"))
    assert res.product[(u12, u21)] == {u11: Fraction(1)}
    assert res.product[(u12, u12)] == {}
    assert res.unit_coords == {
        res.labels.index("u11"): Fraction(1),
        res.labels.index("u22"): Fraction(1),
    }
    fd = res.to_findim()
    assert fd.dim == 4 and fd.unit is not None
    replay = recognition_roundtrip(CUR2, res, n_max=2)
    assert replay["skipped"] == 0 and replay["checked"] == 48


def test_recovered_algebras_compare_by_value():
    # two recognitions of one instance recover equal FinDim algebras
    first, second = (recognize_unital(cur_matrix(2)).to_findim() for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first.unit == second.unit


@pytest.mark.parametrize("build", [lambda: cur_matrix(2), lambda: cur_matrix_presented(2),
                                   weyl_algebra], ids=["cur2", "cur2_presented", "weyl"])
def test_recognitions_of_two_builds_compare_equal(build):
    first_alg, second_alg = build(), build()
    assert first_alg is not second_alg
    assert first_alg == second_alg and hash(first_alg) == hash(second_alg)
    first, second = recognize_unital(first_alg), recognize_unital(second_alg)
    assert first.identity_elem.alg is first_alg and second.identity_elem.alg is second_alg
    assert first == second and repr(first) == repr(second)
    # elements of two builds of one definition mix; elements of different algebras do not
    g = first_alg.generator_items()[0][1]
    h = second_alg.generator_items()[0][1]
    assert g == h and (g + h) == g * 2 and first_alg.nth(g, h, 0) == second_alg.nth(g, h, 0)
    foreign = WEYL if build is not weyl_algebra else CUR2
    other = foreign.generator_items()[0][1]
    assert g != other
    with pytest.raises(ValueError, match="different algebras"):
        g + other
    with pytest.raises(ValueError, match="different algebras"):
        first_alg.nth(g, other, 0)


def test_algebras_compare_by_their_defining_data():
    def weyl_like(values, name="weyl", delta=WEYL.delta):
        return DifferentialAlgebra(WEYL.base, delta, values, name=name)

    values = {"e": Poly.const(1), "L": Poly.variable()}
    assert weyl_like(values) == WEYL and hash(weyl_like(values)) == hash(WEYL)
    assert weyl_like(values, name="other") != WEYL
    assert weyl_like(dict(reversed(values.items()))) != WEYL  # the generator order is data
    assert weyl_like(values, delta=ZeroDerivation(WEYL.base)) != WEYL
    assert cur_matrix(2) != cur_matrix_presented(2) and cur_matrix(2) != cur_matrix(3)
    base = MatPolyRing(2, "x")
    assert ScaledDdx(base) == ScaledDdx(MatPolyRing(2, "x")) != ZeroDerivation(base)
    r = MatPoly.unit(2, 0, 1)
    assert ScaledDdx(base, r) == ScaledDdx(base, MatPoly.unit(2, 0, 1)) != ScaledDdx(base)
    assert hash(ScaledDdx(base, r)) == hash(ScaledDdx(base))


def test_transport_results_compare_equal():
    m2 = matrix_findim(2)
    r = m2.basis_element(m2.names.index("E(1,2)"))
    first, second = transport_identity(m2, r), transport_identity(m2, r)
    assert first.algebra is not second.algebra and first == second


def test_recognize_presented_current_algebra():
    res = recognize_unital(cur_matrix_presented(2))
    assert res.ok and res.closed and res.delta_is_zero and res.dim == 4


def test_recognition_open_table_has_no_findim():
    res = recognize_unital(WEYL, word_bound=4)
    assert not res.closed
    with pytest.raises(ClosureBoundExceeded):
        res.to_findim()


def test_recognize_rejects_non_identity():
    with pytest.raises(NotUnital):
        recognize_unital(WEYL, e=WEYL.generator("L"))


def test_recognize_with_explicit_identity():
    res = recognize_unital(WEYL, e=WEYL.generator("e"))
    assert res.ok and res.delta[res.labels.index("L")] == {res.labels.index("e"): Fraction(1)}


def test_recognition_reads_the_basis_cap_at_call_time(monkeypatch, capsys):
    weyl_dim = recognize_unital(WEYL).dim
    cur2_dim = recognize_unital(CUR2).dim
    monkeypatch.setattr(structure, "RECOGNITION_CAP", weyl_dim - 1)
    with pytest.raises(ClosureBoundExceeded):
        recognize_unital(WEYL)
    assert main(["recognize", str(INSTANCES / "weyl.confal")]) == 3
    monkeypatch.setattr(structure, "RECOGNITION_CAP", cur2_dim)
    assert recognize_unital(CUR2).dim == cur2_dim


def test_dtilde_matches_higher_products():
    # delta-tilde iterates: (-e (1) .)^n f = (-1)^n e (n) f for n <= 3
    e, L = WEYL.generator("e"), WEYL.generator("L")
    for f in (L, WEYL.nth(L, L, 0), L.derive()):
        cur = f
        for n in range(1, 4):
            cur = -WEYL.nth(e, cur, 1)
            direct = WEYL.nth(e, f, n) * (-1) ** n
            assert cur == direct, n


def _doubled(alg, method, when):
    """A test double: alg whose `method` returns twice its value where when(*args) holds."""
    real = getattr(alg, method)

    def double(*args):
        out = real(*args)
        return out + out if when(*args) else out

    setattr(alg, method, double)
    return alg


def _doubled_products(seam, alg, when):
    """alg whose products a (n) b read twice their value where when(a, b, n) holds."""
    def double(a, b, n, terms):
        if when(ConfElem(alg, a), ConfElem(alg, b), n):
            return {k: q * 2 for k, q in terms.items()}
        return terms

    seam.alter = double
    return alg


def test_recognition_reports_a_wrong_coefficient_fit():
    # phi(L, 1) doubled: the coefficients of L stop being constant in k
    alg = weyl_algebra()
    L = alg.generator("L")
    res = recognize_unital(_doubled(alg, "phi", lambda u, k: k == 1 and u == L))
    assert (res.fit_ok, res.dtilde_ok, res.leibniz_ok) == (False, True, True)
    assert res.failures == ["coefficient fit degree 3 != d-degree 0 on L"]
    assert res.ok is False


def test_recognition_reports_a_broken_iterated_derivation_law(product_seam):
    # L = f_{x^2}, so e (2) L = 2 f_1 is nonzero; doubling it breaks
    # (-e (1) .)^2 L = e (2) L and nothing else
    (alg,) = build_all("algebra q { kind differential; base poly x; deriv d/dx; "
                       "generators { e = 1; L = x^2; } }").values()
    e, L = alg.generator("e"), alg.generator("L")
    assert recognize_unital(alg).ok
    res = recognize_unital(
        _doubled_products(product_seam, alg, lambda u, v, n: n == 2 and u == e and v == L))
    assert (res.fit_ok, res.dtilde_ok, res.leibniz_ok) == (True, False, True)
    assert res.failures == ["iterated-derivation law fails on L at n=2"]
    assert res.ok is False


def test_recognition_reports_an_induced_derivation_that_breaks_leibniz(product_seam):
    # e (1) L doubled: the induced derivative of L doubles, that of L*L does not
    alg = weyl_algebra()
    e, L = alg.generator("e"), alg.generator("L")
    res = recognize_unital(
        _doubled_products(product_seam, alg, lambda u, v, n: n == 1 and u == e and v == L))
    assert (res.fit_ok, res.dtilde_ok, res.leibniz_ok) == (True, True, False)
    assert res.failures[0] == "induced derivation breaks Leibniz on (L, L)"
    assert all(f.startswith("induced derivation breaks Leibniz") for f in res.failures)
    assert res.ok is False


def test_mismatch_witness_message():
    err = MismatchWitness("a", "b", 2, detail="why")
    assert "product mismatch at (a, b, n=2)" in str(err)


# -- transport ------------------------------------------------------------------------------


def test_transport_mat2_frozen():
    m2 = matrix_findim(2)
    r = m2.basis_element(m2.names.index("E(1,2)"))
    res = transport_identity(m2, r)
    assert res.nil_index == 2 and res.report.ok
    alg = res.algebra
    want = alg.generator("E(1,1)") + alg.generator("E(2,2)") + alg.generator("E(1,2)").derive()
    assert res.identity == want


def test_transport_keeps_plain_identity():
    # f_1 and the transported identity are BOTH identities in the same algebra
    from confal import identity_report

    m2 = matrix_findim(2)
    r = m2.basis_element(m2.names.index("E(1,2)"))
    res = transport_identity(m2, r)
    alg = res.algebra
    plain = alg.generator("E(1,1)") + alg.generator("E(2,2)")
    assert identity_report(alg, plain).ok
    assert identity_report(alg, res.identity).ok


def test_transport_mat3_three_terms():
    m3 = matrix_findim(3)
    r = m3.basis_element(m3.names.index("E(1,2)")) + m3.basis_element(m3.names.index("E(2,3)"))
    res = transport_identity(m3, r)
    assert res.nil_index == 3
    alg = res.algebra
    one = alg.generator("E(1,1)") + alg.generator("E(2,2)") + alg.generator("E(3,3)")
    mid = (alg.generator("E(1,2)") + alg.generator("E(2,3)")).derive()
    top = alg.apply_dop_power(alg.generator("E(1,3)"), 2) * Fraction(1, 2)
    assert res.identity == one + mid + top


def test_transport_rejects_non_nilpotent():
    m2 = matrix_findim(2)
    with pytest.raises(NotNilpotent):
        transport_identity(m2, m2.basis_element(m2.names.index("E(1,1)")))


# -- delta-stable ideals ----------------------------------------------------------------------


def test_closure_dual_numbers_proper_ideal():
    alg = cur_dual_numbers()
    base, delta = alg.base, alg.delta
    eps = base.basis_element(1)
    closure = delta_stable_closure(base, delta, [eps])
    assert closure.contains(eps) and not closure.unit_found
    assert not closure.contains(base.basis_element(0))
    assert closure.dim == 1 and closure.saturated
    assert not closure.space._track  # only membership is read


def test_closure_stops_once_its_span_holds_until():
    alg = cur_dual_numbers()
    base, delta = alg.base, alg.delta
    unit, eps = base.basis_element(0), base.basis_element(1)
    assert delta_stable_closure(base, delta, [unit], until=base.decompose(eps)) is None
    closure = delta_stable_closure(base, delta, [eps], until=base.decompose(unit))
    assert closure.dim == 1 and not closure.unit_found


def test_closure_detects_unit_through_derivation():
    # seed x in (Q[x], d/dx): delta(x) = 1 so the closure reaches the unit
    base = PolyRing("x")
    delta = ScaledDdx(base)
    closure = delta_stable_closure(base, delta, [Poly.variable()])
    assert closure.unit_found
    assert closure.unit_reason == "the unit lies in the span"


def test_closure_detects_unit_through_its_determinant():
    # I + x*E(1,2) is invertible (determinant 1) although the unit is not in its span
    base = MatPolyRing(2, "x")
    seed = base.one() + MatPoly.unit(2, 0, 1) * Poly.variable()
    closure = delta_stable_closure(base, ZeroDerivation(base), [seed], degree_bound=1,
                                   generators=[])
    assert closure.dim == 1 and closure.unit_found
    assert closure.unit_reason == "invertible element in the span (determinant 1)"


def test_closure_reads_the_basis_cap_at_call_time(monkeypatch):
    base = PolyRing("x")
    monkeypatch.setattr(structure, "SATURATION_CAP", 1)
    with pytest.raises(ClosureBoundExceeded):
        delta_stable_closure(base, ScaledDdx(base), [Poly.variable()])


def test_simplicity_witnesses():
    eps_rep = simplicity_probe(cur_dual_numbers(), trials=10)
    assert eps_rep.witness_found and eps_rep.witness_missing
    poly_rep = simplicity_probe(poly_zero(), trials=10)
    assert poly_rep.witness_found and "x" in poly_rep.witness


def test_probe_results_compare_and_print_by_value():
    # the closure keeps its base ring, which compares and prints as a value
    assert simplicity_probe(poly_zero()) == simplicity_probe(poly_zero())
    assert simplicity_probe(cur_dual_numbers()) == simplicity_probe(cur_dual_numbers())
    for build in (poly_zero, cur_matrix, cur_dual_numbers):
        assert " at 0x" not in repr(simplicity_probe(build()))


def test_simplicity_no_witness_on_simple_instances():
    for alg in (CUR2, WEYL):
        rep = simplicity_probe(alg, trials=50, degree_bound=5, seed=0)
        assert not rep.witness_found, alg.name
        assert rep.candidates_checked > 0


def test_simplicity_requires_differential_instance():
    with pytest.raises(TypeError):
        simplicity_probe(cur_matrix_presented(2))


def test_probe_bounds_validated():
    # library callers get the same ValueError the CLI turns into exit 2
    with pytest.raises(ValueError):
        simplicity_probe(cur_dual_numbers(), trials=-1)
    with pytest.raises(ValueError):
        simplicity_probe(cur_dual_numbers(), degree_bound=-1)
    with pytest.raises(ValueError):
        recognize_unital(CUR2, word_bound=0)
    res = recognize_unital(CUR2)
    with pytest.raises(ValueError):
        recognition_roundtrip(CUR2, res, n_max=-1)


def test_coefficient_subalgebra_has_a_basis_cap(monkeypatch):
    # the coefficient subalgebra of cureps has dimension 2
    basis, saturated = coefficient_subalgebra(cur_dual_numbers())
    assert len(basis) == 2 and saturated
    monkeypatch.setattr(structure, "SATURATION_CAP", 1)
    with pytest.raises(ClosureBoundExceeded):
        coefficient_subalgebra(cur_dual_numbers())
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "cureps.confal"
    assert main(["simplicity", str(path)]) == 3


# -- the probe against full saturation ------------------------------------------------------

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

CEND2_SOURCE = """algebra cend2 {
  kind differential;
  base matpoly 2 x;
  deriv d/dx;
  generators {
    u11 = E(1,1);
    u12 = E(1,2);
    u21 = E(2,1);
    u22 = E(2,2);
    L = x*E(1,1) + x*E(2,2);
  }
}
"""

# b1 * b1 = b2 and every other product zero: no unit
NILPOTENT_SOURCE = """algebra nil2 {
  kind differential;
  base findim 2 table [0, 1,  0, 0,
                       0, 0,  0, 0];
  deriv zero;
  generators {
    u = b1;
  }
}
"""


def _reference_probe(alg, trials=50, degree_bound=5, seed=0):
    """simplicity_probe by a second route: the same candidate list, each one
    saturated to the end by the public delta_stable_closure."""
    base, delta = alg.base, alg.delta
    sub_basis, saturated = coefficient_subalgebra(alg, degree_bound)
    named = [(base.format(b), b) for b in sub_basis]
    log = [] if saturated else ["subalgebra basis is truncated by the degree bound"]
    rng = random.Random(seed)
    candidates = [(f"basis element {n}", b) for n, b in named]
    for k in range(trials):
        elem = base.zero()
        for b in sub_basis:
            c = rng.randint(-2, 2)
            if c:
                elem = elem + b * c
        if not elem.is_zero():
            candidates.append((f"random combination #{k + 1}", elem))
    common = dict(algebra=alg.name, degree_bound=degree_bound, trials=trials,
                  subalgebra_dim=len(sub_basis), log=log)
    for checked, (desc, s) in enumerate(candidates, 1):
        closure = delta_stable_closure(base, delta, [s], degree_bound, named)
        missing = [n for n, b in named if not closure.contains(b)]
        if missing and not closure.unit_found:
            return SimplicityReport(
                candidates_checked=checked,
                witness=f"{desc}: {base.format(s)}", witness_missing=missing,
                witness_closure=closure, **common)
    log.append("no proper delta-stable ideal found at this degree bound")
    return SimplicityReport(candidates_checked=len(candidates), **common)


def _bundled_differential():
    for path in sorted(INSTANCES.glob("*.confal")):
        for alg in load_path(str(path)).values():
            if isinstance(alg, DifferentialAlgebra):
                yield alg


@pytest.mark.parametrize("alg", list(_bundled_differential()), ids=lambda a: a.name)
def test_probe_matches_full_saturation_on_bundled_instances(alg):
    assert simplicity_probe(alg).to_json_dict() == _reference_probe(alg).to_json_dict()


@pytest.mark.parametrize("source, trials", [(CEND2_SOURCE, 5), (NILPOTENT_SOURCE, 10)],
                         ids=["cend2", "unit-free"])
def test_probe_matches_full_saturation(source, trials):
    (alg,) = build_all(source).values()
    for seed in (0, 1):
        got = simplicity_probe(alg, trials=trials, seed=seed).to_json_dict()
        assert got == _reference_probe(alg, trials=trials, seed=seed).to_json_dict()


def _cap_after_subalgebra(monkeypatch, cap):
    """Let the coefficient subalgebra saturate, then lower SATURATION_CAP
    for the candidates' closures."""
    full = structure.coefficient_subalgebra

    def subalgebra(alg, degree_bound):
        out = full(alg, degree_bound)
        monkeypatch.setattr(structure, "SATURATION_CAP", cap)
        return out

    monkeypatch.setattr(structure, "coefficient_subalgebra", subalgebra)


def test_probe_rejects_a_candidate_that_reaches_the_unit_before_the_cap(monkeypatch):
    # dual numbers: the candidate b1 is the unit, and its full closure
    # {b1, b2} is past a cap of 1; the probe rejects it and goes on to b2 = eps
    alg = cur_dual_numbers()
    _cap_after_subalgebra(monkeypatch, 1)
    rep = simplicity_probe(alg, trials=0)
    assert rep.witness == "basis element b2: b2" and rep.candidates_checked == 2
    with pytest.raises(ClosureBoundExceeded):
        delta_stable_closure(alg.base, alg.delta, [alg.base.basis_element(0)])


def test_probe_raises_past_the_cap_without_a_unit(monkeypatch):
    (alg,) = build_all(NILPOTENT_SOURCE).values()
    assert alg.base.unit is None
    _cap_after_subalgebra(monkeypatch, 1)
    with pytest.raises(ClosureBoundExceeded):
        simplicity_probe(alg, trials=0)


def test_probe_work_on_cend2(monkeypatch):
    # a count, not a clock: closures that stop at the unit make less than
    # half the RowSpace inserts of saturating every closure to the end
    (alg,) = build_all(CEND2_SOURCE).values()
    calls = [0]
    add = RowSpace.add

    def counted(self, vec):
        calls[0] += 1
        return add(self, vec)

    monkeypatch.setattr(RowSpace, "add", counted)
    rep = simplicity_probe(alg, trials=5, seed=0)
    probe_adds = calls[0]
    calls[0] = 0
    ref = _reference_probe(alg, trials=5, seed=0)
    assert rep.to_json_dict() == ref.to_json_dict()
    assert (probe_adds, calls[0]) == (4526, 11185)
    assert 2 * probe_adds < calls[0]


def test_probe_builds_each_closure_through_delta_stable_closure(monkeypatch):
    # the public entry point is the one the benchmark tracer counts
    (alg,) = build_all(CEND2_SOURCE).values()
    calls = [0]
    closure = structure.delta_stable_closure

    def counted(*args, **kwargs):
        calls[0] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(structure, "delta_stable_closure", counted)
    rep = simplicity_probe(alg, trials=5, seed=0)
    assert calls[0] == rep.candidates_checked > 0


def test_probe_draws_no_random_candidate_before_a_basis_witness(monkeypatch):
    # cureps: the witness is basis element b2, so none of the 20 random
    # combinations (2 draws each) is ever reached
    alg = cur_dual_numbers()
    calls = [0]
    randint = random.Random.randint

    def counted(self, a, b):
        calls[0] += 1
        return randint(self, a, b)

    monkeypatch.setattr(random.Random, "randint", counted)
    rep = simplicity_probe(alg, trials=20)
    assert rep.witness.startswith("basis element b2") and rep.candidates_checked == 2
    assert calls[0] == 0


# -- the round trip against an elimination per product ----------------------------------------


def _reference_roundtrip(alg, result, n_max=2):
    """recognition_roundtrip by a second route: every product's class is
    expressed over the representatives and compared with the table value."""
    space = result.space
    checked = skipped = 0
    log = []
    for i in range(result.dim):
        for j in range(result.dim):
            for n in range(n_max + 1):
                w = alg.nth(result.representatives[i], result.representatives[j], n)
                lhs = space.express(class_coords(alg, w))
                dj = {j: 1}
                for _ in range(n):
                    dj = structure._vec_image(result.delta, dj)
                rhs = structure._vec_mul(result.product, {i: -1 if n % 2 else 1}, dj)
                if lhs is None or rhs is None:
                    skipped += 1
                    log.append(
                        f"skipped ({result.labels[i]}, {result.labels[j]}, n={n}): "
                        + ("product escapes the span" if lhs is None else "unresolved table entry")
                    )
                    continue
                if lhs != rhs:
                    raise MismatchWitness(
                        result.labels[i], result.labels[j], n,
                        detail=f"direct class {lhs} vs table value {rhs}",
                    )
                checked += 1
    return {"checked": checked, "skipped": skipped, "log": log}


def _bundled():
    for path in sorted(INSTANCES.glob("*.confal")):
        yield from load_path(str(path)).values()


@pytest.mark.parametrize("alg", list(_bundled()), ids=lambda a: a.name)
def test_roundtrip_matches_the_reference_on_bundled_instances(alg):
    res = recognize_unital(alg)
    assert recognition_roundtrip(alg, res) == _reference_roundtrip(alg, res)


@pytest.mark.parametrize("name, word_bound", [("weyl", 4), ("polyzero", 4), ("cend2", 2)])
def test_roundtrip_matches_the_reference_on_open_tables(name, word_bound):
    if name == "cend2":
        (alg,) = build_all(CEND2_SOURCE).values()
    else:
        (alg,) = load_path(str(INSTANCES / f"{name}.confal")).values()
    res = recognize_unital(alg, word_bound=word_bound)
    assert not res.closed
    for n_max in (2, 3):
        got = recognition_roundtrip(alg, res, n_max=n_max)
        assert got == _reference_roundtrip(alg, res, n_max=n_max)
        assert got["checked"] and got["skipped"]
    reasons = {line.rsplit(": ", 1)[1] for line in got["log"]}
    # on weyl and polyzero an unresolved entry's product also escapes the span
    want = {"product escapes the span"}
    if name == "cend2":
        want.add("unresolved table entry")
    assert reasons == want


def _replay_per_triple(alg, result, n_max=2):
    """recognition_roundtrip as it was when it formed the table derivative
    delta~^n [v_j] afresh for every (i, j, n), with the class coordinates
    read through alg.coordinates."""
    def coords(u):
        return {key: c for (key, p), c in alg.coordinates(u).items() if p == 0}

    space = result.space
    reps = result.representatives
    rep_coords = [coords(u) for u in reps]
    checked = skipped = 0
    log = []
    for i in range(result.dim):
        for j in range(result.dim):
            for n, prod in enumerate(alg.nth_orders(reps[i], reps[j], 0, n_max)):
                w = coords(prod)
                dj = {j: 1}
                for _ in range(n):
                    dj = structure._vec_image(result.delta, dj)
                rhs = structure._vec_mul(result.product, {i: -1 if n % 2 else 1}, dj)
                if rhs is not None and structure._vec_image(rep_coords, rhs) == w:
                    checked += 1
                    continue
                lhs = space.express(w) if rhs is not None else None
                if lhs is None:
                    escapes = rhs is not None or not space.contains(w)
                    skipped += 1
                    log.append(
                        f"skipped ({result.labels[i]}, {result.labels[j]}, n={n}): "
                        + ("product escapes the span" if escapes else "unresolved table entry")
                    )
                    continue
                if lhs != rhs:
                    raise MismatchWitness(
                        result.labels[i], result.labels[j], n,
                        detail=f"direct class {lhs} vs table value {rhs}",
                    )
                checked += 1
    return {"checked": checked, "skipped": skipped, "log": log}


# the benchmark's recognitions: (instance, word bound, dim, checked, skipped)
WIDE_RECOGNITIONS = [
    (weyl_algebra, 20, 21, 752, 571),
    (poly_zero, 20, 21, 1113, 210),
    (lambda: cur_matrix(3), 8, 9, 243, 0),
    (lambda: cur_matrix_presented(2), 8, 4, 48, 0),
]


@pytest.mark.parametrize("make, word_bound, dim, checked, skipped", WIDE_RECOGNITIONS,
                         ids=["weyl", "polyzero", "cur3", "cur2p"])
def test_roundtrip_at_the_benchmark_word_bounds(make, word_bound, dim, checked, skipped):
    alg = make()
    res = recognize_unital(alg, word_bound=word_bound)
    assert res.ok and res.dim == dim
    got = recognition_roundtrip(alg, res)
    assert (got["checked"], got["skipped"]) == (checked, skipped)
    assert len(got["log"]) == skipped
    assert all(line.endswith(": product escapes the span") for line in got["log"])
    assert got == _replay_per_triple(alg, res)


def _mismatch(replay, alg, res):
    with pytest.raises(MismatchWitness) as err:
        replay(alg, res)
    return err.value.witness, str(err.value)


@pytest.mark.parametrize("table, witness", [
    ("product", ("u11", "u11", 0)),
    ("delta", ("u11", "L", 1)),
])
def test_roundtrip_reports_a_corrupted_table_as_the_reference_does(table, witness):
    (alg,) = build_all(CEND2_SOURCE).values()
    res = recognize_unital(alg, word_bound=2)
    entries = getattr(res, table)
    key = next(k for k, v in entries.items() if v)  # the first nonzero resolved entry
    entries[key] = {i: c * 2 for i, c in entries[key].items()}
    got = _mismatch(recognition_roundtrip, alg, res)
    assert got == _mismatch(_reference_roundtrip, alg, res)
    assert got[0] == witness


# -- recognition against the two-pass closure loop ------------------------------------------


def _reference_recognize(alg, word_bound=8):
    """recognize_unital by a second route: products past the word bound are
    tried inside the closure loop and tried again against the final span, and
    the fit check scans the top product order against e afresh."""
    from confal.axioms import identity_report

    e = find_identity(alg)
    id_rep = identity_report(alg, e)
    log, labels, reps, lengths = [], [], [], []
    space = RowSpace()
    product, delta = {}, {}

    def add_basis(elem, label, length):
        if len(reps) >= structure.RECOGNITION_CAP:
            raise ClosureBoundExceeded("cap")
        if not space.add(class_coords(alg, elem)):
            return None
        labels.append(label)
        reps.append(elem)
        lengths.append(length)
        return len(reps) - 1

    generator_classes, components = {}, {}
    for name, g in alg.generator_items():
        components[name] = peel_components(alg, g, e)
        c = canonical_rep(alg, g)
        if c.is_zero():
            log.append(f"generator {name} has a trivial class (pure d-image)")
            generator_classes[name] = {}
            continue
        add_basis(c, name, 1)
        generator_classes[name] = space.express(class_coords(alg, c))

    changed = True
    while changed:
        changed = False
        for i in range(len(reps)):
            if i in delta:
                continue
            img = canonical_rep(alg, -alg.nth(e, reps[i], 1))
            expr = space.express(class_coords(alg, img))
            if expr is None:
                expr = {add_basis(img, f"D({labels[i]})", lengths[i]): 1}
                changed = True
            delta[i] = expr
        for i in range(len(reps)):
            for j in range(len(reps)):
                if (i, j) in product:
                    continue
                w = canonical_rep(alg, alg.nth(reps[i], reps[j], 0))
                expr = space.express(class_coords(alg, w))
                if expr is None and lengths[i] + lengths[j] <= word_bound:
                    idx = add_basis(w, f"{labels[i]}*{labels[j]}", lengths[i] + lengths[j])
                    expr = {idx: 1}
                    changed = True
                product[(i, j)] = expr

    for (i, j), entry in list(product.items()):
        if entry is not None:
            continue
        w = canonical_rep(alg, alg.nth(reps[i], reps[j], 0))
        product[(i, j)] = space.express(class_coords(alg, w))
        if product[(i, j)] is None:
            log.append(f"product left unresolved at the word bound: {labels[i]} * {labels[j]}")

    failures = []
    fit_ok = True
    for name, g in alg.generator_items():
        if g.is_zero():
            continue
        top = g.max_dop_degree()
        fitted = coefficient_fit_degree(alg, g)
        peel_top = alg.locality(g, e)
        if fitted != top:
            fit_ok = False
            failures.append(f"coefficient fit degree {fitted} != d-degree {top} on {name}")
        if peel_top != top:
            fit_ok = False
            failures.append(
                f"top product order against e is {peel_top!r}, expected {top}, on {name}"
            )
    dt_failures = iterated_derivation_check(alg, e)
    failures.extend(dt_failures)
    leibniz_ok = True
    for i in range(len(reps)):
        for j in range(len(reps)):
            if product[(i, j)] is None:
                continue
            lhs = structure._vec_image(delta, product[(i, j)])
            rhs_a = structure._vec_mul(product, delta[i], {j: 1})
            rhs_b = structure._vec_mul(product, {i: 1}, delta[j])
            if rhs_a is None or rhs_b is None:
                log.append(
                    f"Leibniz check skipped on ({labels[i]}, {labels[j]}): "
                    "an intermediate product is unresolved"
                )
            elif add_scaled(rhs_a, rhs_b, 1) != lhs:
                leibniz_ok = False
                failures.append(f"induced derivation breaks Leibniz on ({labels[i]}, {labels[j]})")
    return structure.RecognitionResult(
        algebra=alg.name, identity=id_rep, identity_elem=e,
        labels=labels, representatives=reps, product=product, delta=delta,
        unit_coords=space.express(class_coords(alg, e)), generator_classes=generator_classes,
        components=components, fit_ok=fit_ok, dtilde_ok=not dt_failures, leibniz_ok=leibniz_ok,
        failures=failures, log=log, space=space,
    )


def _with_cend2():
    yield from _bundled()
    yield from build_all(CEND2_SOURCE).values()


@pytest.mark.parametrize("word_bound", range(1, 9))
@pytest.mark.parametrize("alg", list(_with_cend2()), ids=lambda a: a.name)
def test_recognition_matches_the_two_pass_loop(alg, word_bound):
    res = recognize_unital(alg, word_bound=word_bound)
    ref = _reference_recognize(alg, word_bound)
    assert res.to_json_dict() == ref.to_json_dict()
    assert recognition_roundtrip(alg, res) == recognition_roundtrip(alg, ref)


def test_each_product_past_the_word_bound_is_formed_once(product_seam):
    # weyl at word bound 20, as the spans benchmark recognizes it: the two-pass
    # loop forms each of the 210 products it leaves unresolved a second time,
    # and its fit check rescans the top product order against e (4 products)
    (alg,) = load_path(str(INSTANCES / "weyl.confal")).values()
    formed = product_seam.orders
    res = recognize_unital(alg, word_bound=20)
    got = len(formed)
    formed.clear()
    ref = _reference_recognize(alg, 20)
    assert res.to_json_dict() == ref.to_json_dict()
    assert (got, len(formed)) == (488, 702)
