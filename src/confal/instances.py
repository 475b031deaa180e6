"""Bundled algebra instances used by the tests and the documentation.

Each constructor returns a fresh ``DifferentialAlgebra`` (or, for the
presented variant, a ``PresentedAlgebra``) so callers can mutate nothing
shared.  The same definitions are shipped as .confal files under
``instances/``; the builders here are the programmatic form.
"""

from __future__ import annotations

from .diff_conformal import DifferentialAlgebra
from .exact_arith import DOp, MatPoly, Poly
from .ore_skew import FinDim, MatPolyRing, PolyRing, ScaledDdx, ZeroDerivation
from .presented_conformal import PresentedAlgebra, ProductTable


def weyl_algebra() -> DifferentialAlgebra:
    """(Q[x], d/dx) with generators e = f_1 and L = f_x.

    The coefficient algebra is the first Weyl algebra's Laurent extension;
    e is a conformal identity and L plays the Virasoro-like role with
    L (1) L = -L.

    Note the asymmetry in the product table: e (1) L = -e but L (1) e = 0.
    Both follow from the product rule f_a (m) f_b = (-1)^m f_{a.delta^m(b)}:
    the right slot is differentiated, and delta(1) = 0.  Tables that list
    L (1) e = -e by symmetry with e (1) L disagree with the coefficient-level
    computation, which is authoritative here.
    """
    base = PolyRing("x")
    return DifferentialAlgebra(
        base,
        ScaledDdx(base),
        {"e": base.one(), "L": Poly.variable("x")},
        name="weyl",
    )


def cur_matrix(n: int = 2) -> DifferentialAlgebra:
    """Current algebra over Mat_n(Q): zero derivation, matrix-unit generators.

    Generators are named u11, u12, ..., unn (1-based row, column).
    """
    base = MatPolyRing(n, "x")
    gens = {
        f"u{i + 1}{j + 1}": MatPoly.unit(n, i, j, "x")
        for i in range(n)
        for j in range(n)
    }
    return DifferentialAlgebra(base, ZeroDerivation(base), gens, name=f"cur{n}")


def cur_dual_numbers() -> DifferentialAlgebra:
    """Current algebra over the dual numbers Q[eps]/(eps^2).

    The basis is b1 = 1, b2 = eps, named as in instances/cureps.confal.
    The span of eps is a proper two-sided ideal of the base, so the probe
    for delta-stable coefficient ideals finds a witness here.
    """
    base = FinDim([[(1, 0), (0, 1)], [(0, 1), (0, 0)]])
    gens = {
        "u1": base.basis_element(0),
        "ueps": base.basis_element(1),
    }
    return DifferentialAlgebra(base, ZeroDerivation(base), gens, name="cureps")


def poly_zero() -> DifferentialAlgebra:
    """(Q[x], delta = 0) with generators one = f_1 and g = f_x.

    With a zero derivation every base ideal is delta-stable, so the ideal
    generated by x witnesses non-simplicity.
    """
    base = PolyRing("x")
    return DifferentialAlgebra(
        base,
        ZeroDerivation(base),
        {"one": base.one(), "g": Poly.variable("x")},
        name="polyzero",
    )


def cur_matrix_presented(n: int = 2) -> PresentedAlgebra:
    """Presented form of cur_matrix(n): u_pq (0) u_rs = u_ps when q = r.

    All products of order >= 1 vanish, so the table is an exact finite
    presentation of the same conformal algebra.
    """
    names = [f"u{i + 1}{j + 1}" for i in range(n) for j in range(n)]

    def idx(i: int, j: int) -> int:
        return i * n + j

    entries = {}
    for p in range(n):
        for q in range(n):
            for s in range(n):
                entries[(idx(p, q), idx(q, s))] = [{idx(p, s): DOp.one()}]
    return PresentedAlgebra(ProductTable(names, entries), name=f"cur{n}p")


INSTANCES = {
    "weyl": weyl_algebra,
    "cur2": cur_matrix,
    "cureps": cur_dual_numbers,
    "polyzero": poly_zero,
    "cur2p": cur_matrix_presented,
}
