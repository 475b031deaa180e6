"""Skew Laurent arithmetic over (base, derivation) pairs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confal import (
    BoundExceeded,
    DdxPlusAd,
    FinDim,
    LinearAction,
    MatPoly,
    MatPolyRing,
    NotNilpotent,
    OreRing,
    Poly,
    PolyRing,
    ScaledDdx,
    ZeroDerivation,
    ad_derivation,
    matrix_findim,
    nilpotency_index,
    weyl_instance,
)
from confal import ore_skew
from confal.ore_skew import BaseAlgebra


def weyl_ring() -> OreRing:
    base, delta = weyl_instance(1)
    return OreRing(base, delta)


def skew_elems(ring):
    """Random skew Laurent elements: t-exponents in [-3,3], x-degrees <= 3."""
    coeff = st.dictionaries(
        st.integers(min_value=0, max_value=3),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        max_size=3,
    ).map(lambda d: Poly(d, "x"))
    return st.dictionaries(
        st.integers(min_value=-3, max_value=3), coeff, max_size=3
    ).map(lambda c: type(ring.zero())(ring, c))


RING = weyl_ring()


@settings(max_examples=40, deadline=None)
@given(skew_elems(RING), skew_elems(RING), skew_elems(RING))
def test_skew_mul_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


def test_ore_relation_orientation():
    # The defining relation: b*t - t*b = delta(b) for base elements b.
    ring = weyl_ring()
    for b in (Poly.variable("x"), Poly.monomial(2), Poly.monomial(3, 5)):
        eb = ring.embed(b)
        lhs = eb * ring.t() - ring.t() * eb
        assert lhs == ring.embed(b.derive())


def test_t_inverse():
    ring = weyl_ring()
    assert ring.t(1) * ring.t(-1) == ring.one()
    assert ring.t(-1) * ring.t(1) == ring.one()
    assert ring.t(-2) * ring.t(5) == ring.t(3)


def test_frozen_commutation_values():
    ring = weyl_ring()
    x = ring.embed(Poly.variable("x"))
    xsq = ring.embed(Poly.monomial(2))
    # t * x^2 = x^2 t - 2x
    assert ring.t() * xsq == ring.monomial(Poly.monomial(2), 1) - ring.embed(
        Poly.monomial(1, 2)
    )
    # t^-1 * x = x t^-1 + t^-2
    assert ring.t(-1) * x == ring.monomial(Poly.variable("x"), -1) + ring.t(-2)


def test_coords_flatten():
    ring = weyl_ring()
    u = ring.monomial(Poly.monomial(2, 3), -1) + ring.one()
    assert u.coords() == {(2, -1): Fraction(3), (0, 0): Fraction(1)}


def test_matrix_weyl_relation():
    base, delta = weyl_instance(2)
    ring = OreRing(base, delta)
    ex = ring.embed(MatPoly.identity(2) * Poly.variable("x"))
    assert ex * ring.t() - ring.t() * ex == ring.one()


@pytest.mark.parametrize("ring", [PolyRing, MatPolyRing])
def test_base_rings_use_the_operator_defaults(ring):
    # only FinDim, whose values are tuples, overrides the ring operations
    for name in ("add", "neg", "scale", "mul", "is_zero", "degree", "element_key"):
        assert getattr(ring, name) is getattr(BaseAlgebra, name), name


# -- derivations ---------------------------------------------------------------------------


def test_scaled_ddx_requires_polynomial_base():
    with pytest.raises(TypeError):
        ScaledDdx(FinDim([[(1,)]]))


def test_ddx_plus_ad_rejects_non_nilpotent():
    base = MatPolyRing(2, "x")
    with pytest.raises(NotNilpotent):
        DdxPlusAd(base, MatPoly.identity(2))


def test_ddx_plus_ad_leibniz_and_action():
    base = MatPolyRing(2, "x")
    r = MatPoly.unit(2, 0, 1)
    delta = DdxPlusAd(base, r)
    a = MatPoly.unit(2, 1, 0)
    # delta(E21) = d/dx(E21) + [E12, E21] = E11 - E22
    assert delta(a) == MatPoly.unit(2, 0, 0) - MatPoly.unit(2, 1, 1)
    b = MatPoly.unit(2, 0, 0) * Poly.variable("x")
    assert delta(base.mul(a, b)) == base.add(
        base.mul(delta(a), b), base.mul(a, delta(b))
    )


def test_linear_action_must_be_a_derivation():
    base = FinDim([[(1, 0), (0, 1)], [(0, 1), (0, 0)]])
    # d(b1) = b2 violates Leibniz on (b1, b1): d(b1) vs 2 b1 d(b1).
    with pytest.raises(ValueError):
        LinearAction(base, [[0, 0], [1, 0]])
    # eps-scaling satisfies Leibniz but is not locally nilpotent.
    with pytest.raises(BoundExceeded):
        LinearAction(base, [[0, 0], [0, 1]])
    ok = LinearAction(base, [[0, 0], [0, 0]])
    assert base.is_zero(ok(base.basis_element(1)))


def test_ad_derivation_nilpotency_bound():
    base = matrix_findim(2)
    r = base.basis_element(base.names.index("E(1,2)"))
    delta = ad_derivation(base, r)
    r_index = nilpotency_index_of_element(base, r)
    for i in range(base.dim):
        a = base.basis_element(i)
        assert nilpotency_index(delta, a) <= 2 * r_index


def nilpotency_index_of_element(base, r) -> int:
    power = r
    m = 1
    while not base.is_zero(power):
        power = base.mul(power, r)
        m += 1
        assert m <= base.dim + 1
    return m


def test_nilpotency_index_frozen_anchor():
    # (ad E12)^k on E21: E21 -> E11 - E22 -> -2 E12 -> 0, so the index is 3.
    base = matrix_findim(2)
    delta = ad_derivation(base, base.basis_element(base.names.index("E(1,2)")))
    e21 = base.basis_element(base.names.index("E(2,1)"))
    assert nilpotency_index(delta, e21) == 3


def test_nilpotency_bound_exceeded(monkeypatch):
    base = PolyRing("x")
    delta = ZeroDerivation(base)
    ring = OreRing(base, delta)
    # t^-1 * b needs infinitely many terms unless delta is locally nilpotent;
    # with delta = 0 it terminates immediately instead.
    assert ring.t(-1) * ring.embed(Poly.variable("x")) == ring.monomial(
        Poly.variable("x"), -1
    )
    # Simulate a genuine bound hit with a tight iteration cap: the cap 3
    # passes construction (generator products need <= 3 iterations) but
    # normalizing t^-1 * x^3 needs a fourth.
    monkeypatch.setattr(ore_skew, "NILPOTENCY_BOUND", 3)
    tight = ScaledDdx(PolyRing("x"))
    ring2 = OreRing(tight.base, tight)
    with pytest.raises(BoundExceeded):
        ring2.t(-1) * ring2.embed(Poly.monomial(3))


def test_findim_rejects_non_associative_table():
    with pytest.raises(ValueError):
        FinDim([[(0, 1), (1, 0)], [(0, 0), (0, 1)]])
