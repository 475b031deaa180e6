"""Skew Laurent arithmetic over (base, derivation) pairs."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confal import (
    BoundExceeded,
    FinDim,
    LinearAction,
    MatPoly,
    MatPolyRing,
    NotNilpotent,
    OreRing,
    Poly,
    PolyRing,
    ScaledDdx,
    SkewLaurent,
    ZeroDerivation,
    ad_derivation,
    cur_dual_numbers,
    cur_matrix,
    matrix_findim,
    nilpotency_index,
    weyl_algebra,
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
    ).map(Poly)
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
    for b in (Poly.variable(), Poly.monomial(2), Poly.monomial(3, 5)):
        eb = ring.monomial(b, 0)
        lhs = eb * ring.t() - ring.t() * eb
        assert lhs == ring.monomial(b.derive(), 0)


def test_t_inverse():
    ring = weyl_ring()
    assert ring.t(1) * ring.t(-1) == ring.one()
    assert ring.t(-1) * ring.t(1) == ring.one()
    assert ring.t(-2) * ring.t(5) == ring.t(3)


@pytest.mark.parametrize("make", [weyl_algebra, cur_matrix, cur_dual_numbers],
                         ids=["weyl", "cur2", "cureps"])
def test_shift_is_right_multiplication_by_a_power_of_t(make):
    alg = make()
    ring = alg.ore
    gens = [g for _, g in alg.generator_items()]
    elems = [ring.zero(), ring.one()]
    for i, g in enumerate(gens):
        elems.append(alg.phi(g, i - 1))
        elems.append(alg.phi(g, 2) * alg.phi(gens[-1], -1) + alg.phi(g, -3).scale(Fraction(1, 2)))
    for x in elems:
        for k in (-3, -1, 0, 1, 4):
            assert x.shift(k) == x * ring.t(k)


def test_frozen_commutation_values():
    ring = weyl_ring()
    x = ring.monomial(Poly.variable(), 0)
    xsq = ring.monomial(Poly.monomial(2), 0)
    # t * x^2 = x^2 t - 2x
    assert ring.t() * xsq == (ring.monomial(Poly.monomial(2), 1)
                              - ring.monomial(Poly.monomial(1, 2), 0))
    # t^-1 * x = x t^-1 + t^-2
    assert ring.t(-1) * x == ring.monomial(Poly.variable(), -1) + ring.t(-2)


def test_coords_flatten():
    ring = weyl_ring()
    u = ring.monomial(Poly.monomial(2, 3), -1) + ring.one()
    assert u.coords() == {(2, -1): Fraction(3), (0, 0): Fraction(1)}


def test_matrix_weyl_relation():
    base, delta = weyl_instance(2)
    ring = OreRing(base, delta)
    ex = ring.monomial(MatPoly.identity(2) * Poly.variable(), 0)
    assert ex * ring.t() - ring.t() * ex == ring.one()


RING_METHODS = ("add", "neg", "scale", "mul", "is_zero", "degree", "element_key", "sub", "eq")


@pytest.mark.parametrize("ring", [PolyRing, MatPolyRing])
def test_base_algebras_define_no_arithmetic(ring):
    # values compute with their own operators; an algebra object only formats them
    for name in RING_METHODS:
        assert not hasattr(BaseAlgebra, name) and not hasattr(ring, name), name


def test_polynomial_rings_are_values():
    # a ring is the one owner of its variable, and equals any ring built alike
    assert PolyRing("x") == PolyRing("x") and hash(PolyRing("x")) == hash(PolyRing("x"))
    assert PolyRing("x") != PolyRing("y") and PolyRing("x") != MatPolyRing(1, "x")
    assert MatPolyRing(2, "y") == MatPolyRing(2, "y")
    assert MatPolyRing(2, "x") != MatPolyRing(3, "x")
    assert MatPolyRing(2, "x") != MatPolyRing(2, "y")
    assert len({MatPolyRing(2, "x"), MatPolyRing(2, "x")}) == 1
    assert repr(PolyRing("zz")) == "PolyRing('zz')"
    assert repr(MatPolyRing(2, "x")) == "MatPolyRing(2, 'x')"
    assert repr(cur_dual_numbers().base) == "FinDim(dim=2, names=('b1', 'b2'))"


def test_findim_keeps_only_what_its_values_call():
    for name in ("neg", "is_zero", "degree", "element_key", "sub", "eq"):
        assert not hasattr(FinDim, name), name
    for name in ("add", "scale", "mul", "decompose"):
        assert name in vars(FinDim), name


# -- finite-dimensional values -------------------------------------------------------------


def dual_numbers() -> FinDim:
    """Q[eps]/(eps^2) on the basis 1, eps."""
    return FinDim([[(1, 0), (0, 1)], [(0, 1), (0, 0)]], ["1", "eps"])


def matrix_product(a, b):
    """Row-major coordinates of 2x2 matrices, multiplied entry by entry."""
    return tuple(sum(a[2 * i + l] * b[2 * l + j] for l in range(2))
                 for i in range(2) for j in range(2))


def dual_product(a, b):
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


@pytest.mark.parametrize("make, product", [(lambda: matrix_findim(2), matrix_product),
                                           (dual_numbers, dual_product)],
                         ids=["mat2", "dual"])
def test_findim_operators_follow_the_structure_constants(make, product):
    alg = make()
    d = alg.dim
    basis = [alg.basis_element(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            assert (basis[i] * basis[j]).coords == alg.table[i][j]
    rng = random.Random(0)

    def value():
        return alg.from_coords({i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for i in range(d)})

    for _ in range(30):
        a, b = value(), value()
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert (a * b).coords == product(a.coords, b.coords)
        assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
        assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
        assert (-a).coords == tuple(-x for x in a.coords)
        assert (a * c).coords == (c * a).coords == tuple(x * c for x in a.coords)
        assert (a - a).is_zero() and a - a == alg.zero()
        assert a.is_zero() == (a == alg.zero())
        assert a.degree() == 0 and a.key() == a.coords
        assert alg.one() * a == a == a * alg.one()


def test_findim_equality_agrees_with_hash():
    alg = matrix_findim(2)
    a = alg.from_coords({0: 3, 1: Fraction(1, 2)})
    b = alg.basis_element(0) * Fraction(6, 2) + alg.basis_element(1) * Fraction(2, 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != alg.from_coords({0: 3})
    assert repr(a) == "3*E(1,1) + 1/2*E(1,2)" and repr(alg.zero()) == "0"
    twin = matrix_findim(2)  # the same names and table: an equal algebra
    assert twin == alg and hash(twin) == hash(alg)
    assert a == twin.from_coords({0: 3, 1: Fraction(1, 2)})
    assert hash(a) == hash(twin.from_coords({0: 3, 1: Fraction(1, 2)}))


def test_findim_rejects_values_of_another_algebra():
    dual = dual_numbers()
    eps = dual.basis_element(1)
    other = matrix_findim(2).basis_element(0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(eps, other)
        with pytest.raises(ValueError):
            op(other, eps)
    # an equal algebra built apart combines: its values are the same values
    twin_eps = dual_numbers().basis_element(1)
    assert eps + twin_eps == eps * 2 and (eps - twin_eps).is_zero()
    assert (eps * twin_eps).is_zero() and (twin_eps * eps).is_zero()
    # the algebra's own add checks too, not only the operators
    with pytest.raises(ValueError):
        dual.add(eps, matrix_findim(2).basis_element(0))
    with pytest.raises(ValueError):
        ad_derivation(dual, matrix_findim(2).basis_element(1))


# -- derivations ---------------------------------------------------------------------------


def test_scaled_ddx_requires_polynomial_base():
    with pytest.raises(TypeError, match="d/dx needs a polynomial"):
        ScaledDdx(FinDim([[(1,)]]))
    with pytest.raises(TypeError, match=r"d/dx \+ ad\(r\) needs a matrix-polynomial base"):
        ScaledDdx(PolyRing("x"), Poly.variable())


def test_ddx_plus_ad_rejects_non_nilpotent():
    base = MatPolyRing(2, "x")
    with pytest.raises(NotNilpotent):
        ScaledDdx(base, MatPoly.identity(2))


def test_ddx_plus_ad_leibniz_and_action():
    base = MatPolyRing(2, "x")
    r = MatPoly.unit(2, 0, 1)
    delta = ScaledDdx(base, r)
    a = MatPoly.unit(2, 1, 0)
    # delta(E21) = d/dx(E21) + [E12, E21] = E11 - E22
    assert delta(a) == MatPoly.unit(2, 0, 0) - MatPoly.unit(2, 1, 1)
    b = MatPoly.unit(2, 0, 0) * Poly.variable()
    assert delta(a * b) == delta(a) * b + a * delta(b)


def test_linear_action_must_be_a_derivation():
    base = FinDim([[(1, 0), (0, 1)], [(0, 1), (0, 0)]])
    # d(b1) = b2 violates Leibniz on (b1, b1): d(b1) vs 2 b1 d(b1).
    with pytest.raises(ValueError):
        LinearAction(base, [[0, 0], [1, 0]])
    # eps-scaling satisfies Leibniz but is not locally nilpotent.
    with pytest.raises(BoundExceeded):
        LinearAction(base, [[0, 0], [0, 1]])
    ok = LinearAction(base, [[0, 0], [0, 0]])
    assert ok(base.basis_element(1)).is_zero()


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
    while not power.is_zero():
        power = power * r
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
    assert ring.t(-1) * ring.monomial(Poly.variable(), 0) == ring.monomial(
        Poly.variable(), -1
    )
    # Simulate a genuine bound hit with a tight iteration cap: the cap 3
    # passes construction (generator products need <= 3 iterations) but
    # normalizing t^-1 * x^3 needs a fourth.
    monkeypatch.setattr(ore_skew, "NILPOTENCY_BOUND", 3)
    tight = ScaledDdx(PolyRing("x"))
    ring2 = OreRing(tight.base, tight)
    with pytest.raises(BoundExceeded):
        ring2.t(-1) * ring2.monomial(Poly.monomial(3), 0)


def test_skew_laurent_exponents_must_be_integers():
    ring = weyl_ring()
    x = Poly.variable()
    # int() would read these as t^1 and t^3 and build t^3 + t without a word
    for coeffs in ({1.5: x, Fraction(7, 2): x}, {1.5: x}, {Fraction(7, 2): x}, {2.0: x}):
        with pytest.raises(TypeError):
            SkewLaurent(ring, coeffs)
    with pytest.raises(TypeError):
        SkewLaurent(ring, {0.5: Poly.zero()})  # a zero value does not hide a bad exponent
    with pytest.raises(TypeError):
        ring.t(Fraction(1, 2))
    assert SkewLaurent(ring, {3: x, -1: x, 2: Poly.zero()}).coeffs == {3: x, -1: x}


def _counting_ddx(monkeypatch):
    """d/dx on Q[x], built first; then every application of it is recorded."""
    delta = ScaledDdx(PolyRing("x"))
    applied = []
    apply = ScaledDdx._apply

    def counted(self, a):
        applied.append(a)
        return apply(self, a)

    monkeypatch.setattr(ScaledDdx, "_apply", counted)
    return delta, applied


def test_orbit_applies_delta_only_for_iterates_it_keeps(monkeypatch):
    delta, applied = _counting_ddx(monkeypatch)
    x5 = Poly.monomial(5)
    full = [x5, Poly.monomial(4, 5), Poly.monomial(3, 20), Poly.monomial(2, 60),
            Poly.monomial(1, 120), Poly.monomial(0, 120)]
    for length in range(1, 7):
        applied.clear()
        got = delta.orbit(x5, length)
        assert got == full[:length]
        assert len(applied) == len(got) - 1
    for length in (7, None):  # past the orbit's end: one more delta finds the zero
        applied.clear()
        assert delta.orbit(x5, length) == full
        assert len(applied) == len(full)
    applied.clear()
    assert delta.orbit(x5, 0) == [] and applied == []


def test_orbit_length_at_and_past_the_nilpotency_bound(monkeypatch):
    delta, applied = _counting_ddx(monkeypatch)
    monkeypatch.setattr(ore_skew, "NILPOTENCY_BOUND", 3)
    x5 = Poly.monomial(5)
    got = delta.orbit(x5, 3)  # as many iterates as the bound allows: no error
    assert len(got) == 3 and len(applied) == 2
    for length in (4, 10, None):
        with pytest.raises(BoundExceeded) as exc:
            delta.orbit(x5, length)
        assert exc.value.bound == 3
    # an orbit exactly as long as the bound ends within it
    assert len(delta.orbit(Poly.monomial(2), 10)) == 3


def test_findim_rejects_non_associative_table():
    with pytest.raises(ValueError):
        FinDim([[(0, 1), (1, 0)], [(0, 0), (0, 1)]])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_ddx_checks_only_generator_orbits(n, monkeypatch):
    # d/dx is a derivation by construction: its build walks each ring generator's
    # orbit once and samples no Leibniz pairs
    applied = []
    apply = ScaledDdx._apply

    def counted(self, a):
        applied.append(a)
        return apply(self, a)

    monkeypatch.setattr(ScaledDdx, "_apply", counted)
    base, delta = weyl_instance(n)
    monkeypatch.setattr(ScaledDdx, "_apply", apply)
    lengths = [len(delta.orbit(g)) for _, g in base.ring_generators()]
    assert len(applied) == sum(lengths) == (3 if n == 1 else n * n + 2)


def test_leibniz_failure_names_the_first_failing_pair():
    dual = FinDim([[(1, 0), (0, 1)], [(0, 1), (0, 0)]])
    with pytest.raises(ValueError) as exc:
        LinearAction(dual, [[0, 0], [1, 0]])
    assert str(exc.value) == "Leibniz rule fails on (b1, b1)"
    # on Mat_2(Q) the products E(1,1) E(1,1) = E(1,1), ... repeat generators
    mat2 = matrix_findim(2)
    action = [[0] * 4 for _ in range(4)]
    action[2][1] = 1  # delta(E(1,2)) = E(2,1)
    with pytest.raises(ValueError) as exc:
        LinearAction(mat2, action)
    assert str(exc.value) == "Leibniz rule fails on (E(1,1), E(1,2))"
