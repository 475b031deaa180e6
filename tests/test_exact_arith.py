"""Scalar, polynomial, and matrix arithmetic: exactness and ring axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confal import DOp, MatPoly, Poly, rat, ratio
from confal.exact_arith import falling_factorial, gen_binom

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)

# every form rat and ratio accept: ints, bools, Fractions and "p/q" strings
scalar_inputs = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.booleans(),
    rationals,
    st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
)


def is_canonical(c) -> bool:
    """An int exactly when integral, otherwise a Fraction whose denominator is not 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def polys(max_degree=4):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_degree), rationals, max_size=4
    ).map(Poly)


def dops(max_degree=3):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_degree), rationals, max_size=3
    ).map(DOp)


def matpolys(n=2):
    return st.lists(
        st.lists(polys(max_degree=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(MatPoly)


# -- scalars --------------------------------------------------------------------------


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("-2/3") == Fraction(-2, 3)
    assert rat(Fraction(5, 10)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_always_reduced_positive_denominator():
    v = rat(Fraction(6, -4))
    assert v.denominator > 0 and v.numerator == -3 and v.denominator == 2


@given(scalar_inputs)
def test_rat_is_canonical(value):
    c = rat(value)
    assert is_canonical(c) and c == Fraction(value)


@given(scalar_inputs, scalar_inputs)
def test_ratio_is_canonical(num, den):
    assert is_canonical(ratio(num)) and ratio(num) == Fraction(num)
    if Fraction(den) == 0:
        with pytest.raises(ZeroDivisionError):
            ratio(num, den)
        return
    q = ratio(num, den)
    assert is_canonical(q) and q == Fraction(num) / Fraction(den)


def test_rat_and_ratio_values():
    assert type(rat(Fraction(4, 2))) is int and rat("6/3") == 2 and rat(True) == 1
    assert ratio(6, 3) == 2 and type(ratio(6, 3)) is int
    assert ratio(3, -6) == Fraction(-1, 2)
    assert ratio(Fraction(3, 2), Fraction(3, 4)) == 2
    assert type(ratio(Fraction(3, 2), 3)) is Fraction


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=10))
def test_gen_binom_pascal_rule(n, k):
    assert gen_binom(n, k) == gen_binom(n - 1, k) + gen_binom(n - 1, k - 1)


def test_gen_binom_values():
    assert gen_binom(4, 2) == 6
    assert gen_binom(2, 5) == 0  # vanishes for 0 <= n < k
    assert gen_binom(-1, 3) == -1  # nonzero for every negative upper index
    assert gen_binom(-2, 2) == 3


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(-1, 2) == 2


# -- polynomials --------------------------------------------------------------------------


def test_poly_no_stored_zeros():
    p = Poly({0: 1, 2: Fraction(0)})
    assert p.coeffs == {0: Fraction(1)}
    assert (p - p).coeffs == {}


def test_poly_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({-1: 1})


def test_poly_and_dop_exponents_must_be_integers():
    # int() would read these as x^1 and x^3 and build 2*x^3 + x without a word
    for cls in (Poly, DOp):
        for coeffs in ({1.5: 1, Fraction(7, 2): 2}, {2.0: 1}, {Fraction(3, 2): 1},
                       {Fraction(2): 1}):
            with pytest.raises(TypeError):
                cls(coeffs)
        with pytest.raises(ValueError, match="negative exponent"):
            cls({-2: 1})
        # zero values are dropped before their exponent is read
        assert cls({0.5: 0, Fraction(1, 2): Fraction(0), 2: 3}).coeffs == {2: 3}
        assert cls({True: 1}).coeffs == {1: 1}


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * Poly.one() == p
    assert p + Poly.zero() == p


@settings(max_examples=60)
@given(polys(), polys())
def test_poly_derive_is_a_derivation(p, q):
    assert (p * q).derive() == p.derive() * q + p * q.derive()


def test_poly_divexact():
    p = Poly({2: 1, 1: -3, 0: 2})  # (x-1)(x-2)
    q = Poly({1: 1, 0: -1})
    assert p.divexact(q) == Poly({1: 1, 0: -2})
    with pytest.raises(ArithmeticError):
        Poly({1: 1, 0: 1}).divexact(Poly({1: 1}))


def test_poly_divexact_is_exact_over_q():
    # x^2 - 1 = (2x + 2)(x/2 - 1/2): an integer dividend and divisor, a rational quotient
    quo = Poly({2: 1, 0: -1}).divexact(Poly({1: 2, 0: 2}))
    assert quo == Poly({1: Fraction(1, 2), 0: Fraction(-1, 2)})
    assert all(is_canonical(c) for c in quo.coeffs.values())
    quo = Poly({2: 1, 0: -1}).divexact(Poly({1: 1, 0: 1}))
    assert quo.coeffs == {1: 1, 0: -1} and all(type(c) is int for c in quo.coeffs.values())


def test_poly_equal_objects_hash_equal():
    pairs = [
        (Poly.const(3), 3),
        (Poly.const(Fraction(1, 2)), Fraction(1, 2)),
        (Poly.zero(), 0),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


@given(st.one_of(st.integers(-8, 8), rationals), polys(max_degree=1), dops(max_degree=1))
def test_equal_poly_and_dop_values_hash_equal(c, p, q):
    # constants of Poly and DOp equal their value; equal values must hash equal,
    # or dict lookups miss them
    values = [c, rat(c), Poly.const(c), DOp.const(c), p, Poly(p.coeffs), q]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert {DOp.const(c): 1}.get(c) == 1 and {c: 1}.get(DOp.const(c)) == 1


def test_poly_format():
    assert repr(Poly({3: 2, 1: -1, 0: Fraction(1, 2)})) == "2*x^3 - x + 1/2"
    assert repr(Poly.zero()) == "0"


# -- operator polynomials -----------------------------------------------------------------


@settings(max_examples=60)
@given(dops(), dops(), dops())
def test_dop_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_dop_basic():
    assert DOp.d(0) == DOp.one()
    assert DOp.d(2) * DOp.d(3) == DOp.d(5)
    assert DOp.d().times_d() == DOp.d(2)
    assert DOp.const(0).is_zero()
    assert repr(DOp.d(2) * 3 - 1) == "3*d^2 - 1"


def test_poly_dop_and_matpoly_never_combine():
    # DOp is a Poly in d, but the operators take only their own class or a scalar
    with pytest.raises(TypeError):
        MatPoly.identity(2) * DOp.const(2)
    with pytest.raises(TypeError):
        DOp.const(2) * MatPoly.identity(2)
    with pytest.raises(TypeError):
        MatPoly([[DOp.const(1)]])
    with pytest.raises(TypeError):
        Poly.const(2) + DOp.const(2)
    with pytest.raises(TypeError):
        DOp.d() * Poly.variable()
    assert (Poly.const(2) == DOp.const(2)) is False
    assert hash(DOp.const(3)) == hash(3)
    a, b = DOp({2: 1, 0: -1}), DOp.d() + 1
    results = [a + b, a + 2, 2 + a, a - b, a - 2, 2 - a, -a, a * b, a * 2, 2 * a,
               a.divexact(b), a.times_d()]
    assert all(type(r) is DOp for r in results)


# -- matrices -------------------------------------------------------------------------------


@settings(max_examples=30)
@given(matpolys(), matpolys(), matpolys())
def test_matpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_matpoly_units_multiply_like_matrix_units():
    e12 = MatPoly.unit(2, 0, 1)
    e21 = MatPoly.unit(2, 1, 0)
    assert e12 * e21 == MatPoly.unit(2, 0, 0)
    assert (e12 * e12).is_zero()
    assert e12 * MatPoly.identity(2) == e12


def test_matpoly_derive_and_det():
    x = Poly.variable()
    m = MatPoly([[x * x, Poly.one()], [Poly.zero(), x]])
    assert m.derive() == MatPoly([[2 * x, Poly.zero()], [Poly.zero(), Poly.one()]])
    assert m.det() == x ** 3
    assert MatPoly.identity(3).det() == Poly.one()


def test_matpoly_requires_square():
    with pytest.raises(ValueError):
        MatPoly([[Poly.one(), Poly.zero()]])


def test_matpoly_accepts_int_and_fraction_entries():
    assert MatPoly([[1, 0], [0, 1]]) == MatPoly.identity(2)
    m = MatPoly([[Fraction(1, 2), Poly.variable()], [0, -3]])
    assert m.entry(0, 0) == Fraction(1, 2) and m.entry(1, 1) == -3
    assert repr(m) == "[[1/2, x]; [0, -3]]"


def test_matpoly_left_scalar_and_poly_products_match_the_right_ones():
    m = MatPoly([[Poly({0: 1, 2: -3}), Fraction(1, 3)], [0, Poly.variable()]])
    p = Poly({0: Fraction(-1, 2), 1: 4})
    for c in (2, Fraction(1, 2), 0, p):
        assert c * m == m * c
    assert MatPoly.__rmul__(m, m) is NotImplemented
    assert MatPoly.__rmul__(m, "x") is NotImplemented


def test_matpoly_left_product_is_one_operator_call(monkeypatch):
    # c * M runs __rmul__ alone: it does not call back into __mul__
    m = MatPoly.identity(2)
    mul = MatPoly.__mul__
    calls = []
    monkeypatch.setattr(MatPoly, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    for c in (2, Fraction(1, 2), Poly.variable()):
        c * m
    assert calls == []
    assert {"__mul__", "__rmul__"} <= set(vars(MatPoly))


# -- flat matrices against a nested-rows reference ------------------------------------------


def _ref_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero()
    for j in range(n):
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = rows[0][j] * _ref_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Poly.zero()) for j in range(n)]
            for i in range(n)]


def _ref_repr(rows):
    return "[" + "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in rows) + "]"


def nested_rows(n):
    return st.lists(
        st.lists(polys(max_degree=2), min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(nested_rows(n), nested_rows(n))))
def test_flat_matpoly_matches_nested_reference(pair):
    ra, rb = pair
    a, b = MatPoly(ra), MatPoly(rb)
    n = len(ra)
    assert repr(a) == _ref_repr(ra)
    assert a.rows == tuple(tuple(r) for r in ra)
    assert all(a.entry(i, j) == ra[i][j] for i in range(n) for j in range(n))
    assert a.det() == _ref_det(ra)
    assert (a * b).rows == tuple(tuple(r) for r in _ref_mul(ra, rb))
    assert repr(a * b) == _ref_repr(_ref_mul(ra, rb))
    assert (a + b).rows == tuple(tuple(ra[i][j] + rb[i][j] for j in range(n)) for i in range(n))
    assert a.derive().rows == tuple(tuple(e.derive() for e in r) for r in ra)
    assert (a == b) == (a.rows == b.rows)
    if a == b:
        assert hash(a) == hash(b)


def _random_rows(rng, n, density):
    """n x n Poly rows; each entry is zero with probability 1 - density."""
    def entry():
        if rng.random() >= density:
            return Poly.zero()
        return Poly({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(3)})
    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_matches_the_cofactor_reference():
    # sparse matrices meet zero pivots, so the elimination swaps rows or stops at a
    # zero column
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(1, 6)
        rows = _random_rows(rng, n, rng.choice((0.3, 0.6, 1.0)))
        assert MatPoly(rows).det() == _ref_det(rows)
    assert MatPoly([[0, 1], [1, 0]]).det() == -1
    assert MatPoly([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1
    assert MatPoly([[0, 1], [0, Poly.variable()]]).det().is_zero()


@pytest.mark.parametrize("n", [7, 9, 12])
def test_det_matches_sympy_on_dense_matrices(n):
    pytest.importorskip("sympy")
    from sympy import QQ, symbols
    from sympy.polys.matrices import DomainMatrix

    ring = QQ[symbols("x")]

    def to_sympy(e):
        return ring({(k,): QQ(c.numerator, c.denominator)
                     for k, c in e.coeffs.items()})

    rows = _random_rows(random.Random(n), n, 1.0)
    want = DomainMatrix([[to_sympy(e) for e in r] for r in rows], (n, n), ring).det()
    assert to_sympy(MatPoly(rows).det()) == want


@pytest.mark.parametrize("val, one", [
    (Poly({0: Fraction(-1, 2), 1: 3, 2: 1}), Poly.one()),
    # strictly upper triangular: val^2 != 0 and val^3 == 0
    (MatPoly([[0, Poly.variable(), 1], [0, 0, Poly({2: 1})], [0, 0, 0]]),
     MatPoly.identity(3)),
])
def test_powers_match_repeated_products(val, one):
    expected = one
    for k in range(10):
        got = val ** k
        assert got == expected
        expected = expected * val
    with pytest.raises(ValueError):
        val ** -1
