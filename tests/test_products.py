"""The shared core: closed-form right slot, a second route, its cost, one model base."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from confal import (
    DifferentialAlgebra,
    PresentedAlgebra,
    cur_matrix_presented,
    poly_zero,
    weyl_algebra,
)
from confal.axioms import associativity_report
from confal.exact_arith import DOp
from confal.instances import INSTANCES
from confal.products import BASE_CASE_CAP, ConformalAlgebra, nth_product_terms, terms_clean
from confal.structure import recognize_unital

WEYL = weyl_algebra()
POLYZERO = poly_zero()
CUR2P = cur_matrix_presented(2)


# -- reference: the right slot expanded one power of d at a time -------------------------


def _terms_add_scaled(dst: dict, src: dict, c) -> None:
    for k, q in src.items():
        dst[k] = dst[k] + q * c if k in dst else q * c


def _symbol_dpow(ak, m: int, bk, j: int, base_case) -> dict:
    """f_a (m) (d^j f_b) by u (m) (d v) = d(u (m) v) + m (u (m-1) v)."""
    if j == 0:
        return base_case(ak, m, bk)
    out = {k: q.times_d() for k, q in _symbol_dpow(ak, m, bk, j - 1, base_case).items()}
    if m > 0:
        _terms_add_scaled(out, _symbol_dpow(ak, m - 1, bk, j - 1, base_case), Fraction(m))
    return terms_clean(out)


def reference_nth(u_terms: dict, v_terms: dict, n: int, base_case) -> dict:
    out: dict = {}
    for ak, p in u_terms.items():
        for i, ci in p.coeffs.items():
            if i > n:
                continue
            left = ci * Fraction((-1) ** i)
            for t in range(i):
                left *= n - t
            for bk, q in v_terms.items():
                for j, cj in q.coeffs.items():
                    _terms_add_scaled(out, _symbol_dpow(ak, n - i, bk, j, base_case), left * cj)
    return terms_clean(out)


class CountingBaseCase:
    """Wraps a base case and records the (a, m, b) of every call."""

    def __init__(self, base_case):
        self.base_case = base_case
        self.keys: list = []

    @property
    def calls(self) -> int:
        return len(self.keys)

    def __call__(self, a, m, b):
        self.keys.append((a, m, b))
        return self.base_case(a, m, b)


def _gens(alg):
    return [g for _, g in alg.generator_items()]


def _mixed(alg):
    """A two-generator combination with d in both terms."""
    g = _gens(alg)
    return alg.apply_dop_power(g[0], 2) + alg.apply_dop_power(g[-1], 1) * 3


# -- the closed form against the one-power-at-a-time expansion ---------------------------


def _rational(alg, rng, powers):
    """Each generator at the given d-powers, with seeded non-integral coefficients."""
    out = alg.zero_elem()
    for g in _gens(alg):
        for p in powers:
            c = Fraction(2 * rng.randint(-4, 4) + 1, rng.choice((2, 4, 6)))
            out = out + alg.apply_dop_power(g, p) * c
    return out


@pytest.mark.parametrize("alg", [WEYL, POLYZERO, CUR2P], ids=lambda a: a.name)
def test_closed_form_matches_recursion(alg):
    rng = random.Random(alg.name)
    lefts = _gens(alg) + [_mixed(alg), _rational(alg, rng, (0, 3, 8))]
    rights = _gens(alg) + [_mixed(alg), _rational(alg, rng, (0,))]
    for u in lefts:
        for v in rights:
            for j in range(9):
                dv = alg.apply_dop_power(v, j)
                for n in range(7):
                    got = nth_product_terms(u.terms, dv.terms, n, alg._base_case)
                    want = reference_nth(u.terms, dv.terms, n, alg._base_case)
                    assert got == want, (alg.name, u, v, j, n)
                    for q in got.values():
                        for c in q.coeffs.values():
                            # an int exactly when integral
                            assert type(c) is int or c.denominator != 1, (alg.name, c)


def test_integral_results_are_ints():
    L = WEYL.generator("L")
    # (1/2 L) (1) (2 L) = -L: the coefficient 1/2 * 2 comes out as the int -1
    got = nth_product_terms((L * Fraction(1, 2)).terms, (L * 2).terms, 1, WEYL._base_case)
    (q,) = got.values()
    assert q.coeffs == {0: -1} and type(q.coeffs[0]) is int


def test_negative_order_rejected():
    L = WEYL.generator("L")
    with pytest.raises(ValueError):
        nth_product_terms(L.terms, L.terms, -1, WEYL._base_case)


# -- second route: the coefficient oracle at high d-powers -------------------------------


def test_weyl_high_powers_match_oracle():
    L = WEYL.generator("L")
    for j in range(21):
        v = WEYL.apply_dop_power(L, j)
        for n in sorted({0, 1, j // 2, j, j + 1, j + 2}):
            p = WEYL.nth(L, v, n)
            for k in range(-3, 4):
                direct = WEYL.phi(p, k)
                brute = WEYL.locality_coeff_sum(L, v, n, n, k)
                assert (direct - brute).is_zero(), (j, n, k)


# -- cost: base cases per product, independent of machine speed --------------------------


def _dpowers(alg, u, j):
    """(1 + d + ... + d^j) u: every d-power up to j on the same symbols."""
    out = u
    for p in range(1, j + 1):
        out = out + alg.apply_dop_power(u, p)
    return out


@pytest.mark.parametrize("alg", [WEYL, POLYZERO, CUR2P], ids=lambda a: a.name)
def test_base_case_calls_bounded_by_order(alg):
    # at most n+1 calls per pair of basis symbols, however many d-powers
    # each side carries
    for u in _gens(alg):
        for v in _gens(alg):
            for i, j in ((0, 0), (0, 1), (2, 8), (3, 20)):
                du, dv = _dpowers(alg, u, i), _dpowers(alg, v, j)
                for n in (0, 1, 3, 6, 20):
                    counter = CountingBaseCase(alg._base_case)
                    nth_product_terms(du.terms, dv.terms, n, counter)
                    pairs = len(du.terms) * len(dv.terms)
                    assert counter.calls <= (n + 1) * pairs, (alg.name, i, j, n, counter.calls)


def test_recursion_cost_is_exponential_in_the_power():
    # the same product through the reference costs 2^j base cases: the bound
    # above is what the closed form gains
    L = WEYL.generator("L")
    v = WEYL.apply_dop_power(L, 12)
    closed, recursive = CountingBaseCase(WEYL._base_case), CountingBaseCase(WEYL._base_case)
    assert nth_product_terms(L.terms, v.terms, 12, closed) == reference_nth(
        L.terms, v.terms, 12, recursive
    )
    assert closed.calls <= 13
    assert recursive.calls == 2 ** 12


# -- cost: each algebra's lasting base-case table -----------------------------------------


def _count_base_cases(alg) -> CountingBaseCase:
    """Route the algebra's own products through a counter."""
    alg._base_case = CountingBaseCase(alg._base_case)
    return alg._base_case


@pytest.mark.parametrize("make", [weyl_algebra, poly_zero, cur_matrix_presented],
                         ids=lambda f: f.__name__)
def test_a_repeated_product_calls_no_base_case(make):
    alg = make()
    calls = _count_base_cases(alg)
    u = _gens(alg)[0] + _mixed(alg)
    v = alg.apply_dop_power(u, 4)
    for n in (0, 3, 6):
        first = alg.nth(u, v, n)
        assert calls.keys, (alg.name, n)
        calls.keys.clear()
        assert alg.nth(u, v, n) == first
        assert calls.keys == [], (alg.name, n)


def _full_weyl():
    """A Weyl algebra whose table was pushed past the cap by a recognition."""
    alg = weyl_algebra()
    assert recognize_unital(alg, word_bound=40).dim == 41
    assert len(alg._base_cases) == BASE_CASE_CAP
    return alg


def test_table_stops_at_the_cap():
    alg = _full_weyl()
    held = dict(alg._base_cases)
    recognize_unital(alg, word_bound=40)
    assert alg._base_cases == held


def test_full_table_products_match_reference():
    alg = _full_weyl()
    base_case = alg._base_case
    calls = _count_base_cases(alg)
    e, L = alg.generator("e"), alg.generator("L")
    far = L
    for _ in range(45):
        far = alg.nth(far, L, 0)  # f_{x^46}: its base cases lie outside the table
    rng = random.Random(29)
    elems = [e, L, far, _mixed(alg), _rational(alg, rng, (0, 3)) + far * Fraction(1, 3)]
    missed = 0
    for u in elems:
        for v in elems:
            for j in (0, 1, 6):
                dv = alg.apply_dop_power(v, j)
                for n in (0, 1, 4, 9):
                    calls.keys.clear()
                    got = alg.nth(u, dv, n).terms
                    assert got == reference_nth(u.terms, dv.terms, n, base_case), (u, v, j, n)
                    counts = Counter(calls.keys)
                    assert max(counts.values(), default=0) <= 1, (u, v, j, n)
                    assert not counts.keys() & alg._base_cases.keys()
                    missed += len(counts)
    assert missed
    assert len(alg._base_cases) == BASE_CASE_CAP


def _reports(alg, bound: int) -> dict:
    """Locality matrices on the generators and on their d^bound images, and associativity."""
    gens = alg.generator_items()
    out = {"associativity": associativity_report(alg, bound, bound).to_json_dict()}
    for p in (0, bound):
        out[f"locality d^{p}"] = {
            (a, b): repr(alg.locality(alg.apply_dop_power(u, p), v))
            for a, u in gens for b, v in gens
        }
    return out


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_warm_table_changes_no_report(name):
    warm = INSTANCES[name]()
    _reports(warm, 3)
    if name == "weyl":
        recognize_unital(warm, word_bound=40)  # full: later misses live for one product
    assert warm._base_cases
    assert _reports(warm, 2) == _reports(INSTANCES[name](), 2)


# -- cost: rational products per product, counted on the coefficients ---------------------


class CountingFraction(Fraction):
    """A Fraction that counts the products it takes part in (their results are plain Fractions)."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return Fraction.__rmul__(self, other)


def _counted_terms(key, powers: dict) -> dict:
    return {key: DOp({p: CountingFraction(num, den) for p, (num, den) in powers.items()})}


def _count_products(u_terms, v_terms, n, base_case):
    CountingFraction.products = 0
    out = nth_product_terms(u_terms, v_terms, n, base_case)
    return out, CountingFraction.products


def test_vanishing_base_cases_cost_no_rational_products():
    u = _counted_terms("a", {0: (1, 2), 2: (1, 3)})
    v = _counted_terms("b", {0: (1, 5), 3: (2, 7)})
    for n in range(6):
        out, products = _count_products(u, v, n, lambda a, m, b: {})
        assert out == {} and products == 0, (n, products)


def test_one_contributing_base_case_forms_one_product():
    unit = DOp({0: 1})

    def base_case(a, m, b):
        # only a (1) b is nonzero
        return {"c": unit} if m == 1 else {}

    u = _counted_terms("a", {0: (1, 2)})
    v = _counted_terms("b", {3: (2, 7)})
    for n in range(1, 5):
        # the one term pair meets orders n, n-1, ..., max(n-3, 0): order 1 among them
        out, products = _count_products(u, v, n, base_case)
        assert out == reference_nth(u, v, n, base_case), n
        assert products == 1, (n, products)


SHARED = ("apply_dop_power", "is_zero", "generator", "generator_items", "zero_elem",
          "coordinates", "format_elem", "nth", "locality", "locality_coeff_sum")


@pytest.mark.parametrize("model", [DifferentialAlgebra, PresentedAlgebra])
def test_models_inherit_the_shared_operations(model):
    # a name bound in the model's own namespace must be the base's function
    for name in SHARED:
        assert getattr(model, name) is getattr(ConformalAlgebra, name), name

