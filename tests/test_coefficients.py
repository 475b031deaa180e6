"""The coefficient layer: normal-form coefficients, memoised locality sums, their cost."""

import pathlib
import random
from fractions import Fraction

import pytest
from test_diff_conformal import cend2

from confal import (
    ALL_ZERO,
    DifferentialAlgebra,
    FinDim,
    MatPoly,
    MatPolyRing,
    Poly,
    ScaledDdx,
    SkewLaurent,
    ad_derivation,
    coefficient_locality_report,
    cur_dual_numbers,
    cur_matrix,
    cur_matrix_presented,
    poly_zero,
    weyl_algebra,
)
from confal import cli, presented_conformal, products
from confal.axioms import CheckReport, locality_combinations
from confal.dsl import load_path
from confal.exact_arith import add_scaled, falling_factorial, gen_binom

WEYL = weyl_algebra()
CUR2 = cur_matrix(2)
CUR2P = cur_matrix_presented(2)
ALGEBRAS = [WEYL, CUR2, CUR2P]


def _elements(alg):
    """The generators plus d-power combinations, so the normal form sees p > 0."""
    gens = [g for _, g in alg.generator_items()]
    mixed = alg.apply_dop_power(gens[0], 2) + gens[-1].derive() * 3
    return gens + [mixed, gens[-1] + alg.apply_dop_power(gens[0], 1)]


# -- second route: coefficients built one basis element at a time -----------------------------


def reference_coefficient(alg, u, k):
    """(d^p f_a)(k) = (-1)^p k(k-1)...(k-p+1) a t^(k-p), summed value by value."""
    base = alg.base
    acc: dict = {}
    for key, q in u.terms.items():
        for p, c in q.coeffs.items():
            f = c * falling_factorial(k, p) * (-1) ** p
            if f == 0:
                continue
            contrib = base.basis_element(key) * f
            acc[k - p] = acc[k - p] + contrib if k - p in acc else contrib
    return SkewLaurent(alg.ore, acc)


@pytest.mark.parametrize("alg", [WEYL, CUR2], ids=lambda a: a.name)
def test_coefficient_matches_reference(alg):
    for u in _elements(alg):
        for k in range(-3, 4):
            assert alg.coefficient(u, k) == reference_coefficient(alg, u, k), (u, k)


def test_presented_phi_normal_form():
    u11 = CUR2P.generator("u11")
    u = CUR2P.apply_dop_power(u11, 2) + CUR2P.generator("u12")
    # d^2 u11 at k: k(k-1) (u11, k-2); u12 at k: (u12, k)
    assert CUR2P.phi(u, 3).coords == {(0, 1): 6, (1, 3): 1}
    assert CUR2P.phi(u, 1).coords == {(1, 1): 1}


@pytest.mark.parametrize("make", [weyl_algebra, lambda: cur_matrix_presented(2)],
                         ids=["weyl", "cur2p"])
def test_coefficients_of_two_builds_are_equal_and_add(make):
    first, second = make(), make()
    assert first is not second and first == second
    for (_, g), (_, h) in zip(first.generator_items(), second.generator_items()):
        for k in (-1, 0, 2):
            a, b = first.phi(g, k), second.phi(h, k)
            assert a == b and b == a
            assert a + b == a.scale(2) and b + a == a.scale(2)
            assert first.model_mul(a, b) == second.model_mul(b, a)


# -- the memoised combinations against the unmemoised locality_coeff_sum ----------------------


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_memoised_combinations_match_locality_coeff_sum(alg):
    # every order from 0, so the compared values include nonzero ones
    for u in _elements(alg)[:3]:
        for v in _elements(alg)[1:]:
            combination = locality_combinations(alg, u, v)
            for n in range(4):
                for l in range(-2, 3):
                    for m in range(-2, 3):
                        direct = alg.model_coords(alg.locality_coeff_sum(u, v, n, l, m))
                        assert combination(n, l, m) == direct, (u, v, n, l, m)


def test_locality_coeff_sum_rejects_negative_order():
    for alg in ALGEBRAS:
        g = alg.generator_items()[0][1]
        with pytest.raises(ValueError):
            alg.locality_coeff_sum(g, g, -1, 0, 0)
    with pytest.raises(ValueError):
        WEYL.oracle(WEYL.generator("e"), WEYL.generator("L"), -1, 0)


# -- cost: model products per generator pair, independent of machine speed --------------------


def _product_bound(alg, window, extra, power):
    total = 0
    for _, u in alg.generator_items():
        for _, v in alg.generator_items():
            deg = alg.locality(u, v)
            n_top = (0 if deg is ALL_ZERO else deg + 1) + extra - 1
            total += (2 * window + 1 + n_top) ** power
    return total


def _count_model_products(alg, monkeypatch) -> list:
    """A list that gains one entry per model multiplication from now on."""
    calls = []
    if alg is CUR2P:
        orig = presented_conformal.coeff_mul

        def counted(x, y):
            calls.append(1)
            return orig(x, y)

        monkeypatch.setattr(presented_conformal, "coeff_mul", counted)
    else:
        orig = SkewLaurent.__mul__

        def counted(self, other):
            calls.append(1)
            return orig(self, other)

        monkeypatch.setattr(SkewLaurent, "__mul__", counted)
    return calls


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_model_products_bounded_per_pair(alg, monkeypatch):
    # the presented model forms at most (2w+1+n_top)^2 model products per
    # generator pair, where forming each (n, l, m) sum afresh costs
    # (n+1)(2w+1)^2 per order; d-free differential generators right-shift, so
    # one combination per (n, l) costs at most 2w+1+n_top per pair
    calls = _count_model_products(alg, monkeypatch)
    window, extra = 2, 3
    rep = coefficient_locality_report(alg, window, extra_orders=extra)
    assert rep.ok
    assert rep.checked == len(alg.generator_items()) ** 2 * extra * (2 * window + 1) ** 2
    power = 2 if alg is CUR2P else 1
    assert 0 < len(calls) <= _product_bound(alg, window, extra, power), (alg.name, len(calls))


def test_weyl_wide_window_skew_products(monkeypatch):
    # one skew product per pair and left index a in [-6 - n_top, 6]: n_top is
    # 3, 4, 3, 4 on (e,e), (e,L), (L,e), (L,L), so 16 + 17 + 16 + 17; a memo
    # of every u(a) v(b) over the full (n, l, m) loop forms 1 026
    calls = _count_model_products(WEYL, monkeypatch)
    rep = coefficient_locality_report(WEYL, 6, extra_orders=3)
    assert rep.ok and rep.checked == 4 * 3 * 13 * 13
    assert len(calls) == 66


def test_coefficient_locality_rejects_negative_extra_orders():
    with pytest.raises(ValueError, match="nonnegative"):
        coefficient_locality_report(CUR2, 1, extra_orders=-1)


# -- the shifted report against the full (n, l, m) loop --------------------------------------


def _pairwise_combinations(alg, u, v):
    """(n, l, m) -> the combination's coordinates, each u(a) v(b) formed on its own."""
    products: dict = {}

    def product(a, b):
        if (a, b) not in products:
            x, y = alg.phi(u, a), alg.phi(v, b)
            zero = x.is_zero() or y.is_zero()
            products[(a, b)] = {} if zero else alg.model_coords(alg.model_mul(x, y))
        return products[(a, b)]

    def combination(n, l, m):
        acc: dict = {}
        for j in range(n + 1):
            add_scaled(acc, product(l - j, m + j), (-1) ** j * gen_binom(n, j))
        return acc

    return combination


def _reference_coefficient_locality(alg, window, extra_orders, combos):
    """The report as a loop over every (n, l, m), with no shift.

    `combos` keeps each pair's combinations across calls on the same algebra.
    """
    rep = CheckReport("coefficient-locality")
    gens = alg.generator_items()
    for aname, u in gens:
        for bname, v in gens:
            deg = alg.locality(u, v)
            start = 0 if deg is ALL_ZERO else deg + 1
            rep.details[f"N({aname},{bname})"] = repr(deg)
            if (aname, bname) not in combos:
                combos[(aname, bname)] = _pairwise_combinations(alg, u, v)
            combination = combos[(aname, bname)]
            for n in range(start, start + extra_orders):
                for l in range(-window, window + 1):
                    for m in range(-window, window + 1):
                        rep.checked += 1
                        if combination(n, l, m):
                            rep.fail(
                                f"coefficient combination nonzero at ({aname},{bname}), "
                                f"n={n}, l={l}, m={m}"
                            )
                            return rep
    return rep


INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
REPORT_CASES = [alg for path in sorted(INSTANCES.glob("*.confal"))
                for alg in load_path(str(path)).values()]
REPORT_CASES += [cur_matrix(3), cur_matrix_presented(3), cend2()]


@pytest.mark.parametrize("alg", REPORT_CASES, ids=lambda a: a.name)
def test_report_matches_full_loop(alg):
    assert len(REPORT_CASES) == 8
    combos: dict = {}
    for window in range(4):
        for extra in range(4):
            rep = coefficient_locality_report(alg, window, extra_orders=extra)
            ref = _reference_coefficient_locality(alg, window, extra, combos)
            assert rep.to_json_dict() == ref.to_json_dict(), (window, extra)


@pytest.mark.parametrize("last_pair_only", [False, True], ids=["every-pair", "last-pair"])
@pytest.mark.parametrize("alg", [weyl_algebra(), cur_matrix_presented(2)], ids=lambda a: a.name)
def test_report_failure_matches_full_loop(alg, last_pair_only, monkeypatch):
    # a degree one too low puts the true top order in the checked range; on
    # the last pair alone, every other pair is checked in full before it fails
    true_degree = alg.locality
    last = alg.generator_items()[-1][1]

    def one_less(u, v):
        deg = true_degree(u, v)
        if deg is ALL_ZERO or (last_pair_only and not u == v == last):
            return deg
        return deg - 1

    monkeypatch.setattr(alg, "locality", one_less)
    for window in range(1, 4):
        rep = coefficient_locality_report(alg, window, extra_orders=2)
        ref = _reference_coefficient_locality(alg, window, 2, {})
        assert not ref.ok
        assert rep.to_json_dict() == ref.to_json_dict(), window


# -- which right factors shift -----------------------------------------------------------------


def test_right_shifts_only_d_free_differential_elements():
    for alg in (WEYL, CUR2, cend2()):
        for u in _elements(alg):
            assert alg.right_shifts(u) is (u.max_dop_degree() == 0), u
        assert alg.right_shifts(alg.generator_items()[0][1])
        assert not alg.right_shifts(alg.generator_items()[0][1].derive())
    for u in _elements(CUR2P):
        assert CUR2P.right_shifts(u) is False, u


# -- the oracle against the loop it replaced ---------------------------------------------------


def _zero_started_sum(alg, u, v, n, l, m):
    """sum_j (-1)^j C(n, j) u(l-j) v(m+j), each product scaled after it is formed."""
    acc = alg.phi(alg.zero_elem(), 0)
    for j in range(n + 1):
        c = -gen_binom(n, j) if j % 2 else gen_binom(n, j)
        acc = acc + alg.model_mul(alg.phi(u, l - j), alg.phi(v, m + j)).scale(c)
    return acc


def _seeded_elements(alg, seed):
    """Four combinations of two generators each, under d-powers up to 2."""
    rng = random.Random(seed)
    gens = [g for _, g in alg.generator_items()]
    out = []
    for _ in range(4):
        u = alg.zero_elem()
        for g in rng.sample(gens, 2):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            u = u + alg.apply_dop_power(g, rng.randint(0, 2)) * c
        out.append(u)
    return out


def twisted_cend2() -> DifferentialAlgebra:
    """CEnd_2 under delta = d/dx + ad(E(1,2)): delta moves the matrix units themselves."""
    base = MatPolyRing(2, "x")
    gens = {f"u{i + 1}{j + 1}": MatPoly.unit(2, i, j) for i in range(2) for j in range(2)}
    gens["L"] = MatPoly.identity(2) * Poly.variable()
    return DifferentialAlgebra(base, ScaledDdx(base, MatPoly.unit(2, 0, 1)), gens, name="cend2tw")


def upper_triangular_ad() -> DifferentialAlgebra:
    """The 2x2 upper-triangular matrices on e11, e12, e22 with delta = ad(e12), delta^2 = 0."""
    z = (0, 0, 0)
    table = [[(1, 0, 0), (0, 1, 0), z], [z, z, (0, 1, 0)], [z, z, (0, 0, 1)]]
    base = FinDim(table, ("e11", "e12", "e22"))
    gens = {name: base.basis_element(i) for i, name in enumerate(base.names)}
    return DifferentialAlgebra(base, ad_derivation(base, base.basis_element(1)), gens,
                               name="upper")


@pytest.mark.parametrize("seed, make", [(0, weyl_algebra), (1, cur_matrix), (2, cur_dual_numbers),
                                        (3, poly_zero), (4, cur_matrix_presented),
                                        (5, twisted_cend2), (6, upper_triangular_ad)],
                         ids=["weyl", "cur2", "cureps", "polyzero", "cur2p", "cend2tw", "upper"])
def test_locality_coeff_sum_matches_the_zero_started_loop(seed, make):
    # the presented model's loop scales the left factor and the differential
    # model sums integer weights on each a * delta^i(b): neither changes a value
    # or a repr, though an integral scalar may come out as an int on one side
    # and as a Fraction on the other
    alg = make()
    elems = _seeded_elements(alg, seed)
    nonzero = 0
    for u in elems:
        for v in elems:
            for n in range(4):
                for l in range(-3, 4):
                    for m in range(-3, 4):
                        got = alg.locality_coeff_sum(u, v, n, l, m)
                        want = _zero_started_sum(alg, u, v, n, l, m)
                        assert got == want and repr(got) == repr(want), (u, v, n, l, m)
                        nonzero += not got.is_zero()
    assert nonzero


@pytest.mark.parametrize("make", [weyl_algebra, cend2], ids=["weyl", "cend2"])
def test_the_oracle_reads_nothing_of_the_product_engine(make, monkeypatch):
    # the oracle is the second route: with the engine's range function and
    # base case refusing every call, it still returns the skew-product loop's
    # values, and it fills none of the engine's tables
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the product engine")

    monkeypatch.setattr(products, "nth_products_terms", refuse)
    monkeypatch.setattr(DifferentialAlgebra, "_base_case", refuse)
    alg = make()
    elems = [g for _, g in alg.generator_items()] + _seeded_elements(alg, 7)
    for u in elems:
        for v in elems:
            for n in range(4):
                for l in range(-2, 3):
                    for m in range(-2, 3):
                        got = alg.locality_coeff_sum(u, v, n, l, m)
                        assert got == _zero_started_sum(alg, u, v, n, l, m), (u, v, n, l, m)
    assert alg._base_cases == {} and alg._orbits == {}


def test_oracle_forms_each_base_product_once(monkeypatch, capsys):
    # over cur2's matrix units delta is zero, so only the order-0 sums carry a
    # nonzero weight: the oracle forms no skew product, and a product of
    # matrix units that vanishes is never scaled
    counts = {"matpoly": 0, "skew": 0}
    for cls, name in ((MatPoly, "matpoly"), (SkewLaurent, "skew")):
        def counted(self, other, orig=cls.__mul__, name=name):
            counts[name] += 1
            return orig(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
    path = str(INSTANCES / "cur2.confal")
    assert cli.main(["oracle", path, "--max-order", "2", "--window", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert counts == {"matpoly": 98, "skew": 0}
