"""The coefficient layer: normal-form coefficients, memoised locality sums, their cost."""

import pytest

from confal import (
    ALL_ZERO,
    SkewLaurent,
    coefficient_locality_report,
    cur_matrix,
    cur_matrix_presented,
    weyl_algebra,
)
from confal import presented_conformal
from confal.axioms import locality_combinations
from confal.exact_arith import falling_factorial

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


def _product_bound(alg, window, extra):
    total = 0
    for _, u in alg.generator_items():
        for _, v in alg.generator_items():
            deg = alg.locality(u, v)
            n_top = (0 if deg is ALL_ZERO else deg + 1) + extra - 1
            total += (2 * window + 1 + n_top) ** 2
    return total


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_model_products_bounded_per_pair(alg, monkeypatch):
    # at most (2w+1+n_top)^2 model multiplications per generator pair; forming
    # each (n, l, m) sum afresh costs (n+1)(2w+1)^2 per order instead
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
    window, extra = 2, 3
    rep = coefficient_locality_report(alg, window, extra_orders=extra)
    assert rep.ok
    assert rep.checked == len(alg.generator_items()) ** 2 * extra * (2 * window + 1) ** 2
    assert 0 < len(calls) <= _product_bound(alg, window, extra), (alg.name, len(calls))


def test_coefficient_locality_rejects_negative_extra_orders():
    with pytest.raises(ValueError, match="nonnegative"):
        coefficient_locality_report(CUR2, 1, extra_orders=-1)
