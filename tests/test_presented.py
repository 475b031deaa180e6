"""Presented conformal algebras: tables, coefficients, identity checks."""

import pathlib
from fractions import Fraction

import pytest

from confal import (
    DOp,
    associativity_report,
    check_associativity,
    coeff_assoc_check,
    cur_matrix,
    cur_matrix_presented,
    is_conformal_identity,
    left_annihilator_probe,
    PresElem,
    ProductTable,
    PresentedAlgebra,
    weyl_algebra,
)
from confal.dsl import build_all, load_path
from confal.exact_arith import gen_binom
from confal.presented_conformal import CoeffElem, coeff_mul

CUR2P = cur_matrix_presented(2)
WEYL = weyl_algebra()  # order-1 products, so the j > 0 terms of both expansions are nonzero


def test_table_normalizes_and_bounds():
    t = ProductTable(
        ("a", "b"),
        {(0, 0): [{0: DOp.one()}, {}, {0: DOp.zero()}], (0, 1): [{}, {1: DOp.d()}]},
    )
    # trailing zero orders are trimmed; all-zero entries dropped
    assert (0, 0) in t.entries and len(t.entries[(0, 0)]) == 1
    assert t.order_bound == 1
    assert t.lookup(0, 1, 1) == {1: DOp.d()}
    assert t.lookup(1, 1, 0) == {}


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        ProductTable(("a", "a"), {})


@pytest.mark.parametrize("entries", [
    {(0, 0): ({1: DOp.one()},)},
    {(3, 7): ({0: DOp.one()},)},
    {(0, -1): ({0: DOp.one()},)},
    {(0, 0): ({}, {"a": DOp.one()})},
])
def test_table_rejects_unknown_symbols(entries):
    with pytest.raises(ValueError):
        ProductTable(["a"], entries)


def test_table_rejects_values_that_are_not_dops():
    with pytest.raises(TypeError):
        ProductTable(["a"], {(0, 0): ({0: 1},)})
    with pytest.raises(TypeError):
        ProductTable(["a"], {(0, 0): ({0: Fraction(1, 2)},)})


def test_presented_matches_differential_current_algebra():
    diff = cur_matrix(2)
    names = [g for g, _ in CUR2P.generator_items()]
    for a in names:
        for b in names:
            for n in range(3):
                lhs = CUR2P.nth(CUR2P.generator(a), CUR2P.generator(b), n)
                rhs = diff.nth(diff.generator(a), diff.generator(b), n)
                # compare coordinates under the generator correspondence
                l = {(k, p): c for (k, p), c in CUR2P.coordinates(lhs).items()}
                r = {
                    (names.index(f"u{i + 1}{j + 1}"), p): c
                    for ((i, j, xp), p), c in diff.coordinates(rhs).items()
                    if xp == 0
                }
                assert l == r, (a, b, n)


def test_eval_product_bilinearity_with_d():
    a, b = CUR2P.generator("u12"), CUR2P.generator("u21")
    da = a.derive()
    assert CUR2P.nth(da, b, 0).is_zero()
    assert CUR2P.nth(da, b, 1) == -CUR2P.nth(a, b, 0)
    # right slot: u (0) (d v) = d (u (0) v) when all higher products vanish
    db = b.derive()
    assert CUR2P.nth(a, db, 0) == CUR2P.nth(a, b, 0).derive()


def test_coeff_mul_reproduces_laurent_current_algebra():
    # in Cur(A): (a t^l)(b t^m) = (ab) t^(l+m)
    names = list(CUR2P.table.gens)
    mat_mul = {
        ("u11", "u11"): "u11", ("u11", "u12"): "u12",
        ("u12", "u21"): "u11", ("u12", "u22"): "u12",
        ("u21", "u11"): "u21", ("u21", "u12"): "u22",
        ("u22", "u21"): "u21", ("u22", "u22"): "u22",
    }
    for l in (-2, 0, 1, 3):
        for m in (-1, 0, 2):
            for a in names:
                for b in names:
                    x = CoeffElem(CUR2P, {(names.index(a), l): Fraction(1)})
                    y = CoeffElem(CUR2P, {(names.index(b), m): Fraction(1)})
                    prod = coeff_mul(x, y)
                    if (a, b) in mat_mul:
                        want = {(names.index(mat_mul[(a, b)]), l + m): Fraction(1)}
                    else:
                        want = {}
                    assert prod.coords == want, (a, b, l, m)


def test_coeff_assoc_window():
    rep = coeff_assoc_check(CUR2P, window=1)
    assert rep.ok and rep.checked > 0


def _symbols(alg, window):
    return [
        CoeffElem(alg, {(i, k): 1})
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]


@pytest.mark.parametrize(
    "alg, window, expected",
    [(CUR2P, 0, 56), (CUR2P, 1, 648), (cur_matrix_presented(3), 1, 3213)],
    ids=["0", "1", "cur3p-1"],
)
def test_coeff_assoc_forms_each_pair_product_once(monkeypatch, alg, window, expected):
    # n^2 pair products b c, then x c and a x once per distinct pair value x
    import confal.presented_conformal as pc

    symbols = _symbols(alg, window)
    n = len(symbols)
    distinct = {frozenset(coeff_mul(b, c).coords.items()) for b in symbols for c in symbols}
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return coeff_mul(x, y)

    monkeypatch.setattr(pc, "coeff_mul", counted)
    rep = coeff_assoc_check(alg, window=window)
    assert rep.ok and rep.checked == n**3
    assert calls == n**2 + 2 * len(distinct) * n == expected


def test_coeff_assoc_rejects_negative_window():
    with pytest.raises(ValueError, match="nonnegative"):
        coeff_assoc_check(CUR2P, window=-1)


def test_coeff_elem_hash_agrees_with_eq():
    x = CoeffElem(CUR2P, {(0, 1): 3, (2, -1): Fraction(1, 2)})
    y = CoeffElem._make(CUR2P, {(2, -1): Fraction(1, 2), (0, 1): Fraction(3)})
    assert x == y and hash(x) == hash(y)
    assert len({x, y, x + CoeffElem(CUR2P, {})}) == 1
    assert CoeffElem(CUR2P, {}) == CoeffElem(CUR2P, {(0, 0): 0})
    assert hash(CoeffElem(CUR2P, {})) == hash(CoeffElem(CUR2P, {(0, 0): 0}))
    assert x != x.scale(2) and x != CoeffElem(cur_matrix_presented(3), x.coords)
    # a second build of the same presentation is the same algebra
    twin = CoeffElem(cur_matrix_presented(2), x.coords)
    assert x == twin and hash(x) == hash(twin)


# -- reference: the law checks' triple loops as written, every product formed in place -------


def reference_coeff_assoc(alg, window):
    """(ok, checked, failures) of coefficient associativity, each side formed per triple."""
    symbols = _symbols(alg, window)
    names = [
        f"({alg.table.gens[i]},{k})"
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]
    checked = 0
    for ia, a in enumerate(symbols):
        for ib, b in enumerate(symbols):
            for ic, c in enumerate(symbols):
                checked += 1
                if coeff_mul(coeff_mul(a, b), c) != coeff_mul(a, coeff_mul(b, c)):
                    return False, checked, [
                        f"coefficient associativity fails at {names[ia]}, {names[ib]}, {names[ic]}"
                    ]
    return True, checked, []


def reference_associativity(alg, max_m, max_n):
    """(ok, checked, failures) of both expansions, every n-th product formed in place."""
    gens = alg.generator_items()
    checked = 0
    for a, u in gens:
        for b, v in gens:
            for c, w in gens:
                label = f"({a},{b},{c})"
                for m in range(max_m + 1):
                    for n in range(max_n + 1):
                        lhs = alg.nth(u, alg.nth(v, w, n), m)
                        rhs = alg.zero_elem()
                        for j in range(m + 1):
                            rhs = rhs + alg.nth(alg.nth(u, v, j), w, m + n - j) * gen_binom(m, j)
                        checked += 1
                        if lhs != rhs:
                            return False, checked, [f"left-expansion failure at {label}, m={m}, n={n}"]
                        lhs = alg.nth(alg.nth(u, v, m), w, n)
                        rhs = alg.zero_elem()
                        for j in range(m + 1):
                            c = gen_binom(m, j) * (-1) ** j
                            rhs = rhs + alg.nth(u, alg.nth(v, w, n + j), m - j) * c
                        checked += 1
                        if lhs != rhs:
                            return False, checked, [f"right-expansion failure at {label}, m={m}, n={n}"]
    return True, checked, []


# v (0) v = v is associative on its own; u (0) u = u, u (1) u = u is not (see
# test_known_fail_table_breaks_associativity).  v comes first, so the first
# failing triple is not the first triple.
NONASSOC = PresentedAlgebra(
    ProductTable(
        ("v", "u"),
        {(0, 0): [{0: DOp.one()}], (1, 1): [{1: DOp.one()}, {1: DOp.one()}]},
    )
)


# first fails at window 1 on ((a,-1), (c,-1), (b,-1)): symbol indices 0, 6 and 3 of 9,
# inside the row of its (a, b) pair
MIDROW = PresentedAlgebra(
    ProductTable(
        ("a", "b", "c"),
        {(0, 2): [{0: DOp.d()}], (1, 1): [{}, {0: DOp.one()}],
         (1, 2): [{}, {0: DOp.one()}], (2, 1): [{}, {2: DOp.one()}]},
    )
)


def _summary(rep):
    return rep.ok, rep.checked, rep.failures


@pytest.mark.parametrize("alg", [CUR2P, NONASSOC, MIDROW], ids=["cur2p", "nonassoc", "midrow"])
@pytest.mark.parametrize("window", [0, 1, 2])
def test_coeff_assoc_matches_reference(alg, window):
    want = reference_coeff_assoc(alg, window)
    assert _summary(coeff_assoc_check(alg, window)) == want
    if alg is NONASSOC and window > 0:  # at window 0, (u,0) (u,0) = (u,0) is associative
        assert not want[0] and want[1] > 1
    if alg is MIDROW and window == 1:  # checked counts the 6 x 9 + 3 + 1 triples up to it
        assert want == (False, 58, [
            "coefficient associativity fails at (a,-1), (c,-1), (b,-1)"])


@pytest.mark.parametrize("alg", [CUR2P, WEYL, NONASSOC], ids=["cur2p", "weyl", "nonassoc"])
@pytest.mark.parametrize("orders", [(0, 0), (1, 2), (2, 2), (3, 1)])
def test_associativity_report_matches_reference(alg, orders):
    want = reference_associativity(alg, *orders)
    assert _summary(associativity_report(alg, *orders)) == want
    if alg is NONASSOC and orders[0] > 0:
        assert not want[0] and want[1] > 2 * (orders[0] + 1) * (orders[1] + 1)


def test_associativity_report_forms_32_products_per_triple(product_seam):
    # at (2, 2): 5 v (k) w, 3 u (j) v, 12 u (i) (v (k) w) and 12 (u (j) v) (k) w
    alg = cur_matrix_presented(2)
    u, v, w = (g for _, g in alg.generator_items()[:3])
    rep = associativity_report(alg, 2, 2, triples=[("(u11,u12,u21)", (u, v, w))])
    assert rep.ok and rep.checked == 18
    assert len(product_seam.orders) == 32


def test_identity_in_presented_current_algebra():
    names = list(CUR2P.table.gens)
    one = PresElem(CUR2P, {names.index("u11"): DOp.one(), names.index("u22"): DOp.one()})
    rep = is_conformal_identity(one)
    assert rep.ok and rep.self_locality == 0
    # f_1 - d f_r with r = E12 (r^2 = 0) is a second conformal identity
    shifted = one - CUR2P.generator("u12").derive()
    assert is_conformal_identity(shifted).ok
    # a single matrix unit is not an identity
    assert not is_conformal_identity(CUR2P.generator("u11")).ok


def test_known_fail_table_breaks_associativity():
    # u (0) u = u and u (1) u = u cannot be associative: the m=1, n=0
    # expansion forces u (1) u = 0.
    t = ProductTable(("u",), {(0, 0): [{0: DOp.one()}, {0: DOp.one()}]})
    rep = check_associativity(PresentedAlgebra(t), 2, 2)
    assert not rep.ok
    assert any("m=1" in f and "n=0" in f for f in rep.failures)


def test_left_annihilator_trivial_when_unital():
    # unital instances have no left annihilators in the probed space
    assert left_annihilator_probe(CUR2P) == []


def test_left_annihilator_found_when_a_generator_acts_by_zero():
    # a has every product zero, so a, d*a and d^2*a annihilate from the left
    alg = build_all(
        "algebra p { kind presented; generators a, b; products { b (0) b = b; } }")["p"]
    found = left_annihilator_probe(alg, 2)
    a = alg.generator("a")
    assert found == [alg.apply_dop_power(a, p) for p in range(3)]
    for u in found:
        for _, g in alg.generator_items():
            for n in range(alg.locality_scan_bound(u, g) + 1):
                assert alg.nth(u, g, n).is_zero()


def test_pres_elem_linear_structure():
    a, b = CUR2P.generator("u12"), CUR2P.generator("u21")
    u = a * Fraction(2, 3) + b.apply_dop(DOp.d(2))
    assert CUR2P.coordinates(u) == {
        (1, 0): Fraction(2, 3),
        (2, 2): Fraction(1),
    }
    assert (u - u).is_zero()


# -- phi_products: the shared default -----------------------------------------------------

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
BUNDLED = [alg for path in sorted(INSTANCES.glob("*.confal"))
           for alg in load_path(str(path)).values() if isinstance(alg, PresentedAlgebra)]


@pytest.mark.parametrize("alg", BUNDLED, ids=lambda a: a.name)
def test_phi_products_match_one_product_per_exponent(alg):
    assert [a.name for a in BUNDLED] == ["cur2p"]
    gens = [g for _, g in alg.generator_items()]
    first, last = gens[0], gens[-1]
    lefts = [alg.phi(last, 1), alg.model_mul(alg.phi(first, -1), alg.phi(last, 2))]
    rights = [first, last, first.derive() * 2 + last, alg.apply_dop_power(last, 2)]
    ks = (2, -2, 0, 1, -1)
    for a in lefts:
        for v in rights:
            phis = {k: alg.phi(v, k) for k in ks}
            assert alg.phi_products(a, v, phis) == [alg.model_mul(a, alg.phi(v, k)) for k in ks]
