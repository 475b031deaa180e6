"""Presented conformal algebras: tables, coefficients, identity checks."""

from fractions import Fraction

import pytest

from confal import (
    DOp,
    check_associativity,
    coeff_assoc_check,
    cur_matrix,
    cur_matrix_presented,
    is_conformal_identity,
    left_annihilator_probe,
    PresElem,
    ProductTable,
    PresentedAlgebra,
)
from confal.presented_conformal import CoeffElem, coeff_mul

CUR2P = cur_matrix_presented(2)


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


@pytest.mark.parametrize("window", [0, 1])
def test_coeff_assoc_forms_each_pair_product_once(monkeypatch, window):
    # per triple (a, b, c): (a b) c and a (b c); per pair: a b and the b c table
    import confal.presented_conformal as pc

    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return coeff_mul(x, y)

    monkeypatch.setattr(pc, "coeff_mul", counted)
    rep = coeff_assoc_check(CUR2P, window=window)
    n = len(CUR2P.table.gens) * (2 * window + 1)
    assert rep.ok and rep.checked == n**3
    assert calls == 2 * n**3 + 2 * n**2


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
    rep = check_associativity(t, 2, 2)
    assert not rep.ok
    assert any("m=1" in f and "n=0" in f for f in rep.failures)


def test_left_annihilator_trivial_when_unital():
    # unital instances have no left annihilators in the probed space
    assert left_annihilator_probe(CUR2P) == []


def test_pres_elem_linear_structure():
    a, b = CUR2P.generator("u12"), CUR2P.generator("u21")
    u = a * Fraction(2, 3) + b.apply_dop(DOp.d(2))
    assert CUR2P.coordinates(u) == {
        (1, 0): Fraction(2, 3),
        (2, 2): Fraction(1),
    }
    assert (u - u).is_zero()
