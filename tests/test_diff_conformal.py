"""Differential conformal algebras: products, coefficients, the oracle."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confal import (
    ALL_ZERO,
    BoundExceeded,
    ConfElem,
    DOp,
    DifferentialAlgebra,
    FinDim,
    LinearAction,
    MatPoly,
    MatPolyRing,
    OreRing,
    Poly,
    PolyRing,
    ScaledDdx,
    conformal_axioms_report,
    cur_dual_numbers,
    cur_matrix,
    cur_matrix_presented,
    dong_check,
    enumerate_span,
    nilpotency_index,
    ore_skew,
    weyl_algebra,
)
from confal.dsl import load_path

WEYL = weyl_algebra()
CUR2 = cur_matrix(2)


def weyl_elems():
    dop = st.dictionaries(
        st.integers(min_value=0, max_value=2),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        max_size=2,
    ).map(DOp)
    return st.dictionaries(
        st.integers(min_value=0, max_value=3), dop, max_size=3
    ).map(lambda t: type(WEYL.zero_elem())(WEYL, t))


# -- frozen product values ------------------------------------------------------------------


def test_weyl_product_table():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    f = WEYL.primitive
    x = Poly.variable()
    assert WEYL.nth(e, e, 0) == f(Poly.one())
    assert WEYL.nth(e, L, 0) == f(x)
    assert WEYL.nth(L, e, 0) == f(x)
    assert WEYL.nth(e, L, 1) == -f(Poly.one())
    assert WEYL.nth(L, e, 1).is_zero()  # asymmetry: L (1) e = 0
    assert WEYL.nth(L, L, 0) == f(Poly.monomial(2))
    assert WEYL.nth(L, L, 1) == -f(x)
    assert WEYL.nth(L, L, 2).is_zero()


def test_weyl_localities():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    assert WEYL.locality(e, e) == 0
    assert WEYL.locality(e, L) == 1
    assert WEYL.locality(L, e) == 0
    assert WEYL.locality(L, L) == 1
    assert WEYL.locality(e, WEYL.zero_elem()) is ALL_ZERO


def test_locality_scans_down_from_the_bound(monkeypatch):
    alg = weyl_algebra()
    u = alg.apply_dop_power(alg.generator("e"), 256)
    orders = []
    nth = alg.nth
    monkeypatch.setattr(alg, "nth", lambda a, b, n: orders.append(n) or nth(a, b, n))
    assert alg.locality(u, u) == 512
    assert orders == [513, 512]  # the scan bound, then the first nonzero order


def test_derive_shifts_products():
    # (d u) (n) v = -n * u (n-1) v, and (d u) (0) v = 0.
    e, L = WEYL.generator("e"), WEYL.generator("L")
    de = e.derive()
    assert WEYL.nth(de, L, 0).is_zero()
    assert WEYL.nth(de, L, 1) == -WEYL.nth(e, L, 0)
    assert WEYL.nth(de, L, 2) == WEYL.nth(e, L, 1) * -2
    # frozen: (d f_1) (1) f_x = -f_x
    assert WEYL.nth(de, L, 1) == -WEYL.primitive(Poly.variable())


def test_coefficient_map():
    # (f_1)(k) = t^k; (d f_a)(k) = -k a t^(k-1).
    e = WEYL.generator("e")
    L = WEYL.generator("L")
    assert WEYL.coefficient(e, 3) == WEYL.ore.t(3)
    assert WEYL.coefficient(e, 0) == WEYL.ore.one()
    de = L.derive()
    assert WEYL.coefficient(de, 2) == WEYL.ore.monomial(
        Poly.monomial(1, -2), 1
    )


def test_oracle_frozen_value():
    # e (1) L = -e, so its k-th coefficient is -t^k; the brute-force sum
    # must agree at every k.
    e, L = WEYL.generator("e"), WEYL.generator("L")
    for k in range(-4, 5):
        val = WEYL.oracle(e, L, 1, k)
        assert val == WEYL.ore.t(k).scale(-1)
        assert val == WEYL.coefficient(WEYL.nth(e, L, 1), k)


@settings(max_examples=25, deadline=None)
@given(weyl_elems(), weyl_elems(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_oracle_agreement_random(u, v, n, k):
    assert WEYL.coefficient(WEYL.nth(u, v, n), k) == WEYL.oracle(u, v, n, k)


@settings(max_examples=25, deadline=None)
@given(weyl_elems(), weyl_elems(), st.integers(min_value=0, max_value=3))
def test_partial_leibniz_random(u, v, n):
    # d(u (n) v) = (d u) (n) v + u (n) (d v)
    lhs = WEYL.nth(u, v, n).derive()
    rhs = WEYL.nth(u.derive(), v, n) + WEYL.nth(u, v.derive(), n)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(weyl_elems(), weyl_elems(), st.integers(min_value=1, max_value=3))
def test_left_derive_lowers_order(u, v, n):
    # (d u) (n) v = -n * (u (n-1) v); at n = 0 the product vanishes.
    du = u.derive()
    assert WEYL.nth(du, v, n) == WEYL.nth(u, v, n - 1) * -n
    assert WEYL.nth(du, v, 0).is_zero()


@settings(max_examples=12, deadline=None)
@given(weyl_elems(), weyl_elems())
def test_coefficient_locality_past_degree(u, v):
    # For n > N(u, v) the defining alternating coefficient sum vanishes.
    deg = WEYL.locality(u, v)
    if deg is ALL_ZERO:
        deg = -1
    for n in (deg + 1, deg + 2):
        for l in (0, 1, n):
            for m in (-1, 0, 2):
                assert WEYL.locality_coeff_sum(u, v, n, l, m).is_zero()


def test_associativity_both_expansions_agree():
    # u (m) (v (n) w) expanded two ways over generator triples.
    from confal import associativity_report

    rep = WEYL
    for alg in (WEYL, CUR2):
        r = associativity_report(alg, 3, 3)
        assert r.ok, r.failures


def test_dong_sweep():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    rep = dong_check(e, L, L, max_order=3)
    assert rep.ok and rep.degrees["u,v"] == 1 and rep.witness is None
    rep = dong_check(L, e, L, max_order=2)
    for n in range(3):
        p = WEYL.nth(L, e, n)
        assert rep.degrees[f"(u {n} v),w"] == WEYL.locality(p, L)
        assert rep.degrees[f"w,(u {n} v)"] == WEYL.locality(L, p)
    assert rep.degrees["(u 1 v),w"] is ALL_ZERO  # L (1) e = 0
    u12, u21 = CUR2.generator("u12"), CUR2.generator("u21")
    assert dong_check(u12, u21, u12, max_order=2).ok


def test_dong_check_forms_each_product_once(monkeypatch, product_seam):
    # dong_check forms u (n) v for n <= max_order itself; every other product
    # is formed inside locality, whose products the seam forgets
    alg = weyl_algebra()
    e, L = alg.generator("e"), alg.generator("L")
    direct = product_seam.orders
    locality = alg.locality

    def nested_locality(a, b):
        start = len(direct)
        try:
            return locality(a, b)
        finally:
            del direct[start:]

    monkeypatch.setattr(alg, "locality", nested_locality)
    for triple in ((e, L, L), (L, L, L), (L, e, L)):
        for max_order in (1, 2, 3):
            direct.clear()
            rep = dong_check(*triple, max_order=max_order)
            assert direct == list(range(max_order + 1))
            assert rep.ok and rep.witness is None


def test_dong_check_rejects_negative_order():
    e, L = WEYL.generator("e"), WEYL.generator("L")
    with pytest.raises(ValueError, match="nonnegative"):
        dong_check(e, L, L, max_order=-1)


def test_cur2_products_are_order_zero_only():
    u11, u12, u21 = (CUR2.generator(g) for g in ("u11", "u12", "u21"))
    assert CUR2.nth(u12, u21, 0) == u11
    assert CUR2.nth(u12, u21, 1).is_zero()
    assert CUR2.nth(u12, u12, 0).is_zero()
    assert CUR2.locality(u12, u21) == 0
    assert CUR2.locality(u12, u12) is ALL_ZERO


def test_all_zero_singleton():
    import confal.products as dc

    assert dc._AllZero() is ALL_ZERO
    assert repr(ALL_ZERO) == "AllZero"
    assert ALL_ZERO != 0


def test_model_mul_matches_skew_ring():
    # phi is multiplicative into A[t, t^-1; delta]: phi(u (n) v, l + m - n - ...)
    # is checked elsewhere; here multiply two images directly.
    e, L = WEYL.generator("e"), WEYL.generator("L")
    a = WEYL.phi(L, 2)
    b = WEYL.phi(e, -1)
    prod = WEYL.model_mul(a, b)
    assert prod == a * b


def test_negative_order_rejected():
    e = WEYL.generator("e")
    with pytest.raises(ValueError):
        WEYL.nth(e, e, -1)


def test_generator_values_are_base_elements():
    # an element of another algebra would keep that algebra's products
    base = PolyRing("x")
    for foreign in (WEYL.generator("L"), cur_matrix_presented(2).generator("u11")):
        with pytest.raises(ValueError):
            DifferentialAlgebra(base, ScaledDdx(base), {"g": foreign})
    alg = DifferentialAlgebra(base, ScaledDdx(base), {"g": Poly.variable()})
    assert alg.generator("g").alg is alg


def test_one_element_class_for_both_models():
    import confal

    assert confal.ConfElem is confal.PresElem
    assert type(WEYL.zero_elem()) is type(cur_matrix_presented(2).zero_elem())


# -- the delta-orbit: one iteration, one cap, one walk per basis key ---------------------------


def test_high_order_product_is_zero_without_recursion():
    alg = weyl_algebra()
    L = alg.generator("L")
    assert alg.nth(L, L, 1100).is_zero()


def test_one_nilpotency_cap(monkeypatch):
    base = PolyRing("x")
    delta = ScaledDdx(base)  # built under the default cap; the cap is read at call time
    x3 = Poly.monomial(3)
    ring = OreRing(base, delta)
    alg = DifferentialAlgebra(base, delta, {"g": x3})
    g = alg.generator("g")
    monkeypatch.setattr(ore_skew, "NILPOTENCY_BOUND", 3)
    messages = []
    for attempt in (
        lambda: nilpotency_index(delta, x3),
        lambda: ring.t(-1) * ring.monomial(x3, 0),
        lambda: alg.nth(g, g, 0),
    ):
        with pytest.raises(BoundExceeded) as err:
            attempt()
        messages.append(str(err.value))
    assert len(set(messages)) == 1, messages


class CountingDdx(ScaledDdx):
    applied = 0

    def _apply(self, a):
        self.applied += 1
        return super()._apply(a)


def test_locality_walks_each_orbit_once():
    base = PolyRing("x")
    delta = CountingDdx(base)
    alg = DifferentialAlgebra(base, delta, {"e": Poly.one(), "L": Poly.monomial(3)})
    e, L = alg.generator("e"), alg.generator("L")
    u, v = L + e.derive(), L.derive() + e
    delta.applied = 0
    first = alg.locality(u, v)
    once = delta.applied
    assert once > 0
    assert alg.locality(u, v) == first
    assert delta.applied == once


def test_axioms_report_forms_each_product_once(product_seam):
    alg = weyl_algebra()
    L = alg.generator("L")
    u = alg.apply_dop_power(L, 3)
    rep = conformal_axioms_report(alg, [("(d^3 L, L)", (u, L))])
    assert rep.ok
    scan = alg.locality_scan_bound(u, L)
    assert rep.checked == 2 * (scan + 2)
    assert product_seam.orders == 3 * list(range(scan + 2))


# -- the coefficient window: one skew product shifted across it ------------------------------

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
BUNDLED = [alg for path in sorted(INSTANCES.glob("*.confal"))
           for alg in load_path(str(path)).values() if isinstance(alg, DifferentialAlgebra)]


def phi_products_cases(alg):
    """(a, v) pairs: coefficients a against a d-free generator and two elements with d-powers."""
    gens = [g for _, g in alg.generator_items()]
    first, last = gens[0], gens[-1]
    lefts = [alg.phi(last, 1), alg.model_mul(alg.phi(first, -1), alg.phi(last, 2))]
    rights = [first, last, first.derive() * 2 + last, alg.apply_dop_power(last, 2)]
    assert rights[0].max_dop_degree() == 0 and rights[2].max_dop_degree() == 1
    return [(a, v) for a in lefts for v in rights]


@pytest.mark.parametrize("alg", BUNDLED, ids=lambda a: a.name)
def test_phi_products_match_one_product_per_exponent(alg):
    assert {a.name for a in BUNDLED} == {"weyl", "cur2", "cureps", "polyzero"}
    ks = (2, -2, 0, 1, -1)
    for a, v in phi_products_cases(alg):
        phis = {k: alg.phi(v, k) for k in ks}
        assert alg.phi_products(a, v, phis) == [alg.model_mul(a, alg.phi(v, k)) for k in ks]


def cend2() -> DifferentialAlgebra:
    """CEnd_2 = (Mat_2(Q[x]), d/dx) with the matrix units and x times the unit."""
    base = MatPolyRing(2, "x")
    gens = {f"u{i + 1}{j + 1}": MatPoly.unit(2, i, j) for i in range(2) for j in range(2)}
    gens["L"] = MatPoly.identity(2) * Poly.variable()
    return DifferentialAlgebra(base, ScaledDdx(base), gens, name="cend2")


def divided_powers() -> DifferentialAlgebra:
    """Q[x]/(x^4) on the basis x^i/i!, so b_i b_j = C(i+j, i) b_(i+j), with
    delta(x) = x^2/6: delta(b1) = b2/3, and b1 * delta(b1) = b3 is integral
    only after a Fraction product."""
    from math import comb

    table = [[[comb(i + j, i) if k == i + j else 0 for k in range(4)] for j in range(4)]
             for i in range(4)]
    base = FinDim(table, names=("1", "x", "x2", "x3"))
    delta = LinearAction(base, [[0, 0, 0, 0], [0, 0, 0, 0], [0, Fraction(1, 3), 0, 0],
                                [0, 0, 1, 0]])
    return DifferentialAlgebra(base, delta, {"u": base.basis_element(0),
                                             "g": base.basis_element(1)}, name="dp3")


@pytest.mark.parametrize("make", [weyl_algebra, cur_matrix, cur_dual_numbers, cend2,
                                  divided_powers],
                         ids=["weyl", "cur2", "cureps", "cend2", "dp3"])
def test_base_cases_stay_canonical(make):
    # against the DOp.const formula, on every key a word of length <= 3 reaches
    alg = make()
    base = alg.base
    keys = sorted({key for e in enumerate_span(alg, 3).entries for key in e.elem.terms})
    for a in keys:
        for b in keys:
            orbit = alg.delta.orbit(base.basis_element(b))
            for m, db in enumerate(orbit):
                sign = -1 if m % 2 else 1
                want = {key: DOp.const(sign * c)
                        for key, c in base.decompose(base.basis_element(a) * db).items()}
                got = alg._base_case(a, m, b)
                assert got == want
                for q in got.values():
                    for c in q.coeffs.values():
                        assert type(c) is int or c.denominator != 1


def _perturbed(seam, alg, extra):
    """Add extra(a, b, n) to every true product a (n) b that alg forms."""
    seam.alter = lambda a, b, n, terms: (
        ConfElem(alg, terms) + extra(ConfElem(alg, a), ConfElem(alg, b), n)).terms
    return alg


def test_axioms_report_catches_a_wrong_left_derivative_law(product_seam):
    alg = weyl_algebra()
    L = alg.generator("L")
    _perturbed(product_seam, alg, lambda a, b, n: b if n == 1 else alg.zero_elem())
    rep = conformal_axioms_report(alg, [("(L,L)", (L, L))])
    assert not rep.ok and rep.checked == 3
    assert rep.failures == ["(d u)(1) v != -n u(0) v at pair (L,L)"]


def test_axioms_report_catches_a_wrong_leibniz_law(product_seam):
    # a constant added to L (0) _ keeps (d L)(0) _ = 0 but breaks Leibniz at n = 0
    alg = weyl_algebra()
    e, L = alg.generator("e"), alg.generator("L")
    _perturbed(product_seam, alg, lambda a, b, n: e if n == 0 and a == L else alg.zero_elem())
    rep = conformal_axioms_report(alg, [("(L,L)", (L, L))])
    assert not rep.ok and rep.checked == 2
    assert rep.failures == ["d(u (0) v) != (d u)(0) v + u (0) (d v) at pair (L,L)"]


def test_identity_report_rejects_self_locality_above_one():
    from confal import build_all, identity_report

    alg = build_all("algebra sq { kind differential; base poly x; deriv d/dx;"
                    " generators { q = x^2; } }")["sq"]
    q = alg.generator("q")
    assert alg.locality(q, q) == 2
    rep = identity_report(alg, q)
    assert not rep.ok and rep.self_locality == 2 and not rep.exactly_one
    assert "self-locality degree 2 exceeds 1" in rep.failures


def test_identity_report_rejects_the_zero_element():
    from confal import identity_report

    alg = weyl_algebra()
    rep = identity_report(alg, alg.zero_elem())
    assert not rep.ok and rep.self_locality is ALL_ZERO
    assert rep.failures == ["e (0) e != e", "e (0) L != L", "the zero element is not an identity"]


def test_phi0_coords_match_the_zeroth_coefficient():
    # the body before it read phi0_base: the coefficient at k = 0, all of it at t^0
    def reference(alg, u):
        c0 = alg.coefficient(u, 0)
        assert set(c0.coeffs) <= {0}
        return alg.base.decompose(c0.coeffs.get(0, alg.base.zero()))

    for alg in (weyl_algebra(), cur_matrix(2)):
        gens = [g for _, g in alg.generator_items()]
        elems = [alg.zero_elem(), *gens, gens[0].derive() * 3 + gens[-1],
                 alg.apply_dop_power(gens[-1], 2), alg.nth(gens[-1], gens[0], 0)]
        for u in elems:
            assert alg.phi0_coords(u) == reference(alg, u)
        assert any(alg.phi0_coords(u) for u in elems)
