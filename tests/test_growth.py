"""Growth functions: monomial spans, ranks over Q[d], degree detection."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confal import (
    DOp,
    DifferentialAlgebra,
    Poly,
    PolyRing,
    ResourceBound,
    ScaledDdx,
    coeff_growth_check,
    cur_dual_numbers,
    cur_matrix,
    cur_matrix_presented,
    detect_degree,
    enumerate_span,
    growth_table,
    module_rank,
    poly_zero,
    weyl_algebra,
)
from confal import growth
from confal.growth import GrowthReport, difference_table, generator_order_bound, monomial_cap
from confal.linalg import RowSpace
from confal.ore_skew import SkewLaurent
from test_diff_conformal import cend2
from test_dsl_cli import INSTANCES

WEYL = weyl_algebra()
CUR2 = cur_matrix(2)


def _weylx():
    """The Weyl generators plus f = 3/2 x^2 - 5/4 x^3, whose orders reach N = 3."""
    base = PolyRing("x")
    f = Poly({2: Fraction(3, 2), 3: Fraction(-5, 4)})
    gens = {"e": base.one(), "L": Poly.variable(), "f": f}
    return DifferentialAlgebra(base, ScaledDdx(base), gens, name="weylx")


# -- frozen growth values --------------------------------------------------------------------


def test_weyl_growth_is_linear():
    rep = growth_table(WEYL, 8)
    assert rep.gamma == [2, 3, 4, 5, 6, 7, 8, 9]
    assert rep.degree == 1
    assert rep.order_bound == 1


def test_cur2_growth_is_constant():
    rep = growth_table(CUR2, 6)
    assert rep.gamma == [4, 4, 4, 4, 4, 4]
    assert rep.degree == 0
    assert rep.order_bound == 0


def test_dual_numbers_growth():
    rep = growth_table(cur_dual_numbers(), 4)
    assert rep.gamma == [2, 2, 2, 2]
    assert rep.degree == 0


def test_gamma_nondecreasing_invariant():
    for alg in (WEYL, CUR2, cur_dual_numbers(), poly_zero()):
        rep = growth_table(alg, 5)
        diffs = difference_table(rep.gamma, 1)[1]
        assert all(d >= 0 for d in diffs), (alg.name, rep.gamma)


def test_empty_generator_set():
    base = PolyRing("x")
    empty = DifferentialAlgebra(base, ScaledDdx(base), {}, name="empty")
    assert growth_table(empty, 3).gamma == [0, 0, 0]


# -- invariance properties ---------------------------------------------------------------------


def test_degree_invariant_under_redundant_generator():
    # add M = x^2, already reachable as L (0) L: detected degree is
    # unchanged and gamma'(r) <= gamma(2 r).
    base = PolyRing("x")
    fat = DifferentialAlgebra(
        base,
        ScaledDdx(base),
        {"e": base.one(), "L": Poly.variable(), "M": Poly.monomial(2)},
        name="weyl+",
    )
    slim_rep = growth_table(WEYL, 8)
    fat_rep = growth_table(fat, 4)
    assert fat_rep.degree == slim_rep.degree == 1
    for r in range(1, 5):
        assert fat_rep.gamma[r - 1] <= slim_rep.gamma[2 * r - 1]


def test_subalgebra_growth_monotone():
    base = PolyRing("x")
    sub = DifferentialAlgebra(base, ScaledDdx(base), {"e": base.one()}, name="sub")
    sub_rep = growth_table(sub, 6)
    full_rep = growth_table(WEYL, 6)
    for a, b in zip(sub_rep.gamma, full_rep.gamma):
        assert a <= b


def test_span_entries_respect_order_bound():
    span = enumerate_span(WEYL, 4)
    assert span.order_bound == generator_order_bound(WEYL) == 1
    for entry in span.entries:
        assert not entry.elem.is_zero()
        assert all(n <= span.order_bound for n in entry.orders)
        assert entry.length == len(entry.word)


def test_over_order_monomials_vanish():
    # orders above the pairwise locality bound evaluate to zero
    rng = random.Random(7)
    gens = [g for _, g in WEYL.generator_items()]
    bound = generator_order_bound(WEYL)
    for _ in range(25):
        u, v = rng.choice(gens), rng.choice(gens)
        cur = WEYL.nth(u, v, rng.randint(bound + 1, bound + 3))
        assert cur.is_zero()


# -- rank computation ---------------------------------------------------------------------------


def test_module_rank_values():
    one, d = DOp.one(), DOp.d()
    assert module_rank([]) == 0
    assert module_rank([{0: one}]) == 1
    # d * e is a Q[d]-multiple of e: rank stays 1
    assert module_rank([{0: one}, {0: d}]) == 1
    assert module_rank([{0: one}, {1: one}, {0: one, 1: one}]) == 2
    # d-scaled second coordinate is independent of the plain first
    assert module_rank([{0: one, 1: d}, {0: one, 1: one}]) == 2


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_module_rank_order_independent(rnd):
    vectors = [
        {0: DOp.one()},
        {0: DOp.d(), 1: DOp.one()},
        {1: DOp.d(2)},
        {0: DOp.one() + DOp.d(), 1: DOp.one() + DOp.d(2)},
        {2: DOp.const(3)},
    ]
    baseline = module_rank(vectors)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert module_rank(shuffled) == baseline


# -- degree detection --------------------------------------------------------------------------


def test_detect_degree_classes():
    assert detect_degree([2, 3, 4, 5, 6, 7]) == 1
    assert detect_degree([4, 4, 4, 4]) == 0
    assert detect_degree([1, 4, 9, 16, 25, 36, 49]) == 2
    assert detect_degree([2, 4, 8, 16, 32, 64]) == "exponential"
    assert detect_degree([1, 2]) == "inconclusive"
    assert detect_degree([5, 1, 5, 1, 5, 1]) == "inconclusive"


def test_difference_table():
    assert difference_table([1, 4, 9, 16], 2) == [[1, 4, 9, 16], [3, 5, 7], [2, 2]]


# -- resource bounds --------------------------------------------------------------------------


def test_resource_bound_and_env_override(monkeypatch):
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", "10")
    with pytest.raises(ResourceBound):
        enumerate_span(WEYL, 6)
    assert monomial_cap() == 10
    with pytest.raises(ResourceBound):
        growth_table(WEYL, 6)
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", "not-a-number")
    with pytest.raises(ValueError):
        monomial_cap()


def test_coefficient_walk_has_its_own_cap(monkeypatch):
    # growth_table(weyl, 3) passes from a cap of 14, coeff_growth_check from 102
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", "50")
    assert growth_table(WEYL, 3).gamma == [2, 3, 4]
    with pytest.raises(ResourceBound, match="cap of 50"):
        coeff_growth_check(WEYL, (-1, 1), 3)


@pytest.mark.parametrize("cap", [-5, 0])
def test_nonpositive_monomial_cap_is_rejected(monkeypatch, cap):
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", str(cap))
    with pytest.raises(ValueError, match="monomial cap"):
        monomial_cap()
    with pytest.raises(ValueError, match="monomial cap"):
        growth_table(WEYL, 2)
    with pytest.raises(ValueError, match="monomial cap"):
        enumerate_span(WEYL, 2)
    with pytest.raises(ValueError, match="monomial cap"):
        coeff_growth_check(WEYL, (0, 0), 2)


# -- coefficient growth -----------------------------------------------------------------------


def test_coeff_growth_bound_holds_on_weyl():
    rep = coeff_growth_check(WEYL, (-1, 1), 4)
    assert rep.coeff_dims is not None and len(rep.coeff_dims) == 4
    assert all(rep.bound_ok)
    # dims strictly increase for the Weyl instance
    assert all(a < b for a, b in zip(rep.coeff_dims, rep.coeff_dims[1:]))


@pytest.mark.parametrize("make", [weyl_algebra, cur_dual_numbers, lambda: cur_matrix(2)],
                         ids=["weyl", "cureps", "cur2"])
def test_coeff_growth_report_is_built_from_what_it_measured(make):
    alg = make()
    rep = coeff_growth_check(alg, (-1, 2), 3)
    table = growth_table(alg, 3)
    assert rep == GrowthReport(table.algebra, table.order_bound, table.gamma, (-1, 2),
                               rep.coeff_dims)
    assert rep.to_json_dict() == GrowthReport(
        table.algebra, table.order_bound, table.gamma, (-1, 2), rep.coeff_dims).to_json_dict()
    # every field but the window, the dims and the bounds is the growth table's
    for field in ("algebra", "r_max", "order_bound", "gamma", "degree", "slope"):
        assert getattr(rep, field) == getattr(table, field), field
    assert table.window is table.coeff_dims is table.bound_ok_literal is None


def test_growth_report_bounds_follow_the_window():
    rep = GrowthReport("a", 0, [1, 2, 4], (-1, 1), [3, 6, 13])
    assert rep.r_max == 3 and rep.degree == "exponential"
    assert rep.bound_rhs == [3, 12, 36] and rep.bound_ok == [True, True, True]
    assert rep.bound_rhs_literal == [2, 8, 24] and rep.bound_ok_literal == [False, True, True]


def test_coeff_growth_window_must_contain_zero():
    with pytest.raises(ValueError):
        coeff_growth_check(WEYL, (1, 3), 3)


class _TrackedRowSpace(RowSpace):
    """Reference span: tracked whatever the caller asks, so every add keeps its combination."""

    made: list = []

    def __init__(self, track=True):
        super().__init__(track=True)
        self.made.append(self)


UNTRACKED_CASES = [*INSTANCES.values(), lambda: cur_matrix(3), cend2]


@pytest.mark.parametrize("window", [(-1, 1), (-2, 2)])
@pytest.mark.parametrize("make", UNTRACKED_CASES, ids=[*INSTANCES, "cur3", "cend2"])
def test_untagged_coeff_dims_match_a_tagged_span(monkeypatch, make, window):
    # coeff_growth_check's untracked span against the same walk in a tracked one
    dims = coeff_growth_check(make(), window, 4).coeff_dims
    monkeypatch.setattr(growth, "RowSpace", _TrackedRowSpace)
    monkeypatch.setattr(_TrackedRowSpace, "made", [])
    assert coeff_growth_check(make(), window, 4).coeff_dims == dims
    (space,) = _TrackedRowSpace.made
    assert space.dim == dims[-1] and all(combo is not None for *_, combo in space._rows)


def test_csv_shape():
    rep = coeff_growth_check(CUR2, (-1, 1), 3)
    lines = rep.csv_text().strip().splitlines()
    assert lines[0] == "r,gamma,delta1,delta2,coeff_dim,bound_rhs,bound_ok"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4"


def _full_layer_coeff_dims(alg, window, r_max):
    """dim(V^1 + ... + V^r) multiplying every independent product of the last
    layer by V, with no pruning against the lower powers: a reference."""
    total, vees = RowSpace(track=False), []
    for _, g in alg.generator_items():
        for k in range(window[0], window[1] + 1):
            val = alg.phi(g, k)
            if not val.is_zero() and total.add(alg.model_coords(val)):
                vees.append(val)
    dims, layer = [total.dim], vees
    for _ in range(2, r_max + 1):
        layer_space, nxt = RowSpace(track=False), []
        for a in layer:
            for b in vees:
                p = alg.model_mul(a, b)
                if p.is_zero():
                    continue
                coords = alg.model_coords(p)
                if layer_space.add(coords):
                    nxt.append(p)
                total.add(coords)
        dims.append(total.dim)
        layer = nxt
    return dims


@pytest.mark.parametrize("alg, window, r_max", [
    (WEYL, (-2, 2), 5),
    (_weylx(), (-1, 1), 3),
    (CUR2, (-1, 1), 4),
    (cur_matrix_presented(2), (-1, 1), 4),
], ids=["weyl", "weylx", "cur2", "cur2p"])
def test_coeff_dims_match_the_full_layer_loop(alg, window, r_max):
    rep = coeff_growth_check(alg, window, r_max)
    assert rep.coeff_dims == _full_layer_coeff_dims(alg, window, r_max)


def test_coeff_growth_forms_one_skew_product_per_kept_word_and_generator(monkeypatch):
    # phi(g, k) = phi(g, 0) t^k for a d-free generator g, so a * phi(g, 0) is
    # formed once and shifted across the window
    alg = weyl_algebra()
    calls = [0]
    mul = SkewLaurent.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(SkewLaurent, "__mul__", counted)
    rep = coeff_growth_check(alg, (-2, 2), 5)
    kept = rep.coeff_dims[-2]  # words of length < 5 that raised the dimension
    assert calls[0] <= kept * len(alg.generator_items())
    assert (calls[0], kept) == (182, 91)  # one product per kept word per seed: 910


def test_growth_extends_only_rank_raising_words(monkeypatch, product_seam):
    # outside the locality scans, a table to length r forms exactly the
    # products of the gamma(r - 1) kept words with every generator and order
    alg, r = _weylx(), 7
    formed, locality = product_seam.orders, alg.locality

    def uncounted_locality(*args):
        start = len(formed)
        try:
            return locality(*args)
        finally:
            del formed[start:]

    monkeypatch.setattr(alg, "locality", uncounted_locality)
    bound = generator_order_bound(alg)
    gamma = growth_table(alg, r).gamma
    assert gamma == [3, 7, 10, 13, 16, 19, 22] and bound == 3
    assert len(formed) == gamma[r - 2] * len(alg.generator_items()) * (bound + 1)
