"""Exact elimination against an independent implementation (sympy).

sympy is a test-only dependency: the library never imports it.  Every
matrix below is drawn from a seeded random.Random, so a failure reproduces.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ, Rational, symbols  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from confal import (  # noqa: E402
    DOp,
    DifferentialAlgebra,
    Poly,
    PolyRing,
    ScaledDdx,
    build_all,
    cur_dual_numbers,
    cur_matrix,
    cur_matrix_presented,
    enumerate_span,
    growth_table,
    module_rank,
    poly_zero,
    weyl_algebra,
)
from confal import growth  # noqa: E402
from confal.exact_arith import _sp_mul, add_scaled  # noqa: E402
from confal.growth import ModuleRank, _zdivexact, _zpoly_vector  # noqa: E402
from confal.linalg import RowSpace, dense_nullspace, dense_rref, dense_solve  # noqa: E402
from test_diff_conformal import cend2  # noqa: E402

D = symbols("d")
QD = QQ.frac_field(D)


def _rand_q(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _is_canonical(c) -> bool:
    """An int exactly when integral, otherwise a Fraction whose denominator is not 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _rand_dop(rng, max_deg):
    return DOp({e: _rand_q(rng) for e in range(rng.randint(0, max_deg) + 1)})


def _dop_to_sympy(q: DOp):
    return QD.convert(sum(Rational(c.numerator, c.denominator) * D**e
                          for e, c in q.coeffs.items()))


def _sympy_module_rank(vectors) -> int:
    rows = [v.terms if hasattr(v, "terms") else v for v in vectors]
    cols = sorted({k for v in rows for k in v})
    if not rows or not cols:
        return 0
    zero = DOp.zero()
    mat = [[_dop_to_sympy(v.get(k, zero)) for k in cols] for v in rows]
    return DomainMatrix(mat, (len(rows), len(cols)), QD).rank()


def _random_dop_matrix(rng, max_deg):
    """Rows over Q[d], some of them Q[d]-combinations of earlier ones."""
    ncols = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rows and rng.random() < 0.4:
            row: dict = {}
            for src in rng.sample(rows, min(len(rows), 2)):
                f = _rand_dop(rng, 1)
                for k, q in src.items():
                    row[k] = row.get(k, DOp.zero()) + f * q
        else:
            row = {k: _rand_dop(rng, max_deg) for k in range(ncols) if rng.random() < 0.7}
        rows.append(row)
    return rows


# -- rank over Q[d] --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_module_rank_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(25):
        rows = _random_dop_matrix(rng, max_deg=3)
        assert module_rank(rows) == _sympy_module_rank(rows), rows


def test_module_rank_is_incremental():
    rng = random.Random(99)
    for _ in range(25):
        rows = _random_dop_matrix(rng, max_deg=2)
        ranker = ModuleRank()
        for k, row in enumerate(rows, start=1):
            raised = ranker.add(row)
            assert ranker.rank == _sympy_module_rank(rows[:k])
            assert raised == (ranker.rank > _sympy_module_rank(rows[: k - 1]))


def test_module_rank_scale_invariant():
    # denominators are cleared per vector: rational multiples change nothing
    rows = [
        {0: DOp({0: Fraction(1, 3), 1: Fraction(2, 7)}), 1: DOp.one()},
        {0: DOp({1: Fraction(5, 2)}), 1: DOp.const(Fraction(1, 2))},
    ]
    assert module_rank(rows) == 2
    assert module_rank([{k: q * Fraction(-21, 4) for k, q in r.items()} for r in rows]) == 2
    assert module_rank(rows + [{k: q * DOp.d(2) for k, q in rows[0].items()}]) == 2
    assert module_rank([rows[0], {k: q * Fraction(7, 9) for k, q in rows[0].items()}]) == 1


def _full_chain_add(rows: list, vector) -> bool:
    """Reference: the fraction-free chain over every stored row, also where the
    vector lacks the row's pivot (there it only rescales by P_i / P_{i-1})."""
    v = _zpoly_vector(vector.terms if hasattr(vector, "terms") else vector)
    prev = {0: 1}
    for pivot, row, piv in rows:
        if not v:
            return False
        a = v.pop(pivot, None)
        nxt = {}
        if a is None:
            if piv == prev:
                continue
            for k, x in v.items():
                nxt[k] = _zdivexact(_sp_mul(piv, x), prev)
        else:
            for k in v.keys() | row.keys():
                if k == pivot:
                    continue
                num = add_scaled(_sp_mul(piv, v.get(k, {})), _sp_mul(a, row.get(k, {})), -1)
                if num:
                    nxt[k] = _zdivexact(num, prev)
        v, prev = nxt, piv
    if not v:
        return False
    pivot = min(v)
    rows.append((pivot, v, v[pivot]))
    return True


class _CheckedRank(ModuleRank):
    """A ModuleRank that runs the full chain beside every add and compares."""

    def __init__(self):
        super().__init__()
        self.reference: list = []

    def add(self, vector) -> bool:
        raised = super().add(vector)
        assert raised == _full_chain_add(self.reference, vector)
        assert self._rows == self.reference
        return raised


def test_module_rank_stores_the_full_chain_rows():
    # the matrices of test_module_rank_is_incremental
    rng = random.Random(99)
    for _ in range(25):
        ranker = _CheckedRank()
        for row in _random_dop_matrix(rng, max_deg=2):
            ranker.add(row)


@pytest.mark.parametrize("make, r_max", [
    (weyl_algebra, 40), (lambda: cur_matrix(3), 4), (lambda: cur_matrix_presented(3), 4),
    (poly_zero, 8), (cur_dual_numbers, 6), (cend2, 6),
], ids=["weyl", "cur3", "cur3p", "polyzero", "cureps", "cend2"])
def test_growth_walk_stores_the_full_chain_rows(monkeypatch, make, r_max):
    monkeypatch.setattr(growth, "ModuleRank", _CheckedRank)
    assert growth_table(make(), r_max).gamma


class _CountingRows(list):
    """Stored rows that count each row read, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for row in super().__iter__():
            self.reads += 1
            yield row


def test_module_rank_reads_a_bounded_number_of_rows_per_add(monkeypatch):
    # an add reads only the rows whose pivot its word holds, fewer than one
    # per add on weyl; the full chain reads every stored row, about 150 per
    # add at r = 400
    rankers = []

    class Counted(ModuleRank):
        def __init__(self):
            super().__init__()
            self._rows = _CountingRows()
            self.adds = 0
            rankers.append(self)

        def add(self, vector) -> bool:
            self.adds += 1
            return super().add(vector)

    monkeypatch.setattr(growth, "ModuleRank", Counted)
    assert growth_table(weyl_algebra(), 400).gamma[-1] == 401
    (ranker,) = rankers
    assert ranker.adds == 1602
    assert ranker._rows.reads <= ranker.adds


def test_zpoly_division_is_checked():
    # sparse maps exponent -> int: {0: -1, 2: 1} is d^2 - 1
    assert _zdivexact({0: -1, 2: 1}, {0: -1, 1: 1}) == {0: 1, 1: 1}
    assert _zdivexact({0: 6, 1: -4}, {0: 2}) == {0: 3, 1: -2}
    assert _zdivexact({1: 5}, {0: 1}) == {1: 5}
    # a remainder, or a quotient exact over Q but not over Z
    for num, den in (({0: 1, 1: 1}, {0: 2}), ({0: 1, 2: 1}, {0: 1, 1: 1}),
                     ({0: 3, 2: 2}, {1: 2}), ({0: 1, 1: 1}, {0: 2, 1: 2})):
        with pytest.raises(ArithmeticError):
            _zdivexact(num, den)


WEYLX_SOURCE = """algebra weylx {
  kind differential;
  base poly x;
  deriv d/dx;
  generators {
    e = 1;
    L = x;
    f = 3/2*x^2 - 5/4*x^3;
  }
}
"""

# a presented table whose products carry d, so span entries have d-degree > 0
DTABLE_SOURCE = """algebra dtab {
  kind presented;
  generators a, b, c;
  products {
    a (0) a = d b + 2*a;
    a (1) a = b;
    a (0) b = d^2 b - a;
    b (0) a = 3*d a;
    c (0) a = d c;
  }
}
"""


def _weyl_with_random_generator(seed):
    """e = 1, L = x and f = a random combination of x^2 and x^3, seeded."""
    rng = random.Random(seed)
    base = PolyRing("x")
    f = Poly({2: _rand_q(rng) or 1, 3: _rand_q(rng) or 1})
    gens = {"e": base.one(), "L": Poly.variable(), "f": f}
    return DifferentialAlgebra(base, ScaledDdx(base), gens, name=f"weylx{seed}")


def _growth_instances():
    (weylx,) = build_all(WEYLX_SOURCE).values()
    (dtab,) = build_all(DTABLE_SOURCE).values()
    return [(weylx, 4), (cur_matrix_presented(2), 4), (weyl_algebra(), 5), (dtab, 4),
            (cur_matrix(3), 4), (cur_matrix_presented(3), 4), (poly_zero(), 5),
            (cur_dual_numbers(), 4), (weylx, 7),
            (_weyl_with_random_generator(1), 7), (_weyl_with_random_generator(2), 7)]


@pytest.mark.parametrize("index", range(11))
def test_growth_table_matches_prefix_ranks(index):
    alg, r_max = _growth_instances()[index]
    gamma = growth_table(alg, r_max).gamma
    span = enumerate_span(alg, r_max)
    for r in range(1, r_max + 1):
        prefix = [e.elem for e in span.entries if e.length <= r]
        assert gamma[r - 1] == module_rank(prefix) == _sympy_module_rank(prefix), (alg.name, r)


def test_growth_instances_include_d_entries():
    dtab, r_max = _growth_instances()[3]
    span = enumerate_span(dtab, r_max)
    assert max(q.degree() for e in span.entries for q in e.elem.terms.values()) >= 1


# -- RowSpace over Q ---------------------------------------------------------------------------


def _sympy_rank(vectors, cols):
    if not vectors:
        return 0
    mat = [[QQ(v[k].numerator, v[k].denominator) if k in v else QQ(0) for k in cols]
           for v in vectors]
    return DomainMatrix(mat, (len(vectors), len(cols)), QQ).rank()


def _random_vectors(rng, ncols, count):
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            vec: dict = {}
            for src in rng.sample(out, min(len(out), 3)):
                c = _rand_q(rng, 3, 3)
                for k, v in src.items():
                    vec[k] = vec.get(k, Fraction(0)) + c * v
            vec = {k: v for k, v in vec.items() if v}
        else:
            vec = {k: _rand_q(rng, 9, 7) for k in range(ncols) if rng.random() < 0.5}
        out.append(vec)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_rowspace_matches_sympy(seed):
    rng = random.Random(1000 + seed)
    ncols = rng.randint(1, 8)
    cols = list(range(ncols))
    vectors = _random_vectors(rng, ncols, rng.randint(1, 12))
    space = RowSpace()
    added = []
    for i, vec in enumerate(vectors):
        inside = _sympy_rank(added + [vec], cols) == _sympy_rank(added, cols)
        assert space.contains(vec) == inside
        assert space.add(vec) == (not inside)
        if not inside:
            added.append(vec)
        assert space.dim == _sympy_rank(vectors[: i + 1], cols)
    for query in vectors + _random_vectors(rng, ncols, 10):
        expr = space.express(query)
        inside = _sympy_rank(added + [query], cols) == len(added)
        assert (expr is not None) == inside == space.contains(query)
        assert (not space.residual(query)) == inside
        if expr is None:
            continue
        assert all(_is_canonical(c) and c != 0 for c in expr.values())
        rebuilt: dict = {}
        for i, c in expr.items():  # row i is the i-th accepted vector
            for k, v in added[i].items():
                rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * v
        assert {k: v for k, v in rebuilt.items() if v} == {k: v for k, v in query.items() if v}


def test_rowspace_residual_is_exact():
    space = RowSpace()
    space.add({0: Fraction(2, 3), 1: Fraction(1, 5)})
    # residual = vec minus the span member agreeing with it on the pivot 0
    assert space.residual({0: Fraction(4, 3), 1: Fraction(1)}) == {1: Fraction(3, 5)}
    assert space.residual({0: Fraction(-2), 1: Fraction(-3, 5)}) == {}
    assert space.express({0: Fraction(-2), 1: Fraction(-3, 5)}) == {0: Fraction(-3)}


def test_rowspace_numbers_rows_by_insertion():
    space = RowSpace()
    assert space.add({0: 1, 1: 1})
    assert not space.add({0: 2, 1: 2})  # rejected: takes no row number
    assert space.add({1: Fraction(1, 2)})
    assert space.express({0: 3, 1: 4}) == {0: 3, 1: 2}


def test_rowspace_untracked_span_stores_no_combination():
    rng = random.Random(2000)
    for _ in range(3):
        ncols = rng.randint(2, 6)
        vectors = _random_vectors(rng, ncols, 10)
        tracked, untracked = RowSpace(), RowSpace(track=False)
        for vec in vectors:
            assert untracked.add(vec) == tracked.add(vec)
        assert untracked.dim == tracked.dim
        for query in vectors + _random_vectors(rng, ncols, 10):
            assert untracked.contains(query) == tracked.contains(query)
            assert untracked.residual(query) == tracked.residual(query)
            with pytest.raises(ValueError, match="tracked span"):
                untracked.express(query)
        assert all(combo is None for *_, combo in untracked._rows)
        assert not untracked._scales


def _unit_or_random_vectors(rng, ncols, count):
    """_random_vectors with some single-entry vectors mixed in."""
    out = _random_vectors(rng, ncols, count)
    for _ in range(count // 3):
        out.insert(rng.randrange(len(out) + 1), {rng.randrange(ncols): _rand_q(rng, 5, 3) or 1})
    return out


@pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize("seed", range(6))
def test_rowspace_rows_stay_fully_reduced(seed, track):
    rng = random.Random(3000 + seed)
    ncols = rng.randint(2, 9)
    space, added = RowSpace(track=track), []
    for vec in _unit_or_random_vectors(rng, ncols, 14):
        if space.add(vec):
            added.append(vec)
        pivots = [pivot for pivot, *_ in space._rows]
        assert set(space._pivot_index) == set(pivots)
        for i, (pivot, row, combo) in enumerate(space._rows):
            assert space._pivot_index[pivot] == i and pivot == min(row)
            assert all(type(v) is int and v for v in row.values())
            assert not row.keys() & (set(pivots) - {pivot})  # zero at every other pivot
            if track:
                # row == sum combo[j] * u[j], u[j] = scales[j] * (the j-th added vector)
                rebuilt: dict = {}
                for j, c in combo.items():
                    for k, v in added[j].items():
                        rebuilt[k] = rebuilt.get(k, 0) + c * space._scales[j] * v
                assert {k: v for k, v in rebuilt.items() if v} == row
        # the index of the rows nonzero at each non-pivot key
        held: dict = {}
        for i, (pivot, row, _) in enumerate(space._rows):
            for k in row.keys() - {pivot}:
                held.setdefault(k, set()).add(i)
        assert {k: rows for k, rows in space._holders.items() if rows} == held
    assert space.dim == len(added)
    if track:
        # express still keys rows by insertion
        for i, vec in enumerate(added):
            assert space.express(vec) == {i: 1}
            assert space.express({k: 3 * v for k, v in vec.items()}) == {i: 3}


def test_rowspace_reads_only_the_rows_its_vector_reaches():
    # residual reads the rows whose pivot the vector holds, and so do contains
    # and express unless the vector is nonzero off the rows' supports: then
    # they read none.  An add reads those rows, and when it accepts, the
    # earlier rows that hold its new pivot, each once
    rng = random.Random(3100)
    for track in (True, False):
        space = RowSpace(track=track)
        space._rows = rows = _CountingRows()
        cleared = rejected = 0
        queries = [space.contains] + ([space.express] if track else [])
        for vec in _unit_or_random_vectors(rng, 8, 40):
            support = {k for k, v in vec.items() if v}
            reached = len(support & space._pivot_index.keys())
            before = rows.reads
            space.residual(vec)
            assert rows.reads - before == reached
            covered = space._pivot_index.keys() | space._holders.keys()
            off = bool(support - covered)
            rejected += off
            for query in queries:
                before = rows.reads
                query(vec)
                assert rows.reads - before == (0 if off else reached)
            supports = [set(row) for _, row, _ in list.__iter__(rows)]
            before = rows.reads
            if space.add(vec):
                pivot = list.__getitem__(rows, -1)[0]
                holding = sum(pivot in keys for keys in supports)
                cleared += holding
                reached += holding
            assert rows.reads - before == reached
        assert space.dim == 8 and cleared and rejected


@pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize("seed", range(4))
def test_rowspace_rejects_vectors_off_the_support(seed, track):
    # a vector nonzero at a key no row holds is outside the span; the full
    # elimination (residual) agrees on every query, off the support or not
    rng = random.Random(3200 + seed)
    ncols = rng.randint(2, 8)
    space, added = RowSpace(track=track), []
    for vec in _unit_or_random_vectors(rng, ncols, rng.randint(1, 6)):
        if space.add(vec):
            added.append(vec)
    # members of the span, nonzero off the pivots too, and random vectors
    queries = [{k: 2 * v for k, v in add_scaled(dict(a), b, -1).items()}
               for a, b in zip(added, added[1:])] + added
    queries += _unit_or_random_vectors(rng, ncols, 12)
    strays = [ncols + rng.randrange(3) for _ in queries]
    queries += [{**vec, stray: _rand_q(rng, 5, 3) or 1} for vec, stray in zip(queries, strays)]
    for query in queries:
        residual = space.residual(query)
        off = any(v and k not in space._pivot_index and k not in space._holders
                  for k, v in query.items())
        assert not (off and not residual)  # off the support: never in the span
        assert space.contains(query) == (not residual)
        if track:
            expr = space.express(query)
            assert (expr is None) == bool(residual)
        else:
            with pytest.raises(ValueError, match="tracked span"):
                space.express(query)
    assert any(map(space.contains, queries))
    for query in queries[len(strays):]:
        assert not space.contains(query) and space.residual(query)
        if track:
            assert space.express(query) is None


@pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
def test_rowspace_zero_entry_off_the_support_does_not_reject(track):
    space = RowSpace(track=track)
    space.add({"a": 1})
    assert space.contains({"a": 2, "z": 0})
    assert space.residual({"a": 2, "z": 0}) == {}
    assert not space.contains({"a": 2, "z": 1})
    if track:
        assert space.express({"a": 2, "z": 0}) == {0: 2}
        assert space.express({"a": 2, "z": 1}) is None


@pytest.mark.parametrize("seed", range(4))
def test_linalg_returns_canonical_scalars(seed):
    """express, residual, dense_solve and dense_nullspace give ints and Fractions, no floats."""
    rng = random.Random(5000 + seed)
    for ints in (True, False):
        def entry():
            return 0 if rng.random() < 0.4 else rng.randint(-5, 5) if ints else _rand_q(rng)

        ncols = rng.randint(2, 6)
        matrix = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        space = RowSpace()
        for row in matrix:
            space.add(dict(enumerate(row)))
        for _ in range(8):
            query = {k: entry() for k in range(ncols)}
            assert all(map(_is_canonical, space.residual(query).values()))
            expr = space.express(query)
            assert expr is None or all(map(_is_canonical, expr.values()))
        for v in dense_nullspace(matrix, ncols):
            assert all(map(_is_canonical, v))
        x = dense_solve(matrix, [sum(row) for row in matrix])  # x = (1, ..., 1) solves it
        assert x is not None and all(map(_is_canonical, x))


# -- dense solve and nullspace --------------------------------------------------------------------


def _to_qq(matrix):
    return [[QQ(v.numerator, v.denominator) for v in row] for row in matrix]


def _random_rref_input(rng):
    """A rational matrix, often with zero rows, zero columns or dependent rows."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    matrix = [[_rand_q(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
              for _ in range(nrows)]
    if rng.random() < 0.4:
        matrix[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if rng.random() < 0.4:
        col = rng.randrange(ncols)
        for row in matrix:
            row[col] = Fraction(0)
    if nrows > 2 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows - 1), 2)
        ca, cb = _rand_q(rng, 3, 3), _rand_q(rng, 3, 3)
        matrix[-1] = [ca * x + cb * y for x, y in zip(matrix[a], matrix[b])]
    return matrix


@pytest.mark.parametrize("seed", range(6))
def test_dense_rref_matches_sympy(seed):
    rng = random.Random(4000 + seed)
    cases = [[], [[]], [[], []], [[Fraction(0)] * 3] * 2]
    cases += [_random_rref_input(rng) for _ in range(10)]
    for matrix in cases:
        nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
        ref, ref_pivots = sympy.Matrix(
            nrows, ncols, [Rational(v.numerator, v.denominator) for row in matrix for v in row]
        ).rref()
        work = [list(row) for row in matrix]
        assert dense_rref(work) == list(ref_pivots)
        assert work == [[Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(ncols)]
                        for i in range(nrows)]


@pytest.mark.parametrize("seed", range(6))
def test_dense_nullspace_matches_sympy(seed):
    rng = random.Random(2000 + seed)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        matrix = [[_rand_q(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
                  for _ in range(nrows)]
        basis = dense_nullspace(matrix, ncols)
        dm = DomainMatrix(_to_qq(matrix), (nrows, ncols), QQ)
        assert len(basis) == ncols - dm.rank()
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix)
        if basis:
            bm = DomainMatrix(_to_qq(basis), (len(basis), ncols), QQ)
            assert bm.rank() == len(basis)


@pytest.mark.parametrize("seed", range(6))
def test_dense_solve_matches_sympy(seed):
    rng = random.Random(3000 + seed)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[_rand_q(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
                  for _ in range(nrows)]
        if rng.random() < 0.5:
            x0 = [_rand_q(rng) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        else:
            rhs = [_rand_q(rng) for _ in range(nrows)]
        x = dense_solve(matrix, rhs)
        a = DomainMatrix(_to_qq(matrix), (nrows, ncols), QQ)
        aug = DomainMatrix([r + [QQ(b.numerator, b.denominator)]
                            for r, b in zip(_to_qq(matrix), rhs)], (nrows, ncols + 1), QQ)
        consistent = a.rank() == aug.rank()
        assert (x is not None) == consistent
        if x is not None:
            assert [sum(a_ * x_ for a_, x_ in zip(row, x)) for row in matrix] == rhs
