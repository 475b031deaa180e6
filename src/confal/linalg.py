"""Exact linear algebra over the rationals.

Plumbing for the probes, closures, and rank engines: an incremental span
whose integer rows stay fully reduced, with expression tracking (`RowSpace`,
the one elimination over Q), and on top of it a dense reduced row echelon
form, nullspace and solver.  A query reads only the rows whose pivots its
vector holds, and an insert those and the rows holding its new pivot;
`contains` and `express` read none for a vector that is nonzero where
every row is zero.
Vectors are sparse dicts from hashable coordinate keys to scalars, each an
int or Fraction (an int when integral), and every value returned is such a
scalar; keys within one computation must be mutually comparable (they
always are: each algebra uses one homogeneous key shape).
"""

from __future__ import annotations

from math import gcd, lcm

from .exact_arith import add_scaled, rat, ratio

_OWN = -1  # combination key of the vector being reduced


def integral_multiple(vec: dict):
    """(w, den): the integer vector w = den * vec without its zero entries,
    den > 0 the lcm of vec's denominators."""
    # star-args from a list, not a generator: a generator's tuple is grown by
    # resizing, which leaves blocks behind on CPython's tuple free lists
    den = lcm(*[v.denominator for v in vec.values()])
    if den == 1:
        return {k: v.numerator for k, v in vec.items() if v}, 1
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}, den


def primitive_integral(vec: dict):
    """(w, s): the primitive integer vector w = s * vec and its scale s > 0."""
    w, den = integral_multiple(vec)
    if not w:
        return {}, 1
    g = gcd(*w.values())
    if g != 1:
        w = {k: v // g for k, v in w.items()}
    return w, ratio(den, g)


def _scale(vec: dict, c: int) -> None:
    for k in vec:
        vec[k] *= c


def _divide(vec: dict, g: int) -> None:
    for k in vec:
        vec[k] //= g


class RowSpace:
    """Incremental span of sparse rational vectors, its rows fully reduced.

    Rows are numbered by insertion: the i-th vector `add` accepts is row i.
    A tracked span (the default) keeps, for each stored row, its combination
    over the added vectors, and `express` writes a member of the span as a
    combination of the added vectors keyed by row number.  An untracked span
    (`RowSpace(track=False)`) keeps no combination or scale: it answers
    `dim`, `contains` and `residual`, and its `express` raises ValueError.

    Internally everything is an integer.  An added vector v is stored through
    its primitive integer multiple u = s * v (a tracked span keeps the scale
    s).  Each row is an integer vector R, pivoting at its least key, with an
    integer combination C keyed by row number such that R == sum C[i] * u[i].

    The rows stay fully reduced: each is zero at every other row's pivot.
    So subtracting a row from a vector w changes w at that row's pivot and
    off the pivots only, and reducing w applies exactly the rows whose pivot
    w holds, each once, against one common multiplier:
    w <- m * w - sum (m * w[p] / R[p]) * R, with m the least positive
    integer that makes every quotient exact (1 when each R[p] divides w[p]).
    A single-entry row just deletes w[p].  In a tracked reduction one joint
    gcd of the result and its combination then divides both.

    When `add` accepts w as a new row with pivot q, it clears q from each
    earlier row R that holds it, R <- (w[q] * R - R[q] * w) / g, both
    factors first divided by their gcd and g the gcd of R and, when
    tracked, of its combination.  An index from each non-pivot key to the
    rows nonzero there finds those rows without a scan.  An untracked span
    keeps no combination and divides w by its gcd, so a single-entry w is
    +-1 at q and R - (R[q] / w[q]) * w just deletes R[q].

    Fractions appear again only in what `residual` and `express` return, and
    both are unique: the residual is the one vector of vec + span that
    vanishes at every pivot, and the added vectors are independent.  So
    neither depends on how the rows are reduced.

    Every member of the span is zero at every key outside the union of the
    rows' supports, and that union lies within the pivots and the keys of
    the holder index (a key's holder set stays in place when it empties, so
    the index only ever covers more).  So a vector nonzero at a key that is
    neither is outside the span, and `contains` and `express` say so before
    any arithmetic; an explicit 0 entry does not count.
    """

    def __init__(self, track: bool = True):
        # (pivot_key, row, combo): integer row with row[pivot_key] != 0, zero
        # at every other row's pivot, and row == sum combo[i] * u[i] (combo
        # is None in an untracked span)
        self._rows: list[tuple[object, dict, dict | None]] = []
        self._pivot_index: dict = {}  # pivot_key -> index of its row
        self._holders: dict = {}  # non-pivot key -> indices of the rows nonzero there
        self._track = track
        self._scales: list = []  # u[i] == scales[i] * (row i's vector), when tracked

    def __repr__(self):
        return f"RowSpace(dim={self.dim}, track={self._track})"

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, w: dict, track: bool):
        """Eliminate every pivot from the integer vector w.

        Returns (w', combo) with w' == combo[_OWN] * w + sum combo[i] * u[i];
        the row numbers i appear only when `track` is set, which needs a
        tracked span.  Reads only the rows whose pivot w holds, each once.
        """
        rows, at = self._rows, self._pivot_index
        hits = [(rows[at[k]], a) for k, a in w.items() if k in at]
        combo = {_OWN: 1}
        if not hits:
            return w, combo
        m = 1
        for (pivot, row, _), a in hits:
            p = row[pivot]
            if a % p:
                m = lcm(m, p // gcd(a, p))
        if m != 1:
            _scale(w, m)
            combo[_OWN] = m
        for (pivot, row, rcombo), a in hits:
            c = -(m * a // row[pivot])
            if len(row) == 1:
                del w[pivot]
            else:
                add_scaled(w, row, c)
            if track:
                add_scaled(combo, rcombo, c)
        if not track:
            return w, combo  # no combination: the callers normalise w themselves
        g = gcd(*w.values())
        if g != 1:
            g = gcd(g, *combo.values())
            if g != 1:
                _divide(w, g)
                _divide(combo, g)
        return w, combo

    def residual(self, vec: dict) -> dict:
        """vec minus the member of the span that agrees with it on every pivot."""
        w, s = primitive_integral(vec)
        w, combo = self._reduce(w, False)
        num, den = s.denominator, combo[_OWN] * s.numerator
        return {k: ratio(v * num, den) for k, v in w.items()}

    def _off_support(self, vec: dict) -> bool:
        """Whether vec is nonzero at a key where every row is zero."""
        at, held = self._pivot_index, self._holders
        for k, v in vec.items():
            if v and k not in at and k not in held:
                return True
        return False

    def contains(self, vec: dict) -> bool:
        return not self._off_support(vec) and not self.residual(vec)

    def express(self, vec: dict):
        """Coefficients over row numbers reproducing vec, or None if outside.

        Raises ValueError on an untracked span.
        """
        if not self._track:
            raise ValueError("express needs a tracked span")
        if self._off_support(vec):
            return None
        w, s = primitive_integral(vec)
        w, combo = self._reduce(w, True)
        if w:
            return None
        num, den = -s.denominator, combo.pop(_OWN) * s.numerator
        scales = self._scales
        return {
            i: ratio(c * num * scales[i].numerator, den * scales[i].denominator)
            for i, c in combo.items()
        }

    def add(self, vec: dict) -> bool:
        """Insert vec as the next row; returns False if it was already in the span."""
        w, s = primitive_integral(vec)
        track = self._track
        w, combo = self._reduce(w, track)
        if not w:
            return False
        rows, holders, n = self._rows, self._holders, len(self._rows)
        if track:
            combo[n] = combo.pop(_OWN)
            self._scales.append(s)
        else:
            combo = None
            g = gcd(*w.values())
            if g != 1:
                _divide(w, g)
        pivot = min(w)
        top = w[pivot]
        clear = holders.pop(pivot, ())
        for k in w:
            if k != pivot:
                held = holders.get(k)
                if held is None:
                    holders[k] = {n}
                else:
                    held.add(n)
        single = combo is None and len(w) == 1  # w is +-1 at its pivot
        for j in clear:
            _, row, rcombo = rows[j]
            if single:
                del row[pivot]
                continue
            b = row[pivot]
            g = gcd(b, top)
            x, y = top // g, b // g
            if x != 1:
                _scale(row, x)
            add_scaled(row, w, -y)
            g = gcd(*row.values())
            if combo is not None:
                if x != 1:
                    _scale(rcombo, x)
                add_scaled(rcombo, combo, -y)
                if g != 1:
                    g = gcd(g, *rcombo.values())
            if g != 1:
                _divide(row, g)
                if combo is not None:
                    _divide(rcombo, g)
            for k in w:
                if k in row:
                    holders[k].add(j)
                elif k != pivot:
                    holders[k].discard(j)
        self._pivot_index[pivot] = n
        rows.append((pivot, w, combo))
        return True


def dense_rref(matrix: list[list]):
    """Reduced row echelon form in place; returns the list of pivot columns.

    One pass over the columns with a RowSpace of columns: a column is a
    pivot column exactly when it is independent of the earlier columns, and
    any other column of the RREF holds its coefficients over the pivot
    columns (the RREF is unique).
    """
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    rref = [[0] * ncols for _ in range(nrows)]
    space = RowSpace()
    pivots = []
    for c in range(ncols):
        col = {i: row[c] for i, row in enumerate(matrix) if row[c]}
        if space.add(col):
            rref[len(pivots)][c] = 1
            pivots.append(c)
        else:
            for r, x in space.express(col).items():
                rref[r][c] = x
    matrix[:] = rref
    return pivots


def dense_nullspace(matrix: list[list], ncols: int) -> list[list]:
    """Basis of the right nullspace of the matrix (ncols unknowns)."""
    work = [list(map(rat, row)) for row in matrix if any(v != 0 for v in row)]
    pivots = dense_rref(work)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][f]
        basis.append(v)
    return basis


def dense_solve(matrix: list[list], rhs: list):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    Free unknowns are set to zero.
    """
    if not matrix:
        return None
    ncols = len(matrix[0])
    work = [list(map(rat, row)) + [rat(b)] for row, b in zip(matrix, rhs)]
    pivots = dense_rref(work)
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][ncols]
    return x
