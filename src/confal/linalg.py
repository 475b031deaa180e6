"""Exact linear algebra over the rationals.

Plumbing for the probes, closures, and rank engines: an incremental
row-echelon span with expression tracking (`RowSpace`, the one elimination
over Q), and on top of it a dense reduced row echelon form, nullspace and
solver.  Vectors are sparse dicts from hashable coordinate keys to scalars,
each an int or Fraction (an int when integral), and every value returned is
such a scalar; keys within one computation must be mutually comparable (they
always are: each algebra uses one homogeneous key shape).
"""

from __future__ import annotations

from math import gcd, lcm

from .exact_arith import add_scaled, rat, ratio

_OWN = -1  # combination key of the vector being reduced


def primitive_integral(vec: dict):
    """(w, s): the primitive integer vector w = s * vec and its scale s > 0."""
    vec = {k: v for k, v in vec.items() if v}
    if not vec:
        return {}, 1
    # star-args from a list, not a generator: a generator's tuple is grown by
    # resizing, which leaves blocks behind on CPython's tuple free lists
    den = lcm(*[v.denominator for v in vec.values()])
    w = {k: v.numerator * (den // v.denominator) for k, v in vec.items()}
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
    """Incremental echelon span of sparse rational vectors.

    Rows are numbered by insertion: the i-th vector `add` accepts is row i.
    A tracked span (the default) keeps, for each stored row, its combination
    over the rows added before it, and `express` writes a member of the span
    as a combination of the added vectors keyed by row number.  An untracked
    span (`RowSpace(track=False)`) keeps no combination or scale: it answers
    `dim`, `contains` and `residual`, and its `express` raises ValueError.

    Internally everything is an integer.  An added vector v is stored through
    its primitive integer multiple u = s * v (a tracked span keeps the scale
    s).  Each pivot row is a primitive integer vector R with an integer
    combination C, keyed by row number, such that R == sum C[i] * u[i];
    reduction cross-multiplies, w <- R[p] * w - w[p] * R (both factors first
    divided by their gcd), then divides the vector and its combination by
    their joint gcd; without a combination the vector is divided by its gcd
    with the running multiplier alone.  Fractions appear again only in what
    `residual` and `express` return.
    """

    def __init__(self, track: bool = True):
        # (pivot_key, row, combo): integer row with row[pivot_key] != 0, zero
        # at every earlier pivot, and row == sum combo[i] * u[i] (combo is
        # None in an untracked span)
        self._rows: list[tuple[object, dict, dict | None]] = []
        self._pivot_index: dict = {}  # pivot_key -> index of its row
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
        tracked span.  Rows are applied in insertion order, visiting only
        those whose pivot w holds: row i is zero at every earlier pivot, so
        it can only bring in later ones.
        """
        combo = {_OWN: 1}
        rows, at = self._rows, self._pivot_index
        pending = {at[k] for k in w if k in at}
        while pending:
            i = min(pending)
            pending.remove(i)
            pivot, row, rcombo = rows[i]
            a = w.get(pivot)
            if not a:
                continue
            p = row[pivot]
            g = gcd(a, p)
            if g != 1:
                a //= g
                p //= g
            if p != 1:
                _scale(w, p)
                _scale(combo, p)
            add_scaled(w, row, -a)
            if track:
                add_scaled(combo, rcombo, -a)
            g = gcd(*w.values())
            if g != 1:
                g = gcd(g, *combo.values())
                if g != 1:
                    _divide(w, g)
                    _divide(combo, g)
            for k in row:
                j = at.get(k)
                if j is not None and j > i:
                    pending.add(j)
        return w, combo

    def residual(self, vec: dict) -> dict:
        """vec minus the member of the span that agrees with it on every pivot."""
        w, s = primitive_integral(vec)
        w, combo = self._reduce(w, False)
        num, den = s.denominator, combo[_OWN] * s.numerator
        return {k: ratio(v * num, den) for k, v in w.items()}

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)

    def express(self, vec: dict):
        """Coefficients over row numbers reproducing vec, or None if outside.

        Raises ValueError on an untracked span.
        """
        if not self._track:
            raise ValueError("express needs a tracked span")
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
        if track:
            combo[len(self._rows)] = combo.pop(_OWN)
            self._scales.append(s)
        else:
            combo = None
        pivot = min(w)
        self._pivot_index[pivot] = len(self._rows)
        self._rows.append((pivot, w, combo))
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
