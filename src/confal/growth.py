"""Growth functions and coefficient growth.

gamma(r) is the rank over Q[d] of the span of all nonzero left-normed
monomials (..((g_{j1} (n1) g_{j2}) (n2) g_{j3})..) of length <= r in the
declared generators, with every order n_i <= N, the maximum pairwise locality
degree of the generators; monomials with a larger order evaluate to zero, so
nothing is lost.  One layered walk, under one monomial cap, extends only the
words that were new; for gamma, new means raising the rank in one incremental
fraction-free elimination over Z[d] (`ModuleRank`, whose Z[d] entries are
exact_arith's sparse maps exponent -> int, and which applies to a word only
the stored rows whose pivots it reaches), read off after each word length.
Growth degree is detected from stabilized finite differences of the exact
gamma values.  A log-log slope is reported for reference only; every
decision is made in exact arithmetic.

The coefficient-growth check compares dim(V^1 + ... + V^r), where V is the
span of the generators' coefficients with t-exponents in a window
[M-, M+], against the exact bound (M+ - M- + max(N, 1)) * r * gamma(r); the
literal variant with max(N, 1) replaced by N is evaluated and reported
alongside; there new means raising dim(V^1 + ... + V^r), in an untracked
`RowSpace` (no combinations kept), since only the dimension is read.  Both
walks start from each generator's integral multiple, which spans the same
line, so their arithmetic stays in integers on integral bases.
"""

from __future__ import annotations

import math
import os
from itertools import islice

from .errors import ResourceBound
from .exact_arith import DOp, _sp_divexact, _sp_mul, add_scaled
from .linalg import RowSpace, integral_multiple, primitive_integral
from .products import ALL_ZERO, Elem, terms_scalar_normalized_key
from .record import Record

DEFAULT_MONOMIAL_CAP = 200_000
CAP_ENV_VAR = "CONFAL_MAX_MONOMIALS"
DIFF_DEPTH = 2  # finite-difference rows a growth report shows

CSV_COLUMNS = ("r", "gamma", "delta1", "delta2", "coeff_dim", "bound_rhs", "bound_ok")


def monomial_cap() -> int:
    """The monomial cap: CONFAL_MAX_MONOMIALS when set, else the default.

    Read at call time.  A cap below 1 admits no monomial at all, so it is
    rejected as bad input (ValueError) rather than reported later as a
    resource bound.
    """
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return DEFAULT_MONOMIAL_CAP
    try:
        cap = int(env)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    if cap < 1:
        raise ValueError(f"the monomial cap must be a positive integer, got {cap}")
    return cap


class SpanEntry(Record):
    def __init__(self, word: tuple, orders: tuple, elem, length: int):
        self.word = word
        self.orders = orders
        self.elem = elem
        self.length = length


class MonomialSpan(Record):
    def __init__(self, r: int, order_bound: int, entries: list | None = None):
        self.r = r
        self.order_bound = order_bound
        self.entries = [] if entries is None else entries


def generator_order_bound(alg) -> int:
    """Max pairwise locality degree of the declared generators (0 if all vanish)."""
    best = 0
    gens = alg.generator_items()
    for _, u in gens:
        for _, v in gens:
            deg = alg.locality(u, v)
            if deg is not ALL_ZERO:
                best = max(best, deg)
    return best


def _integral_generators(alg) -> list:
    """Each generator g as its integral multiple c * g, c the lcm of g's coefficient denominators.

    A walk over these spans what a walk over the generators spans: a word of
    length r is multilinear in its letters, so it only picks up a nonzero
    rational factor, and a spanning vector rescaled spans the same line.
    Over a base with integral structure constants, such as Q[x] and
    Mat_N(Q[x]), products of integral letters stay integral, so the walks
    do no Fraction arithmetic.
    """
    out = []
    for _, g in alg.generator_items():
        flat, den = integral_multiple(alg.coordinates(g))
        out.append(g if den == 1 else
                   Elem._make(alg, {k: DOp._make(q) for k, q in _by_symbol(flat).items()}))
    return out


def _by_symbol(flat: dict) -> dict:
    """Coordinates {(symbol, d-power): c} regrouped as symbol -> {d-power: c}."""
    out: dict = {}
    for (k, e), c in flat.items():
        out.setdefault(k, {})[e] = c
    return out


def _walk(seeds, products, add, r_max: int):
    """Yield, per length 1..max(r_max, 1), the words that add kept (returned True for).

    Length 1 is the seeds, length r + 1 is products(w) over the kept words w
    of length r.  Each seed and product formed counts against the monomial
    cap; the one past it raises ResourceBound (no silent truncation).
    """
    cap = monomial_cap()
    formed, kept = 0, None
    for _ in range(max(r_max, 1)):
        words = seeds if kept is None else (p for w in kept for p in products(w))
        kept = []
        for w in words:
            formed += 1
            if formed > cap:
                raise ResourceBound(f"growth enumeration exceeded the cap of {cap}; "
                                    f"raise {CAP_ENV_VAR} to continue")
            if add(w):
                kept.append(w)
        yield kept


def enumerate_span(alg, r: int) -> MonomialSpan:
    """All nonzero left-normed monomials of length <= r, deduplicated up to scalar.

    Deduplication keeps the first word producing each element ray; it cannot
    change the span.  Raises ResourceBound when the number of enumerated
    monomials would exceed the cap (no silent truncation).
    """
    bound = generator_order_bound(alg)
    gens = alg.generator_items()
    span = MonomialSpan(r=r, order_bound=bound)
    seen = set()

    def add(entry):
        if entry.elem.is_zero():
            return False
        key = terms_scalar_normalized_key(entry.elem.terms)
        if key in seen:
            return False
        seen.add(key)
        return True

    def products(e):
        for name, g in gens:
            for n in range(bound + 1):
                yield SpanEntry(e.word + (name,), e.orders + (n,), alg.nth(e.elem, g, n),
                                e.length + 1)

    seeds = [SpanEntry((name,), (), g, 1) for name, g in gens]
    for layer in _walk(seeds, products, add, r):
        span.entries += layer
    return span


# -- rank over Q[d] -----------------------------------------------------------------------
#
# Polynomials in d with integer coefficients are exact_arith's sparse maps,
# exponent -> nonzero int; {} is zero.

_ONE = {0: 1}


def _zdivexact(a: dict, b: dict) -> dict:
    """a / b in Z[d] (a itself when b is 1); raises ArithmeticError unless b
    divides a exactly over Z: on a remainder, or on a quotient exact only over Q."""
    if b == _ONE:
        return a
    quo = _sp_divexact(a, b)
    if any(type(c) is not int for c in quo.values()):
        raise ArithmeticError("inexact division in Z[d]")
    return quo


def _zpoly_vector(vector) -> dict:
    """The primitive Z[d] multiple of a Q[d] vector (dict key -> DOp)."""
    flat, _ = primitive_integral(
        {(k, e): c for k, q in vector.items() for e, c in q.coeffs.items()})
    return _by_symbol(flat)


class ModuleRank:
    """Incremental rank over Q[d] of vectors with DOp entries.

    Each vector is scaled to a primitive vector over Z[d], its entries
    sparse maps exponent -> int, and eliminated fraction-free (Bareiss
    1968).  With P_i the pivot entry of stored row R_i at column p_i and
    P_0 = 1, the full chain is
    v <- (P_i v - v[p_i] R_i) / P_{i-1} for every i in turn.  Where
    v[p_i] = 0 that step only multiplies v by P_i / P_{i-1}, so a run of such
    steps telescopes, and only the rows whose pivot v holds are applied:
    row i, the next such row in insertion order, gives
    v <- (P_i v - v[p_i] R_i) / P_prev, with P_prev the pivot entry of the
    last row applied (1 before the first).  Row i is zero at every earlier
    pivot, so it can only bring in later ones.  A vector left nonzero is
    rescaled once by P_last / P_prev, P_last the last stored pivot entry, and
    becomes the next row, pivoting at its least key: the same row the full
    chain stores.  Every entry stays a minor of the input matrix, so each
    division is exact; it is checked, and an inexact one raises
    ArithmeticError.
    """

    def __init__(self):
        self._rows: list[tuple[object, dict, dict]] = []  # (p_i, R_i, P_i)
        self._pivot_index: dict = {}  # p_i -> i

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector) -> bool:
        """Eliminate a vector (dict key -> DOp, or an element with `.terms`);
        returns True when it raised the rank."""
        v = _zpoly_vector(vector.terms if hasattr(vector, "terms") else vector)
        rows, at = self._rows, self._pivot_index
        pending = {at[k] for k in v if k in at}
        prev = _ONE
        while pending:
            i = min(pending)
            pending.remove(i)
            pivot, row, piv = rows[i]
            a = v.pop(pivot, None)
            if a is None:
                continue
            nxt = {}
            for k in v.keys() | row.keys():
                if k == pivot:
                    continue
                num = add_scaled(_sp_mul(piv, v.get(k, {})), _sp_mul(a, row.get(k, {})), -1)
                if num:
                    nxt[k] = _zdivexact(num, prev)
            if not nxt:
                return False
            v, prev = nxt, piv
            for k in row:
                j = at.get(k)
                if j is not None and j > i:
                    pending.add(j)
        if not v:
            return False
        last = rows[-1][2] if rows else _ONE
        if last != prev:
            v = {k: _zdivexact(_sp_mul(last, x), prev) for k, x in v.items()}
        pivot = min(v)
        at[pivot] = len(rows)
        rows.append((pivot, v, v[pivot]))
        return True


def module_rank(vectors) -> int:
    """Rank over Q[d] of a family of vectors with DOp entries.

    Accepts raw dicts key -> DOp or elements exposing `.terms`.
    """
    ranker = ModuleRank()
    for v in vectors:
        ranker.add(v)
    return ranker.rank


def _differences(values):
    """values, then each finite-difference sequence in turn, built as it is read."""
    seq = list(values)
    yield seq
    while len(seq) >= 2:
        seq = [b - a for a, b in zip(seq, seq[1:])]
        yield seq


def difference_table(values, depth: int):
    """values and its first `depth` finite-difference sequences."""
    return list(islice(_differences(values), depth + 1))


def detect_degree(gamma):
    """Detected polynomial degree, 'exponential', or 'inconclusive'.

    Degree d iff the d-th finite differences stabilize to a nonzero constant
    over the last max(3, len/4) points.  A sequence whose successive ratios
    stay >= 3/2 over that tail is classified exponential.
    """
    n = len(gamma)
    if n < 3:
        return "inconclusive"
    window = max(3, n // 4)
    for d, seq in enumerate(_differences(gamma)):
        if len(seq) < window:
            break
        tail_vals = seq[-window:]
        if all(v == tail_vals[0] for v in tail_vals) and tail_vals[0] != 0:
            return d
    ratios_ok = all(
        gamma[i] > 0 and 2 * gamma[i + 1] >= 3 * gamma[i] for i in range(n - window, n - 1)
    )
    if ratios_ok and gamma[-1] > gamma[0]:
        return "exponential"
    return "inconclusive"


def loglog_slope(gamma):
    """Reference-only float: slope of log gamma against log r at the tail."""
    pts = [(r + 1, g) for r, g in enumerate(gamma) if g > 0]
    if len(pts) < 2:
        return None
    (r1, g1), (r2, g2) = pts[-2], pts[-1]
    return (math.log(g2) - math.log(g1)) / (math.log(r2) - math.log(r1))


class GrowthReport(Record):
    """gamma(1..r_max), and dim(V^1 + ... + V^r) over a coefficient window;
    r_max, the degree, the slope and the bounds of the module doc are read off them."""

    def __init__(self, algebra: str, order_bound: int, gamma: list,
                 window: tuple | None = None, coeff_dims: list | None = None):
        if window is None:
            rhs = rhs_lit = ok = ok_lit = None
        else:
            width = window[1] - window[0]
            rhs = [(width + max(order_bound, 1)) * r * g for r, g in enumerate(gamma, 1)]
            rhs_lit = [(width + order_bound) * r * g for r, g in enumerate(gamma, 1)]
            ok = [d <= b for d, b in zip(coeff_dims, rhs)]
            ok_lit = [d <= b for d, b in zip(coeff_dims, rhs_lit)]
        self.algebra = algebra
        self.r_max = len(gamma)
        self.order_bound = order_bound
        self.gamma = gamma
        self.degree = detect_degree(gamma)
        self.slope = loglog_slope(gamma)
        self.window = window
        self.coeff_dims = coeff_dims
        self.bound_rhs = rhs
        self.bound_ok = ok
        self.bound_rhs_literal = rhs_lit
        self.bound_ok_literal = ok_lit

    def rows(self):
        table = difference_table(self.gamma, DIFF_DEPTH)
        out = []
        for idx in range(len(self.gamma)):
            row = {
                "r": idx + 1,
                "gamma": self.gamma[idx],
                "delta1": table[1][idx - 1] if len(table) > 1 and idx >= 1 else None,
                "delta2": table[2][idx - 2] if len(table) > 2 and idx >= 2 else None,
                "coeff_dim": self.coeff_dims[idx] if self.coeff_dims else None,
                "bound_rhs": self.bound_rhs[idx] if self.bound_rhs else None,
                "bound_ok": self.bound_ok[idx] if self.bound_ok else None,
            }
            out.append(row)
        return out

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows():
            lines.append(
                ",".join("" if row[c] is None else str(row[c]) for c in CSV_COLUMNS)
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        out = {
            "algebra": self.algebra,
            "r_max": self.r_max,
            "order_bound": self.order_bound,
            "gamma": list(self.gamma),
            "degree": self.degree,
            "gk_estimate": self.degree if isinstance(self.degree, int) else None,
            "loglog_slope": self.slope,
            "difference_table": difference_table(self.gamma, DIFF_DEPTH),
            "rows": self.rows(),
        }
        if self.window is not None:
            out["window"] = list(self.window)
        if self.coeff_dims is not None:
            out["coeff_dims"] = self.coeff_dims
            out["bound_rhs"] = self.bound_rhs
            out["bound_ok"] = self.bound_ok
            out["bound_rhs_literal"] = self.bound_rhs_literal
            out["bound_ok_literal"] = self.bound_ok_literal
        return out

    def text_lines(self):
        lines = [
            f"growth of {self.algebra}: order bound N = {self.order_bound}",
            "gamma: " + ", ".join(f"{r+1}:{g}" for r, g in enumerate(self.gamma)),
        ]
        table = difference_table(self.gamma, DIFF_DEPTH)
        for depth, seq in enumerate(table[1:], start=1):
            lines.append(f"delta^{depth}: " + ", ".join(str(v) for v in seq))
        lines.append(f"detected degree: {self.degree}")
        if self.slope is not None:
            lines.append(f"log-log slope (reference only): {self.slope:.4f}")
        if self.coeff_dims is not None:
            lines.append(f"coefficient window: {self.window}")
            for row in self.rows():
                lines.append(
                    f"  r={row['r']}: dim={row['coeff_dim']} "
                    f"bound={row['bound_rhs']} ok={row['bound_ok']}"
                )
            lines.append(
                "literal-N bound holds: "
                + str(all(self.bound_ok_literal))
                + f" (rhs {self.bound_rhs_literal})"
            )
        return lines


def growth_table(alg, r_max: int) -> GrowthReport:
    """gamma(1..r_max), extending only the words that raised the rank.

    Read l as the formal lambda of the lambda-bracket, not as an order.  If
    q(d) w = sum p_i(d) b_i over kept words b_i, q != 0, then, since
    (q(d) w)_l g = q(-l) w_l g, q(-l) w_l g = sum p_i(-l) (b_i)_l g; division
    by q(-l) is Q-linear on polynomials in l and N(a (m) b, c) <= N(b, c)
    (assuming associativity, as the order bound does), so every w (n) g lies
    in the Q-span of the formed (b_i) (m) g.  At a fixed order l,
    (q(d) w) (l) g is not q(-l) (w (l) g).

    The walk runs over `_integral_generators`: each word is a nonzero
    rational multiple of the same word in the declared generators, so every
    rank, and with it gamma, is the same, and the order bound is read off
    the declared generators.
    """
    if r_max < 1:
        raise ValueError("the word-length bound r_max must be at least 1")
    bound = generator_order_bound(alg)
    gens = _integral_generators(alg)

    def products(w):
        for g in gens:
            yield from alg.nth_orders(w, g, 0, bound)

    ranker = ModuleRank()
    gamma = [ranker.rank for _ in _walk(gens, products, ranker.add, r_max)]
    return GrowthReport(getattr(alg, "name", "algebra"), bound, gamma)


def coeff_growth_check(alg, window: tuple, r_max: int) -> GrowthReport:
    """Exact dim(V^1 + ... + V^r) against the locality-window bound.

    V spans the generators' coefficients with t-exponents in
    [window[0], window[1]].  Requires window[0] <= 0 <= window[1] so that V
    sees the zeroth coefficients.  V^(r+1) lies in (V^1 + ... + V^r) V, so
    by bilinearity only the products that raised the dimension are
    multiplied further, by the coefficients that span V, through the
    model's `phi_products` (one skew product per kept word and generator in
    the differential model).  The coefficients are taken of
    `_integral_generators`: phi(c * g, k) = c * phi(g, k) spans the same line,
    and a product of r coefficients is multilinear in them, so each
    dim(V^1 + ... + V^r) is the same.
    """
    m_minus, m_plus = window
    if not (m_minus <= 0 <= m_plus):
        raise ValueError("the window must contain 0")
    base_report = growth_table(alg, r_max)

    total = RowSpace(track=False)

    def add(p):
        return total.add(alg.model_coords(p))

    def products(a):
        for g, phis in groups:
            yield from alg.phi_products(a, g, phis)

    ks = range(m_minus, m_plus + 1)
    window_phis = [(g, {k: alg.phi(g, k) for k in ks}) for g in _integral_generators(alg)]
    seeds = [s for _, phis in window_phis for s in phis.values()]
    walk = _walk(seeds, products, add, r_max)
    kept = {id(s) for s in next(walk)}  # the coefficients that span V, by generator below
    groups = [(g, {k: s for k, s in phis.items() if id(s) in kept}) for g, phis in window_phis]
    dims = [total.dim] + [total.dim for _ in walk]
    return GrowthReport(base_report.algebra, base_report.order_bound, base_report.gamma,
                        (m_minus, m_plus), dims)
