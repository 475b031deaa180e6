"""Growth functions and coefficient growth.

gamma(r) is the rank over Q[d] of the span of all nonzero left-normed
monomials (..((g_{j1} (n1) g_{j2}) (n2) g_{j3})..) of length <= r in the
declared generators, with every order n_i <= N, the maximum pairwise locality
degree of the generators; monomials with a larger order evaluate to zero, so
nothing is lost.  Ranks are computed by deterministic fraction-free
elimination over Q[d]; growth degree is detected from stabilized finite
differences of the exact gamma values.  A log-log slope is reported for
reference only; every decision is made in exact arithmetic.

The coefficient-growth check compares dim(V^1 + ... + V^r), where V is the
span of the generators' coefficients with t-exponents in a window
[M-, M+], against the exact bound (M+ - M- + max(N, 1)) * r * gamma(r); the
literal variant with max(N, 1) replaced by N is evaluated and reported
alongside.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .diff_conformal import ALL_ZERO
from .errors import ResourceBound
from .exact_arith import DOp
from .linalg import RowSpace
from .products import terms_scalar_normalized_key

DEFAULT_MONOMIAL_CAP = 200_000
CAP_ENV_VAR = "CONFAL_MAX_MONOMIALS"

CSV_COLUMNS = ("r", "gamma", "delta1", "delta2", "coeff_dim", "bound_rhs", "bound_ok")


def monomial_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_MONOMIAL_CAP


@dataclass
class SpanEntry:
    word: tuple
    orders: tuple
    elem: object
    length: int


@dataclass
class MonomialSpan:
    r: int
    order_bound: int
    entries: list = field(default_factory=list)

    def elements(self):
        return [e.elem for e in self.entries]

    def of_length(self, length: int):
        return [e for e in self.entries if e.length <= length]


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


def enumerate_span(alg, r: int, cap: int | None = None) -> MonomialSpan:
    """All nonzero left-normed monomials of length <= r, deduplicated up to scalar.

    Deduplication keeps the first word producing each element ray; it cannot
    change the span.  Raises ResourceBound when the number of enumerated
    monomials would exceed the cap (no silent truncation).
    """
    cap = monomial_cap(cap)
    bound = generator_order_bound(alg)
    span = MonomialSpan(r=r, order_bound=bound)
    seen = set()
    produced = 0
    level = []
    for name, g in alg.generator_items():
        produced += 1
        if produced > cap:
            raise ResourceBound(
                f"monomial enumeration exceeded the cap of {cap}; "
                f"raise {CAP_ENV_VAR} to continue"
            )
        if alg.is_zero(g):
            continue
        key = terms_scalar_normalized_key(g.terms)
        if key in seen:
            continue
        seen.add(key)
        entry = SpanEntry((name,), (), g, 1)
        span.entries.append(entry)
        level.append(entry)
    for length in range(2, r + 1):
        nxt = []
        for prev in level:
            for name, g in alg.generator_items():
                for n in range(bound + 1):
                    produced += 1
                    if produced > cap:
                        raise ResourceBound(
                            f"monomial enumeration exceeded the cap of {cap}; "
                            f"raise {CAP_ENV_VAR} to continue"
                        )
                    p = alg.nth(prev.elem, g, n)
                    if alg.is_zero(p):
                        continue
                    key = terms_scalar_normalized_key(p.terms)
                    if key in seen:
                        continue
                    seen.add(key)
                    entry = SpanEntry(prev.word + (name,), prev.orders + (n,), p, length)
                    span.entries.append(entry)
                    nxt.append(entry)
        level = nxt
    return span


def module_rank(vectors) -> int:
    """Rank over Q[d] of a family of vectors with DOp entries.

    Accepts raw dicts key -> DOp or elements exposing `.terms`.  Uses
    one-step fraction-free (Bareiss) elimination; all divisions are exact.
    """
    rows_sparse = [v.terms if hasattr(v, "terms") else v for v in vectors]
    frame = sorted({k for v in rows_sparse for k in v})
    if not frame:
        return 0
    zero = DOp.zero()
    matrix = [[v.get(k, zero) for k in frame] for v in rows_sparse]
    nrows, ncols = len(matrix), len(frame)
    prev = DOp.one()
    rank = 0
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, nrows) if not matrix[i][pc].is_zero()), None)
        if pivot_row is None:
            continue
        matrix[pr], matrix[pivot_row] = matrix[pivot_row], matrix[pr]
        piv = matrix[pr][pc]
        for i in range(pr + 1, nrows):
            head = matrix[i][pc]
            for j in range(pc + 1, ncols):
                num = matrix[i][j] * piv - head * matrix[pr][j]
                matrix[i][j] = num.divexact(prev) if not num.is_zero() else num
            matrix[i][pc] = zero
        prev = piv
        rank += 1
        pr += 1
        if pr == nrows:
            break
    return rank


def difference_table(values, depth: int):
    """values and its first `depth` finite-difference sequences."""
    table = [list(values)]
    for _ in range(depth):
        prev = table[-1]
        if len(prev) < 2:
            break
        table.append([b - a for a, b in zip(prev, prev[1:])])
    return table


def detect_degree(gamma, tail: int | None = None):
    """Detected polynomial degree, 'exponential', or 'inconclusive'.

    Degree d iff the d-th finite differences stabilize to a nonzero constant
    over the last max(3, len/4) points.  A sequence whose successive ratios
    stay >= 3/2 over that tail is classified exponential.
    """
    n = len(gamma)
    if n < 3:
        return "inconclusive"
    window = tail if tail is not None else max(3, n // 4)
    for d in range(n - 1):
        seq = list(gamma)
        for _ in range(d):
            seq = [b - a for a, b in zip(seq, seq[1:])]
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
    if r1 == r2:
        return 0.0
    return (math.log(g2) - math.log(g1)) / (math.log(r2) - math.log(r1))


@dataclass
class GrowthReport:
    algebra: str
    r_max: int
    order_bound: int
    gamma: list
    degree: object
    slope: float | None
    diff_depth: int = 2
    window: tuple | None = None
    coeff_dims: list | None = None
    bound_rhs: list | None = None
    bound_ok: list | None = None
    bound_rhs_literal: list | None = None
    bound_ok_literal: list | None = None

    def rows(self):
        table = difference_table(self.gamma, self.diff_depth)
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
            "difference_table": difference_table(self.gamma, self.diff_depth),
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
        table = difference_table(self.gamma, self.diff_depth)
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


def growth_table(alg, r_max: int, cap: int | None = None) -> GrowthReport:
    if r_max < 1:
        raise ValueError("the word-length bound r_max must be at least 1")
    span = enumerate_span(alg, r_max, cap)
    gamma = []
    for r in range(1, r_max + 1):
        vectors = [e.elem for e in span.of_length(r)]
        gamma.append(module_rank(vectors))
    return GrowthReport(
        algebra=getattr(alg, "name", "algebra"),
        r_max=r_max,
        order_bound=span.order_bound,
        gamma=gamma,
        degree=detect_degree(gamma),
        slope=loglog_slope(gamma),
    )


def coeff_growth_check(alg, window: tuple, r_max: int, cap: int | None = None) -> GrowthReport:
    """Exact dim(V^1 + ... + V^r) against the locality-window bound.

    V spans the generators' coefficients with t-exponents in
    [window[0], window[1]].  Requires window[0] <= 0 <= window[1] so that V
    sees the zeroth coefficients.
    """
    m_minus, m_plus = window
    if not (m_minus <= 0 <= m_plus):
        raise ValueError("the window must contain 0")
    cap = monomial_cap(cap)
    base_report = growth_table(alg, r_max, cap)
    n_bound = base_report.order_bound

    vees = []
    layer_space = RowSpace()
    for name, g in alg.generator_items():
        for k in range(m_minus, m_plus + 1):
            val = alg.phi(g, k)
            if alg.model_is_zero(val):
                continue
            if layer_space.add(alg.model_coords(val), (name, k)):
                vees.append(val)

    total = RowSpace()
    dims = []
    layer = list(vees)
    for v in vees:
        total.add(alg.model_coords(v), ("v", len(dims)))
    dims.append(total.dim)
    count = len(vees)
    for r in range(2, r_max + 1):
        next_space = RowSpace()
        nxt = []
        for a in layer:
            for b in vees:
                count += 1
                if count > cap:
                    raise ResourceBound(
                        f"coefficient-power enumeration exceeded the cap of {cap}; "
                        f"raise {CAP_ENV_VAR} to continue"
                    )
                p = alg.model_mul(a, b)
                if alg.model_is_zero(p):
                    continue
                coords = alg.model_coords(p)
                if next_space.add(coords, ("p", r, len(nxt))):
                    nxt.append(p)
                total.add(coords, ("t", r, count))
        dims.append(total.dim)
        layer = nxt

    width = m_plus - m_minus
    rhs = [(width + max(n_bound, 1)) * (r + 1) * base_report.gamma[r] for r in range(r_max)]
    rhs_lit = [(width + n_bound) * (r + 1) * base_report.gamma[r] for r in range(r_max)]
    base_report.window = (m_minus, m_plus)
    base_report.coeff_dims = dims
    base_report.bound_rhs = rhs
    base_report.bound_ok = [d <= b for d, b in zip(dims, rhs)]
    base_report.bound_rhs_literal = rhs_lit
    base_report.bound_ok_literal = [d <= b for d, b in zip(dims, rhs_lit)]
    return base_report


def report_json(report: GrowthReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
