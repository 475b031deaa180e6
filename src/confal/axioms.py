"""Law checkers shared by the differential and presented models.

Every function here takes an algebra for its named generators, n-th
products, locality degrees and (for the coefficient-level checks) its
coefficient model; elements and coefficients are added, scaled,
differentiated and compared with their own operators.  Checks return report
objects and never raise on a failed law; the reports carry the first
witnesses found.
"""

from __future__ import annotations

from .exact_arith import add_scaled, gen_binom
from .products import ALL_ZERO
from .record import Record


class CheckReport(Record):
    def __init__(self, name: str, checked: int = 0, failures: list | None = None,
                 details: dict | None = None):
        self.name = name
        self.ok = not failures
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    def fail(self, witness: str):
        self.ok = False
        self.failures.append(witness)

    def to_json_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "failures": list(self.failures),
            "details": {k: self.details[k] for k in sorted(self.details)},
        }


def conformal_axioms_report(alg, pairs) -> CheckReport:
    """The two d-compatibility laws on the given element pairs.

    (d u)(n) v = -n * u(n-1) v with (d u)(0) v = 0, and the Leibniz law
    d(u (n) v) = (d u)(n) v + u (n) (d v), both checked exactly as elements
    for n up to one past the pair's scan bound.  Each pair forms (d u)(n) v,
    u (n) v and u (n) (d v) for every such n in three ranges, each product
    once; u (n) v is read again as the next order's u (n-1) v.
    """
    rep = CheckReport("conformal-axioms")
    for label, (u, v) in pairs:
        top = alg.locality_scan_bound(u, v) + 1
        du_v = alg.nth_orders(u.derive(), v, 0, top)
        u_v = alg.nth_orders(u, v, 0, top)
        u_dv = alg.nth_orders(u, v.derive(), 0, top)
        prev = alg.zero_elem()  # u (n-1) v; the law reads 0 at n = 0
        for n in range(top + 1):
            rep.checked += 1
            if du_v[n] != prev * -n:
                rep.fail(f"(d u)({n}) v != -n u({n - 1}) v at pair {label}")
                return rep
            prev = u_v[n]
            rep.checked += 1
            if prev.derive() != du_v[n] + u_dv[n]:
                rep.fail(f"d(u ({n}) v) != (d u)({n}) v + u ({n}) (d v) at pair {label}")
                return rep
    return rep


def associativity_report(alg, max_m: int, max_n: int, triples=None) -> CheckReport:
    """Both associativity expansions on generator triples for m <= max_m, n <= max_n.

    Left form:  u (m) (v (n) w)  =  sum_j C(m, j) (u (j) v) (m+n-j) w
    Right form: (u (m) v) (n) w  =  sum_j (-1)^j C(m, j) u (m-j) (v (n+j) w)

    Both sums run over 0 <= j <= m.  The report verifies each form and that
    the two computed values of the full product agree.

    Each triple forms four families eagerly, each member once, in order
    ranges: v (k) w for k <= M + N and u (j) v for j <= M (M = max_m,
    N = max_n), then u (i) (v (k) w) for i <= min(M, M + N - k) and
    (u (j) v) (k) w for k <= M + N - j, exactly the orders the sums read.
    The left form's right-hand side reuses the right form's left-hand side
    and the other way round.  A triple forms (M + N + 1) + (M + 1)
    + 2 (M + 1) (N + 1) + M (M + 1) n-th products: 32 at (2, 2), against
    108 for the sums as written.  The last two families are flattened to
    coordinate maps once, and each form is compared as a binomial-weighted
    sum of those maps; a vanishing product is the empty map.
    """
    if max_m < 0 or max_n < 0:
        raise ValueError("associativity orders must be nonnegative")
    rep = CheckReport("associativity")
    if triples is None:
        gens = alg.generator_items()
        triples = [
            (f"({a},{b},{c})", (ua, ub, uc))
            for a, ua in gens
            for b, ub in gens
            for c, uc in gens
        ]
    top = max_m + max_n
    coords = alg.coordinates
    for label, (u, v, w) in triples:
        # u_of[k][i] = u (i) (v (k) w) and of_w[j][k] = (u (j) v) (k) w, as coordinate maps
        u_of = [[coords(p) for p in alg.nth_orders(u, vw, 0, min(max_m, top - k))]
                for k, vw in enumerate(alg.nth_orders(v, w, 0, top))]
        of_w = [[coords(p) for p in alg.nth_orders(uv, w, 0, top - j)]
                for j, uv in enumerate(alg.nth_orders(u, v, 0, max_m))]
        for m in range(max_m + 1):
            for n in range(max_n + 1):
                left: dict = {}
                right: dict = {}
                for j in range(m + 1):
                    c = gen_binom(m, j)
                    add_scaled(left, of_w[j][m + n - j], c)
                    add_scaled(right, u_of[n + j][m - j], -c if j % 2 else c)
                rep.checked += 1
                if u_of[n][m] != left:
                    rep.fail(f"left-expansion failure at {label}, m={m}, n={n}")
                    return rep
                rep.checked += 1
                if of_w[m][n] != right:
                    rep.fail(f"right-expansion failure at {label}, m={m}, n={n}")
                    return rep
    return rep


def coefficient_locality_report(alg, window: int, extra_orders: int = 3) -> CheckReport:
    """Coefficient-level locality on generator pairs.

    For each generator pair with locality degree N, the combination
    sum_j (-1)^j C(n, j) u(l-j) v(m+j) must vanish in the coefficient model
    for every n with N < n <= N + extra_orders and all l, m in [-window,
    window].

    When v right-shifts (`alg.right_shifts`: every d-free generator of a
    differential algebra), v(m+j) = v(j - window) t^(m + window), so the
    combination at m is the one at m = -window times t^(m + window).  t is
    a unit of the skew Laurent ring, so one combination per (n, l) decides
    every m: it forms at most 2 window + 1 + n_top model products per pair,
    n_top the pair's top order.  Otherwise every m is formed; the windows
    overlap, so `locality_combinations` forms each product u(a) v(b) once,
    at most (2 window + 1 + n_top)^2 per pair.  `checked` counts every
    (n, l, m) either way, and a failure names the first.
    `alg.locality_coeff_sum` forms the same sums without memo or shift, by
    the model's own route (integer weights on base products for a
    differential algebra), and stays the independent check.
    """
    if window < 0:
        raise ValueError("the coefficient window must be nonnegative")
    if extra_orders < 0:
        raise ValueError("the extra locality orders must be nonnegative")
    rep = CheckReport("coefficient-locality")
    gens = alg.generator_items()
    for aname, u in gens:
        for bname, v in gens:
            deg = alg.locality(u, v)
            start = 0 if deg is ALL_ZERO else deg + 1
            rep.details[f"N({aname},{bname})"] = repr(deg)
            combination = locality_combinations(alg, u, v)
            shifts = alg.right_shifts(v)
            ms = (-window,) if shifts else range(-window, window + 1)
            for n in range(start, start + extra_orders):
                for l in range(-window, window + 1):
                    for m in ms:
                        rep.checked += 1
                        if combination(n, l, m):
                            rep.fail(
                                f"coefficient combination nonzero at ({aname},{bname}), "
                                f"n={n}, l={l}, m={m}"
                            )
                            return rep
                    if shifts:
                        rep.checked += 2 * window  # the other m, each a shift of m = -window
    return rep


def locality_combinations(alg, u, v):
    """(n, l, m) -> model coordinates of sum_j (-1)^j C(n, j) u(l-j) v(m+j).

    Each coefficient u(a), v(b), each product u(a) v(b) and, when v
    right-shifts, each row u(a) v(0) is formed once, on first use, and kept
    in plain dicts owned by the returned function and dropped with it.
    When v right-shifts, v(b) = v(0) t^b, so u(a) v(b) is the row u(a) v(0)
    shifted by b.
    """
    shifts = alg.right_shifts(v)
    phi_u: dict = {}  # a -> u(a)
    phi_v: dict = {}  # b -> v(b)
    rows: dict = {}  # a -> u(a) v(0), when v right-shifts
    products: dict = {}  # (a, b) -> coordinates of u(a) v(b)

    def product(a: int, b: int) -> dict:
        coords = products.get((a, b))
        if coords is not None:
            return coords
        kb = 0 if shifts else b
        if a not in phi_u:
            phi_u[a] = alg.phi(u, a)
        if kb not in phi_v:
            phi_v[kb] = alg.phi(v, kb)
        x, y = phi_u[a], phi_v[kb]
        if x.is_zero() or y.is_zero():
            coords = {}
        elif shifts:
            if a not in rows:
                rows[a] = alg.model_mul(x, y)
            coords = alg.model_coords(rows[a].shift(b))
        else:
            coords = alg.model_coords(alg.model_mul(x, y))
        products[a, b] = coords
        return coords

    def combination(n: int, l: int, m: int) -> dict:
        acc: dict = {}
        for j in range(n + 1):
            c = -gen_binom(n, j) if j % 2 else gen_binom(n, j)
            add_scaled(acc, product(l - j, m + j), c)
        return acc

    return combination


class IdentityReport(Record):
    def __init__(self, self_locality, failures: list | None = None):
        self.ok = not failures
        self.self_locality = self_locality
        self.exactly_one = self_locality == 1
        self.failures = [] if failures is None else failures

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "self_locality": repr(self.self_locality),
            "exactly_one": self.exactly_one,
            "failures": list(self.failures),
        }


def identity_report(alg, e) -> IdentityReport:
    """Is e a conformal identity: e (0) f = f for all f, with N(e, e) <= 1?

    Checking the unit law on generators only is enough: the order-0
    associativity expansion gives e (0) (u (n) v) = (e (0) u) (n) v, so the
    law propagates through products, and (d a)(0) b = 0 makes the fixed set
    stable under d and Q-linear combinations.
    """
    failures = []
    for name, g in alg.generator_items():
        if alg.nth(e, g, 0) != g:
            failures.append(f"e (0) {name} != {name}")
    self_loc = alg.locality(e, e)
    if self_loc is not ALL_ZERO and self_loc > 1:
        failures.append(f"self-locality degree {self_loc} exceeds 1")
    if e.is_zero():
        failures.append("the zero element is not an identity")
    return IdentityReport(self_loc, failures)


def left_annihilator_probe(alg, dop_degree_bound: int = 3):
    """Elements killed by every left product against the generators.

    Candidate space: d^p g over the declared generators, p <= the degree
    bound; conditions: candidate (n) g = 0 for every generator g and every n
    up to the pair's scan bound.  Returns a list of independent annihilating
    elements (empty when the probe finds none).  A probe, not a decision
    procedure: it sees only the candidate space up to the bound.
    """
    gens = alg.generator_items()
    cands = []
    for name, g in gens:
        for p in range(dop_degree_bound + 1):
            cands.append((f"d^{p} {name}", alg.apply_dop_power(g, p)))
    rows: dict = {}  # (generator, n, coordinate) -> its condition on the candidates
    for col, (_, cand) in enumerate(cands):
        for gname, g in gens:
            prods = alg.nth_orders(cand, g, 0, alg.locality_scan_bound(cand, g))
            for n, prod in enumerate(prods):
                for coord, c in alg.coordinates(prod).items():
                    rows.setdefault((gname, n, coord), [0] * len(cands))[col] += c

    from .linalg import dense_nullspace

    out = []
    for combo in dense_nullspace(list(rows.values()), len(cands)):
        elem = alg.zero_elem()
        for c, (_, cand) in zip(combo, cands):
            if c != 0:
                elem = elem + cand * c
        if not elem.is_zero():
            out.append(elem)
    return out
