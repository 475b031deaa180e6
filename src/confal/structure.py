"""Constructive structure algorithms.

Three families of tools, all exact:

* unital recognition — given an algebra with a conformal identity e (supplied
  or found in the generator span), peel every element into d-layers via
  products against e, rebuild the quotient by the image of d as a concrete
  algebra with basis, product table, and induced derivation
  delta[u] = -[e (1) u], and cross-check the result from several independent
  directions (coefficient polynomial fit, iterated-derivation law,
  Leibniz on the recovered table, and a product round-trip);

* identity transport — for a finite-dimensional unital A and nilpotent r,
  build the differential algebra over (A, ad r) and the transported identity
  e' = sum_k (1/k!) d^k f_{r^k}, verifying the identity laws afterwards;

* delta-stable ideal probing — saturate seed elements of the coefficient
  algebra under the derivation and one-sided multiplications inside a degree
  filtration, detect units, and sweep for proper stable ideals of the
  subalgebra generated by the zeroth coefficients of the declared generators.

Closures are word-length- or degree-bounded; anything dropped at a boundary
is recorded, never silently discarded.
"""

from __future__ import annotations

import math
import random

from .diff_conformal import DifferentialAlgebra
from .errors import (
    ClosureBoundExceeded,
    ConfalError,
    MismatchWitness,
    NotNilpotent,
    NotUnital,
)
from .exact_arith import DOp, add_scaled, ratio
from .linalg import RowSpace, dense_solve
from .ore_skew import FinDim, MatPolyRing, ad_derivation
from .products import ALL_ZERO
from .record import Record


# -- d-layer decomposition ---------------------------------------------------------


def class_coords(alg, u) -> dict:
    """Coordinates of the class of u modulo the image of d."""
    return {key: c for (key, p), c in alg.coordinates(u).items() if p == 0}


def canonical_rep(alg, u):
    """The canonical representative of [u]: the d-free part of u."""
    terms = {}
    for key, q in u.terms.items():
        c = q.coeffs.get(0)
        if c:
            terms[key] = DOp.const(c)
    return type(u)(alg, terms)


def find_identity(alg):
    """A conformal identity in the Q-span of the declared generators.

    Solves e (0) g_j = g_j for all generators g_j; d-shifted candidates are
    pointless here because (d u) (0) v = 0.  Raises NotUnital when the system
    has no solution.  The caller still owes a full identity_report pass.
    """
    gens = alg.generator_items()
    if not gens:
        raise NotUnital("no generators to search")
    products = [
        [alg.coordinates(alg.nth(gi, gj, 0)) for _, gj in gens] for _, gi in gens
    ]
    targets = [alg.coordinates(g) for _, g in gens]
    keys = sorted(
        {k for row in products for p in row for k in p}
        | {k for t in targets for k in t}
    )
    rows, rhs = [], []
    for j in range(len(gens)):
        for key in keys:
            rows.append([products[i][j].get(key, 0) for i in range(len(gens))])
            rhs.append(targets[j].get(key, 0))
    sol = dense_solve(rows, rhs)
    if sol is None:
        raise NotUnital("no conformal identity exists in the span of the generators")
    e = alg.zero_elem()
    for c, (_, g) in zip(sol, gens):
        if c != 0:
            e = e + g * c
    return e


def peel_components(alg, f, e):
    """The d-layers of f against the identity e.

    Returns [(n, c_n), ...] with n strictly decreasing and
    f = sum_n (-1)^n d^n c_n, where c_n = (1/n!) (f (n) e).  Raises NotUnital
    when peeling gets stuck, which means e is not an identity.
    """
    comps = []
    rest = f
    prev_top = None
    while not rest.is_zero():
        top = alg.locality(rest, e)
        if top is ALL_ZERO or (prev_top is not None and top >= prev_top):
            raise NotUnital(
                "peeling against the identity candidate does not terminate; "
                "it is not a conformal identity"
            )
        comp = alg.nth(rest, e, top) * ratio(1, math.factorial(top))
        comps.append((top, comp))
        step = alg.apply_dop_power(comp, top)
        if top % 2:
            step = -step
        rest = rest - step
        prev_top = top
    return comps


def coefficient_fit_degree(alg, f) -> int:
    """Fitted degree of n -> (n-shifted) coefficients of f.

    The k-th coefficient of a d-layer at depth p contributes a degree-p
    polynomial in k once the t-exponent is renormalized by -k, so the fitted
    degree must equal the top d-degree of f.  An independent probe of the
    coefficient functor: it never looks at the symbolic d-degree.
    """
    from .growth import difference_table

    n_hi = f.max_dop_degree() + 3
    seqs: dict = {}
    for n in range(n_hi + 1):
        for (key, exp), c in alg.model_coords(alg.phi(f, n)).items():
            seqs.setdefault((key, exp - n), [0] * (n_hi + 1))[n] = c
    best = -1
    for vals in seqs.values():
        # the interpolating degree: one less than the first all-zero row
        table = difference_table(vals, n_hi)
        best = max(best, next((d - 1 for d, row in enumerate(table) if not any(row)),
                              len(table) - 1))
    return best


def iterated_derivation_check(alg, e):
    """(-e (1) .)^n == (-1)^n e (n) .  on the declared generators, for n = 1, 2, 3."""
    failures = []
    for name, g in alg.generator_items():
        cur = g
        for n, rhs in enumerate(alg.nth_orders(e, g, 1, 3), 1):
            cur = -alg.nth(e, cur, 1)
            if n % 2:
                rhs = -rhs
            if cur != rhs:
                failures.append(f"iterated-derivation law fails on {name} at n={n}")
                break
    return failures


# -- table arithmetic over a recovered basis ---------------------------------------


def _vec_mul(product: dict, v: dict, w: dict):
    """Bilinear product of coordinate vectors; None if an entry is unresolved."""
    out: dict = {}
    for i, a in v.items():
        for j, b in w.items():
            entry = product.get((i, j))
            if entry is None:
                return None
            add_scaled(out, entry, a * b)
    return out


def _vec_image(images, v: dict) -> dict:
    """sum_i v_i * images[i]: v under the linear map taking basis vector i to images[i]."""
    out: dict = {}
    for i, a in v.items():
        add_scaled(out, images[i], a)
    return out


# -- unital recognition -------------------------------------------------------------


class RecognitionResult(Record):
    """Recovered differential presentation of a unital algebra.

    basis/representatives index the recovered quotient-by-d algebra; product
    maps basis index pairs to coordinate vectors (None marks a product left
    unresolved at the word bound), delta maps each index to the coordinate
    vector of its induced derivative.  The cross-check flags record the
    independent verifications that ran, and each failed one adds its line
    to `failures`; `ok`, `dim`, `closed` and `delta_is_zero` are read off the
    other fields.
    """

    _uncompared = ("space",)  # the elimination state behind the other fields

    def __init__(self, algebra: str, identity, identity_elem, labels: list,
                 representatives: list, product: dict, delta: dict,
                 unit_coords: dict | None, generator_classes: dict, components: dict,
                 fit_ok: bool, dtilde_ok: bool, leibniz_ok: bool,
                 failures: list | None = None, log: list | None = None,
                 space: RowSpace | None = None):
        self.algebra = algebra
        self.ok = identity.ok and not failures
        self.identity = identity  # an IdentityReport
        self.identity_elem = identity_elem
        self.labels = labels
        self.representatives = representatives
        self.dim = len(labels)
        self.closed = all(entry is not None for entry in product.values())
        self.product = product
        self.delta = delta
        self.delta_is_zero = all(not v for v in delta.values())
        self.unit_coords = unit_coords
        self.generator_classes = generator_classes
        self.components = components
        self.fit_ok = fit_ok
        self.dtilde_ok = dtilde_ok
        self.leibniz_ok = leibniz_ok
        self.failures = [] if failures is None else failures
        self.log = [] if log is None else log
        self.space = space

    def delta_vector(self, label: str) -> dict:
        """Induced derivative of a basis element, keyed by basis labels."""
        i = self.labels.index(label)
        return {self.labels[k]: c for k, c in self.delta[i].items()}

    def product_vector(self, left: str, right: str):
        i, j = self.labels.index(left), self.labels.index(right)
        entry = self.product[(i, j)]
        if entry is None:
            return None
        return {self.labels[k]: c for k, c in entry.items()}

    def to_findim(self) -> FinDim:
        """The recovered table as a FinDim algebra (requires a closed table)."""
        if not self.closed:
            raise ClosureBoundExceeded(
                "the recovered table is not closed; no finite-dimensional model"
            )
        d = self.dim
        table = []
        for i in range(d):
            row = []
            for j in range(d):
                entry = self.product[(i, j)]
                row.append([entry.get(k, 0) for k in range(d)])
            table.append(row)
        return FinDim(table, self.labels)

    def to_json_dict(self):
        def vec_str(v):
            if v is None:
                return None
            return {self.labels[k]: str(c) for k, c in sorted(v.items())}

        return {
            "algebra": self.algebra,
            "ok": self.ok,
            "identity": self.identity.to_json_dict(),
            "identity_elem": repr(self.identity_elem),
            "basis": list(self.labels),
            "dim": self.dim,
            "closed": self.closed,
            "product": {
                f"{self.labels[i]} * {self.labels[j]}": vec_str(entry)
                for (i, j), entry in sorted(self.product.items())
            },
            "delta": {self.labels[i]: vec_str(v) for i, v in sorted(self.delta.items())},
            "delta_is_zero": self.delta_is_zero,
            "unit_coords": vec_str(self.unit_coords),
            "generator_classes": {g: vec_str(v) for g, v in self.generator_classes.items()},
            "components": {
                g: [[n, repr(c)] for n, c in comps] for g, comps in self.components.items()
            },
            "checks": {
                "coefficient_fit": self.fit_ok,
                "iterated_derivation": self.dtilde_ok,
                "leibniz_on_table": self.leibniz_ok,
            },
            "failures": list(self.failures),
            "log": list(self.log),
        }


RECOGNITION_CAP = 64  # basis cap of recognize_unital


def recognize_unital(
    alg,
    e=None,
    word_bound: int = 8,
) -> RecognitionResult:
    """Recover a differential presentation from an algebra with identity e.

    When e is omitted it is searched for in the generator span.  The recovered
    algebra is the subalgebra of the quotient by the image of d generated by
    the generator classes, closed under the induced derivation.  Every class
    goes through one resolve step: it is expressed over the span, or added to
    the basis when outside it.  Products whose word length exceeds word_bound
    never add to the basis; each is formed once, after the closure, expressed
    over the final span, and reported as unresolved (closed=False) when it
    escapes it.
    """
    from .axioms import identity_report

    if word_bound < 1:
        raise ValueError("the word bound must be at least 1")
    if e is None:
        e = find_identity(alg)
    id_rep = identity_report(alg, e)
    if not id_rep.ok:
        raise NotUnital(
            "identity verification failed: " + "; ".join(id_rep.failures)
        )

    log: list = []
    labels: list = []
    reps: list = []
    lengths: list = []
    space = RowSpace()
    product: dict = {}
    delta: dict = {}

    def resolve(elem, label, length):
        """The class of elem over the span, added as a new basis vector if outside it."""
        vec = class_coords(alg, elem)
        expr = space.express(vec)
        if expr is not None:
            return expr
        idx = len(reps)
        if idx >= RECOGNITION_CAP:
            raise ClosureBoundExceeded(
                f"recovered basis exceeded the cap of {RECOGNITION_CAP} elements"
            )
        space.add(vec)
        labels.append(label)
        reps.append(canonical_rep(alg, elem))
        lengths.append(length)
        return {idx: 1}

    generator_classes: dict = {}
    components: dict = {}
    for name, g in alg.generator_items():
        components[name] = peel_components(alg, g, e)
        generator_classes[name] = resolve(g, name, 1)
        if not generator_classes[name]:
            log.append(f"generator {name} has a trivial class (pure d-image)")

    # products past the word bound, in first-visit order; each is formed once,
    # after the closure, since it can never add to the basis
    deferred: list = []
    size = None
    while size != len(reps):
        size = len(reps)
        for i in range(len(reps)):
            if i not in delta:
                delta[i] = resolve(-alg.nth(e, reps[i], 1), f"D({labels[i]})", lengths[i])
        for i in range(len(reps)):
            for j in range(len(reps)):
                if (i, j) in product:
                    continue
                length = lengths[i] + lengths[j]
                if length > word_bound:
                    product[(i, j)] = None
                    deferred.append((i, j))
                else:
                    product[(i, j)] = resolve(alg.nth(reps[i], reps[j], 0),
                                              f"{labels[i]}*{labels[j]}", length)

    for i, j in deferred:
        product[(i, j)] = space.express(class_coords(alg, alg.nth(reps[i], reps[j], 0)))
        if product[(i, j)] is None:
            log.append(f"product left unresolved at the word bound: {labels[i]} * {labels[j]}")

    failures: list = []
    fit_ok = True
    for name, g in alg.generator_items():
        if g.is_zero():
            continue
        top = g.max_dop_degree()
        fitted = coefficient_fit_degree(alg, g)
        peel_top = components[name][0][0]
        if fitted != top:
            fit_ok = False
            failures.append(
                f"coefficient fit degree {fitted} != d-degree {top} on {name}"
            )
        if peel_top != top:
            fit_ok = False
            failures.append(
                f"top product order against e is {peel_top!r}, expected {top}, on {name}"
            )
    dt_failures = iterated_derivation_check(alg, e)
    dtilde_ok = not dt_failures
    failures.extend(dt_failures)

    leibniz_ok = True
    for i in range(len(reps)):
        for j in range(len(reps)):
            entry = product[(i, j)]
            if entry is None:
                continue
            lhs = _vec_image(delta, entry)
            rhs_a = _vec_mul(product, delta[i], {j: 1})
            rhs_b = _vec_mul(product, {i: 1}, delta[j])
            if rhs_a is None or rhs_b is None:
                log.append(
                    f"Leibniz check skipped on ({labels[i]}, {labels[j]}): "
                    "an intermediate product is unresolved"
                )
                continue
            if add_scaled(rhs_a, rhs_b, 1) != lhs:
                leibniz_ok = False
                failures.append(
                    f"induced derivation breaks Leibniz on ({labels[i]}, {labels[j]})"
                )

    return RecognitionResult(
        algebra=getattr(alg, "name", "algebra"), identity=id_rep, identity_elem=e,
        labels=labels, representatives=reps, product=product, delta=delta,
        unit_coords=space.express(class_coords(alg, e)), generator_classes=generator_classes,
        components=components, fit_ok=fit_ok, dtilde_ok=dtilde_ok, leibniz_ok=leibniz_ok,
        failures=failures, log=log, space=space,
    )


def recognition_roundtrip(alg, result: RecognitionResult, n_max: int = 2) -> dict:
    """Replay products through the recovered tables.

    For basis representatives u, v and n <= n_max the class of u (n) v must
    equal (-1)^n times the table product of [u] with the n-th table derivative
    of [v].  Pairs needing an unresolved table entry, or whose product escapes
    the recovered span, are skipped and logged.  Raises MismatchWitness on the
    first disagreement.

    The representatives' classes are independent, so the class of u (n) v
    equals the table value sum_k rhs_k [rep_k] exactly when expressing it
    over them gives rhs; the classes are compared directly, and the span is
    asked only to tell a skip from a mismatch.
    """
    if n_max < 0:
        raise ValueError("the round-trip product order must be nonnegative")
    space = result.space
    reps = result.representatives
    rep_coords = [class_coords(alg, u) for u in reps]
    checked = skipped = 0
    log = []
    for i in range(result.dim):
        for j in range(result.dim):
            for n, prod in enumerate(alg.nth_orders(reps[i], reps[j], 0, n_max)):
                w = class_coords(alg, prod)
                dj = {j: 1}
                for _ in range(n):
                    dj = _vec_image(result.delta, dj)
                rhs = _vec_mul(result.product, {i: -1 if n % 2 else 1}, dj)
                if rhs is not None and _vec_image(rep_coords, rhs) == w:
                    checked += 1
                    continue
                # with no table value, the span only picks the skip reason
                lhs = space.express(w) if rhs is not None else None
                if lhs is None:
                    escapes = rhs is not None or not space.contains(w)
                    skipped += 1
                    log.append(
                        f"skipped ({result.labels[i]}, {result.labels[j]}, n={n}): "
                        + ("product escapes the span" if escapes else "unresolved table entry")
                    )
                    continue
                if lhs != rhs:
                    raise MismatchWitness(
                        result.labels[i], result.labels[j], n,
                        detail=f"direct class {lhs} vs table value {rhs}",
                    )
                checked += 1
    return {"checked": checked, "skipped": skipped, "log": log}


# -- identity transport --------------------------------------------------------------


class TransportResult(Record):
    def __init__(self, algebra: DifferentialAlgebra, identity, nil_index: int, report):
        self.algebra = algebra
        self.identity = identity
        self.nil_index = nil_index
        self.report = report  # an IdentityReport

    def to_json_dict(self):
        return {
            "algebra": self.algebra.name,
            "identity": repr(self.identity),
            "nil_index": self.nil_index,
            "report": self.report.to_json_dict(),
        }


def transport_identity(base: FinDim, r, name: str | None = None) -> TransportResult:
    """The differential algebra over (A, ad r) with its transported identity.

    A must be finite-dimensional and unital; r must satisfy r^m = 0 for some
    m <= dim A (raises NotNilpotent otherwise).  The transported identity is
    e' = sum_{k<m} (1/k!) d^k f_{r^k}; the identity laws are re-verified and a
    failure raises, since the construction guarantees them.
    """
    from .axioms import identity_report

    if not isinstance(base, FinDim):
        raise TypeError("identity transport is defined over finite-dimensional algebras")
    powers = [base.one()]
    cur = r
    m = None
    for k in range(1, base.dim + 1):
        if cur.is_zero():
            m = k
            break
        powers.append(cur)
        cur = cur * r
    if m is None:
        raise NotNilpotent(
            f"the element is not nilpotent within m <= dim = {base.dim}"
        )
    delta = ad_derivation(base, r)
    gens = {gname: val for gname, val in base.ring_generators()}
    alg = DifferentialAlgebra(base, delta, gens, name=name or "transport")
    e = alg.zero_elem()
    for k in range(m):
        term = alg.apply_dop_power(alg.primitive(powers[k]), k)
        e = e + term * ratio(1, math.factorial(k))
    rep = identity_report(alg, e)
    if not rep.ok:
        raise ConfalError(
            "transport postcondition failed: " + "; ".join(rep.failures)
        )
    return TransportResult(algebra=alg, identity=e, nil_index=m, report=rep)


# -- delta-stable ideal probing --------------------------------------------------------


class IdealClosure(Record):
    """Span of a delta-stable one-or-two-sided multiplication closure.

    The closure lives inside the degree filtration of the coefficient
    algebra; `dropped` counts products or derivatives discarded for exceeding
    the degree bound (saturated=False then flags that the basis is only a
    lower bound for the true closure).  `unit_found` holds when a
    `unit_reason` was found.
    """

    _uncompared = ("space",)  # the elimination state behind the other fields

    def __init__(self, degree_bound: int, basis: list, unit_reason: str | None, dropped: int,
                 log: list | None = None, space: RowSpace | None = None, base=None):
        self.degree_bound = degree_bound
        self.basis = basis
        self.dim = len(basis)
        self.unit_found = unit_reason is not None
        self.unit_reason = unit_reason
        self.saturated = dropped == 0
        self.dropped = dropped
        self.log = [] if log is None else log
        self.space = space
        self.base = base

    def contains(self, elem) -> bool:
        return self.space.contains(self.base.decompose(elem))

    def to_json_dict(self):
        shown = [self.base.format(b) for b in self.basis[:32]]
        if len(self.basis) > 32:
            shown.append(f"... ({len(self.basis) - 32} more)")
        return {
            "degree_bound": self.degree_bound,
            "dim": self.dim,
            "basis": shown,
            "unit_found": self.unit_found,
            "unit_reason": self.unit_reason,
            "saturated": self.saturated,
            "dropped": self.dropped,
            "log": list(self.log),
        }


def _detect_unit(base, space: RowSpace, basis) -> str | None:
    """Why the span holds a unit, or None when no reason is found."""
    unit = base.unit
    if unit is not None and space.contains(base.decompose(unit)):
        return "the unit lies in the span"
    if isinstance(base, MatPolyRing):
        for b in basis:
            det = b.det()
            if not det.is_zero() and det.is_const():
                return f"invertible element in the span (determinant {det})"
    return None


SATURATION_CAP = 4096  # basis cap of the saturation loops


def _saturate(base, seeds, moves, degree_bound: int, what: str, log=None, until=None):
    """Span closure of seeds under moves, inside the degree filtration.

    Elements are taken up in the order they joined the basis, and each one u
    spreads to the (element, note) pairs moves(u, basis) yields; the pairs
    are consumed one at a time, so moves sees every element added before it
    yields the next.  An element is dropped (and counted) above the degree
    bound, skipped when it lies in the span, and added otherwise; a new
    element past SATURATION_CAP (read at call time) raises
    ClosureBoundExceeded.  When a vector `until` is given, its residual
    modulo the span is kept, each addition reducing it only by the new row
    (a row is zero at every earlier pivot), and None is returned at the
    first addition that puts it in the span, so a closure that stops before
    reaching the cap never raises ClosureBoundExceeded.  The first 8
    additions are named in log when one is given.  Returns (space, basis,
    dropped).
    """
    basis_cap = SATURATION_CAP
    space = RowSpace(track=False)
    basis: list = []
    dropped = 0
    left = until

    def push(elem, note):
        """Take elem up; True once the span holds `until`."""
        nonlocal dropped, left
        if elem.is_zero():
            return
        if elem.degree() > degree_bound:
            dropped += 1
            return
        vec = base.decompose(elem)
        if len(basis) >= basis_cap:
            if space.contains(vec):
                return
            raise ClosureBoundExceeded(f"{what} exceeded the basis cap of {basis_cap}")
        if not space.add(vec):
            return
        basis.append(elem)
        if log is not None and len(basis) <= 8:
            log.append(f"added {base.format(elem)} ({note})")
        if left is not None:
            left = space.residual(left)
            return not left

    for s in seeds:
        if push(s, "seed"):
            return None
    done = 0
    while done < len(basis):
        u = basis[done]
        done += 1
        for elem, note in moves(u, basis):
            if push(elem, note):
                return None
    return space, basis, dropped


def delta_stable_closure(
    base,
    delta,
    seeds,
    degree_bound: int = 5,
    generators=None,
    until=None,
) -> IdealClosure | None:
    """Saturate seeds under delta and multiplication by the generator set.

    Multiplication is applied on both sides, so within the degree filtration
    the result spans the delta-stable two-sided ideal generated by the seeds
    relative to the given (name, element) generator pairs (the ring
    generators by default).  `until` is passed to _saturate: the closure is
    None once its span holds that vector.
    """
    gens = list(base.ring_generators()) if generators is None else generators

    def moves(u, basis):
        yield delta(u), "derivative"
        for gname, g in gens:
            yield g * u, f"left by {gname}"
            yield u * g, f"right by {gname}"

    log: list = []
    saturated = _saturate(base, seeds, moves, degree_bound, "ideal closure", log, until)
    if saturated is None:
        return None
    space, basis, dropped = saturated
    return IdealClosure(degree_bound, basis, _detect_unit(base, space, basis), dropped,
                        log=log, space=space, base=base)


def coefficient_subalgebra(alg: DifferentialAlgebra, degree_bound: int = 5):
    """Basis of the delta-closed subalgebra generated by the generators'
    zeroth coefficients, within the degree filtration.

    Raises ClosureBoundExceeded past SATURATION_CAP basis elements.
    """
    base, delta = alg.base, alg.delta

    def moves(u, basis):
        yield delta(u), None
        for b in list(basis):  # the basis as it stands after delta(u)
            yield u * b, None
            yield b * u, None

    seeds = [alg.phi0_base(g) for _, g in alg.generator_items()]
    _, basis, dropped = _saturate(
        base, seeds, moves, degree_bound, "coefficient subalgebra")
    return basis, dropped == 0


class SimplicityReport(Record):
    """Outcome of a sweep for proper delta-stable ideals.

    A named witness is conclusive (the subalgebra is not simple as a
    delta-stable algebra within the filtration); finding none is only
    evidence, bounded by the trials and the degree filtration.
    `witness_found` holds when a witness is named.
    """

    def __init__(self, algebra: str, degree_bound: int, trials: int,
                 candidates_checked: int, subalgebra_dim: int,
                 witness: str | None = None, witness_missing: list | None = None,
                 witness_closure: IdealClosure | None = None, log: list | None = None):
        self.algebra = algebra
        self.degree_bound = degree_bound
        self.trials = trials
        self.candidates_checked = candidates_checked
        self.subalgebra_dim = subalgebra_dim
        self.witness_found = witness is not None
        self.witness = witness
        self.witness_missing = [] if witness_missing is None else witness_missing
        self.witness_closure = witness_closure
        self.log = [] if log is None else log

    def to_json_dict(self):
        return {
            "algebra": self.algebra,
            "degree_bound": self.degree_bound,
            "trials": self.trials,
            "candidates_checked": self.candidates_checked,
            "subalgebra_dim": self.subalgebra_dim,
            "witness_found": self.witness_found,
            "witness": self.witness,
            "witness_missing": list(self.witness_missing),
            "witness_closure": (
                self.witness_closure.to_json_dict() if self.witness_closure else None
            ),
            "log": list(self.log),
        }


def simplicity_probe(
    alg: DifferentialAlgebra,
    trials: int = 50,
    degree_bound: int = 5,
    seed: int = 0,
) -> SimplicityReport:
    """Sweep for a proper nonzero delta-stable ideal of the coefficient
    subalgebra attached to a differential instance.

    Deterministic pass first: every subalgebra basis element is tried as a
    seed.  Then `trials` pseudo-random small-coefficient combinations drawn
    from random.Random(seed).  A witness is an ideal closure that misses part
    of the subalgebra and contains no unit.

    A candidate's closure stops as soon as its span holds the unit of the
    base (when the base has one): such a closure is no witness, and the
    span only grows, so the report is the one full saturation gives.  One
    consequence for SATURATION_CAP: a closure that reaches the unit before
    the cap is rejected, where saturating it to the end could raise
    ClosureBoundExceeded; a closure that never holds the unit raises past
    the cap as before.
    """
    if not isinstance(alg, DifferentialAlgebra):
        raise TypeError("the simplicity probe runs on differential instances")
    if trials < 0 or degree_bound < 0:
        raise ValueError("the trial count and the degree bound must be nonnegative")
    base, delta = alg.base, alg.delta
    sub_basis, saturated = coefficient_subalgebra(alg, degree_bound)
    named = [(base.format(b), b) for b in sub_basis]
    log = []
    if not saturated:
        log.append("subalgebra basis is truncated by the degree bound")

    def candidates():
        """Basis elements, then random combinations drawn only as they are reached."""
        for n, b in named:
            yield f"basis element {n}", b
        rng = random.Random(seed)
        for k in range(trials):
            elem = base.zero()
            for b in sub_basis:
                c = rng.randint(-2, 2)
                if c:
                    elem = elem + b * c
            if not elem.is_zero():
                yield f"random combination #{k + 1}", elem

    until = None if base.unit is None else base.decompose(base.unit)
    checked, witness = 0, None
    for desc, s in candidates():
        checked += 1
        closure = delta_stable_closure(base, delta, [s], degree_bound, named, until)
        if closure is None:
            continue
        missing = [n for n, b in named if not closure.contains(b)]
        if missing and not closure.unit_found:
            witness = (f"{desc}: {base.format(s)}", missing, closure)
            break
    else:
        log.append("no proper delta-stable ideal found at this degree bound")
    text, missing, closure = witness or (None, None, None)
    return SimplicityReport(
        algebra=alg.name,
        degree_bound=degree_bound,
        trials=trials,
        candidates_checked=checked,
        subalgebra_dim=len(sub_basis),
        witness=text,
        witness_missing=missing,
        witness_closure=closure,
        log=log,
    )
