"""Differential conformal algebras.

Over a pair (A, delta) with delta locally nilpotent, the distribution
f_a = sum_n a t^n z^(-n-1) attached to a in A generates a conformal algebra
inside the formal distributions over the skew Laurent ring A[t, t^-1; delta].
An element here is a finite combination sum_a q_a(d) f_a with q_a in Q[d] and
a running over the canonical basis of A.  Products reduce to the primitive
rule

    f_a (m) f_b = (-1)^m f_{a * delta^m(b)}

with d pushed out of both slots by the engine in `products`.

Coefficients live back in the skew ring: the k-th coefficient of f_a is
a t^k, and d acts by (d u)(k) = -k u(k-1).  The brute-force oracle

    (u (n) v)(k) = sum_j (-1)^j C(n, j) u(n-j) * v(k+j)

recomputes every product through skew-ring multiplication alone and anchors
all correctness testing of the symbolic route.
"""

from __future__ import annotations

from .exact_arith import DOp, rat
from .ore_skew import BaseAlgebra, Derivation, OreRing, SkewLaurent
from .products import ALL_ZERO, ConformalAlgebra, Elem, terms_normal_form
from .record import Record

ConfElem = Elem  # the public name of the shared element class


class DifferentialAlgebra(ConformalAlgebra):
    """A (base, delta) pair with named generating distributions."""

    # benchmarks/tracing.py wraps these by name in this class's own namespace
    coordinates = ConformalAlgebra.coordinates
    format_elem = ConformalAlgebra.format_elem
    nth = ConformalAlgebra.nth
    locality = ConformalAlgebra.locality
    locality_coeff_sum = ConformalAlgebra.locality_coeff_sum

    def __init__(self, base: BaseAlgebra, delta: Derivation, generators: dict | None = None,
                 name: str = "diff"):
        self.base = base
        self.delta = delta
        self.ore = OreRing(base, delta)
        self._orbits: dict = {}  # basis key -> delta.orbit of that basis element
        self._basis: dict = {}  # basis key -> that basis element
        gens = {}
        for gname, val in (generators or {}).items():
            if isinstance(val, Elem):
                raise ValueError(
                    f"generator {gname!r} must be a base-algebra value, not a conformal element"
                )
            gens[gname] = self.primitive(val)
        super().__init__(name, gens)

    def _defining(self) -> tuple:
        return self.name, self.base, self.delta, [(n, g.terms) for n, g in self.generators.items()]

    def primitive(self, a) -> Elem:
        """f_a for a base element a."""
        return Elem(
            self, {key: DOp.const(c) for key, c in self.base.decompose(a).items()}
        )

    def symbol_name(self, key) -> str:
        return f"f[{self.base.describe_key(key)}]"

    # -- products --------------------------------------------------------------

    def _orbit(self, bkey) -> list:
        """The nonzero iterates of delta on the basis element with key bkey (cached)."""
        orbit = self._orbits.get(bkey)
        if orbit is None:
            orbit = self._orbits[bkey] = self.delta.orbit(self.base.basis_element(bkey))
        return orbit

    def _base_orders(self, akey, bkey) -> int:
        """f_a (m) f_b = 0 once delta^m kills b: m stays below b's orbit length."""
        return len(self._orbit(bkey))

    def _base_case(self, akey, m: int, bkey) -> dict:
        orbit = self._orbit(bkey)
        if m >= len(orbit):
            return {}
        a = self._basis.get(akey)
        if a is None:
            a = self._basis[akey] = self.base.basis_element(akey)
        sign, make = -1 if m % 2 else 1, DOp._make
        prod = self.base.decompose(a * orbit[m])
        return {key: make({0: rat(sign * c)}) for key, c in prod.items()}

    # -- coefficients and the oracle --------------------------------------------

    def coefficient(self, u: Elem, k: int) -> SkewLaurent:
        """k-th coefficient of u in A[t, t^-1; delta]."""
        by_exp: dict = {}
        for key, exp, c in terms_normal_form(u.terms, k):
            by_exp.setdefault(exp, {})[key] = c
        from_coords = self.base.from_coords
        return SkewLaurent(self.ore, {exp: from_coords(cs) for exp, cs in by_exp.items()})

    def oracle(self, u: Elem, v: Elem, n: int, k: int) -> SkewLaurent:
        """(u (n) v)(k) computed purely from coefficients in the skew ring."""
        return self.locality_coeff_sum(u, v, n, n, k)

    # -- locality ----------------------------------------------------------------

    def support_nilpotency(self, u: Elem) -> int:
        """Max nilpotency index of delta over u's basis support (0 for u = 0)."""
        return max((len(self._orbit(key)) for key in u.terms), default=0)

    def locality_scan_bound(self, u: Elem, v: Elem) -> int:
        """Provable bound: products of u and v vanish above this order."""
        return u.max_dop_degree() + v.max_dop_degree() + self.support_nilpotency(v)

    # -- coefficient model hooks used by growth ----------------------------------

    def phi(self, u: Elem, k: int) -> SkewLaurent:
        return self.coefficient(u, k)

    def phi0_coords(self, u: Elem) -> dict:
        """Coordinates of the 0-th coefficient over the base's basis.

        The 0-th coefficient sits at t^0: (d^p f_a)(0) = 0 for p >= 1.
        """
        return self.base.decompose(self.phi0_base(u))

    def phi0_base(self, u: Elem):
        """The 0-th coefficient as a base-algebra element."""
        c0 = self.coefficient(u, 0)
        return c0.coeffs.get(0, self.base.zero())

    def model_zero(self) -> SkewLaurent:
        return self.ore.zero()

    def model_coords(self, m: SkewLaurent) -> dict:
        return m.coords()

    def model_mul(self, a: SkewLaurent, b: SkewLaurent) -> SkewLaurent:
        return a * b

    def right_shifts(self, v: Elem) -> bool:
        """For a d-free v, phi(v, k) = phi(v, 0) t^k: the k-th coefficient of f_a is a t^k."""
        return not v.max_dop_degree()


class DongReport(Record):
    """Result of a mutual-locality sweep over one triple.

    `ok` is always True and `witness` always None: each recorded degree is
    the largest order at which `locality`'s downward scan found a nonzero
    product, so every product above it is zero by construction.  The record
    is exported from `confal` and read by the tests and by the `weyl.dong`
    job of `benchmarks/workloads.py`; the CLI's `check` states the lemma
    instead of running it.
    """

    def __init__(self, max_order: int, degrees: dict | None = None):
        self.ok = True
        self.max_order = max_order
        self.degrees = {} if degrees is None else degrees
        self.witness = None

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "max_order": self.max_order,
            "degrees": {str(k): repr(v) for k, v in sorted(self.degrees.items())},
            "witness": self.witness,
        }


def dong_check(u, v, w, max_order: int) -> DongReport:
    """Record the locality degrees of u (n) v with w (both sides) for n <= max_order.

    Works for any algebra exposing nth_orders/locality; the locality degrees
    of the pairs are recorded too.  The products u (n) v are formed once, in
    one range, and `locality` forms the products of each pair.  The
    coefficient oracle, not this sweep, is the independent check of those
    products.  `benchmarks/tracing.py` wraps this function by name.
    """
    if max_order < 0:
        raise ValueError("the mutual-locality order bound must be nonnegative")
    alg = u.alg
    rep = DongReport(max_order)
    for label, (a, b) in (("u,v", (u, v)), ("v,w", (v, w)), ("u,w", (u, w))):
        rep.degrees[label] = alg.locality(a, b)
    for n, p in enumerate(alg.nth_orders(u, v, 0, max_order)):
        for label, (a, b) in ((f"(u {n} v),w", (p, w)), (f"w,(u {n} v)", (w, p))):
            rep.degrees[label] = ALL_ZERO if p.is_zero() else alg.locality(a, b)
    return rep
