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

from dataclasses import dataclass, field
from fractions import Fraction

from .exact_arith import DOp, gen_binom, rat
from .ore_skew import BaseAlgebra, Derivation, OreRing, SkewLaurent, nilpotency_index
from .products import (
    nth_product_terms,
    terms_apply_dop,
    terms_clean,
    terms_key,
    terms_max_dop_degree,
    terms_normal_form,
)


class _AllZero:
    """Locality degree of a pair whose products all vanish."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AllZero"


ALL_ZERO = _AllZero()


class ConfElem:
    """Element of a differential conformal algebra: dict basis-key -> DOp."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "DifferentialAlgebra", terms: dict):
        self.alg = alg
        self.terms = terms_clean(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_dop_degree(self) -> int:
        return terms_max_dop_degree(self.terms)

    def key(self):
        return terms_key(self.terms)

    def _same(self, other: "ConfElem"):
        if self.alg is not other.alg:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        if not isinstance(other, ConfElem):
            return NotImplemented
        self._same(other)
        out = dict(self.terms)
        for k, q in other.terms.items():
            nq = out[k] + q if k in out else q
            if nq.is_zero():
                out.pop(k, None)
            else:
                out[k] = nq
        return ConfElem(self.alg, out)

    def __neg__(self):
        return ConfElem(self.alg, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ConfElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return ConfElem(self.alg, {k: q * c for k, q in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def derive(self) -> "ConfElem":
        """Apply d once."""
        return ConfElem(self.alg, {k: q.times_d() for k, q in self.terms.items()})

    def apply_dop(self, q: DOp) -> "ConfElem":
        return ConfElem(self.alg, terms_apply_dop(self.terms, q))

    def __eq__(self, other):
        if not isinstance(other, ConfElem):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __repr__(self):
        return self.alg.format_elem(self)


class DifferentialAlgebra:
    """A (base, delta) pair with named generating distributions."""

    kind = "differential"

    def __init__(self, base: BaseAlgebra, delta: Derivation, generators: dict | None = None,
                 name: str = "diff"):
        self.base = base
        self.delta = delta
        self.name = name
        self.ore = OreRing(base, delta)
        self._delta_pow_cache: dict = {}
        self.generators: dict = {}
        for gname, val in (generators or {}).items():
            self.generators[gname] = val if isinstance(val, ConfElem) else self.primitive(val)

    # -- element constructors -------------------------------------------------

    def primitive(self, a) -> ConfElem:
        """f_a for a base element a."""
        return ConfElem(
            self, {key: DOp.const(c) for key, c in self.base.decompose(a).items()}
        )

    def zero_elem(self) -> ConfElem:
        return ConfElem(self, {})

    def generator(self, name: str) -> ConfElem:
        return self.generators[name]

    def generator_items(self):
        return list(self.generators.items())

    # -- linear interface shared with the presented model ---------------------

    def add(self, u: ConfElem, v: ConfElem) -> ConfElem:
        return u + v

    def sub(self, u: ConfElem, v: ConfElem) -> ConfElem:
        return u - v

    def scale(self, u: ConfElem, c) -> ConfElem:
        return u * rat(c)

    def derive_elem(self, u: ConfElem) -> ConfElem:
        return u.derive()

    def apply_dop_power(self, u: ConfElem, p: int) -> ConfElem:
        return u.apply_dop(DOp.d(p)) if p else u

    def is_zero(self, u: ConfElem) -> bool:
        return u.is_zero()

    def eq(self, u: ConfElem, v: ConfElem) -> bool:
        return u == v

    def coordinates(self, u: ConfElem) -> dict:
        """Flatten to {(basis_key, d_power): Fraction}."""
        out = {}
        for key, q in u.terms.items():
            for p, c in q.coeffs.items():
                out[(key, p)] = c
        return out

    def format_elem(self, u: ConfElem) -> str:
        if u.is_zero():
            return "0"
        parts = []
        for key in sorted(u.terms):
            q = u.terms[key]
            name = f"f[{self.base.describe_key(key)}]"
            for p, c in sorted(q.coeffs.items()):
                head = name if p == 0 else (f"d*{name}" if p == 1 else f"d^{p}*{name}")
                if c == 1:
                    parts.append(head)
                elif c == -1:
                    parts.append(f"-{head}")
                else:
                    parts.append(f"{c}*{head}")
        text = parts[0]
        for t in parts[1:]:
            text += " - " + t[1:] if t.startswith("-") else " + " + t
        return text

    # -- products --------------------------------------------------------------

    def _delta_pow(self, bkey, m: int):
        """delta^m applied to the basis element with key bkey (cached)."""
        if m == 0:
            return self.base.basis_element(bkey)
        cached = self._delta_pow_cache.get((bkey, m))
        if cached is None:
            cached = self.delta(self._delta_pow(bkey, m - 1))
            self._delta_pow_cache[(bkey, m)] = cached
        return cached

    def _base_case(self, akey, m: int, bkey) -> dict:
        db = self._delta_pow(bkey, m)
        if self.base.is_zero(db):
            return {}
        prod = self.base.mul(self.base.basis_element(akey), db)
        sign = -1 if m % 2 else 1
        return {key: DOp.const(sign * c) for key, c in self.base.decompose(prod).items()}

    def nth(self, u: ConfElem, v: ConfElem, n: int) -> ConfElem:
        u._same(v)
        return ConfElem(self, nth_product_terms(u.terms, v.terms, n, self._base_case))

    # -- coefficients and the oracle --------------------------------------------

    def coefficient(self, u: ConfElem, k: int) -> SkewLaurent:
        """k-th coefficient of u in A[t, t^-1; delta]."""
        by_exp: dict = {}
        for key, exp, c in terms_normal_form(u.terms, k):
            by_exp.setdefault(exp, {})[key] = c
        from_coords = self.base.from_coords
        return SkewLaurent(self.ore, {exp: from_coords(cs) for exp, cs in by_exp.items()})

    def oracle(self, u: ConfElem, v: ConfElem, n: int, k: int) -> SkewLaurent:
        """(u (n) v)(k) computed purely from coefficients in the skew ring."""
        return self.locality_coeff_sum(u, v, n, n, k)

    def locality_coeff_sum(self, u: ConfElem, v: ConfElem, n: int, l: int, m: int) -> SkewLaurent:
        """sum_j (-1)^j C(n, j) u(l-j) v(m+j), the order-n locality combination."""
        if n < 0:
            raise ValueError("product order must be nonnegative")
        acc = self.ore.zero()
        for j in range(n + 1):
            c = gen_binom(n, j)
            if j % 2:
                c = -c
            acc = acc + (self.coefficient(u, l - j) * self.coefficient(v, m + j)).scale(c)
        return acc

    def model_is_zero(self, m: SkewLaurent) -> bool:
        return m.is_zero()

    # -- locality ----------------------------------------------------------------

    def support_nilpotency(self, u: ConfElem) -> int:
        """Max nilpotency index of delta over u's basis support (0 for u = 0)."""
        out = 0
        for key in u.terms:
            a = self.base.basis_element(key)
            out = max(out, nilpotency_index(self.delta, a))
        return out

    def locality_scan_bound(self, u: ConfElem, v: ConfElem) -> int:
        """Provable bound: products of u and v vanish above this order."""
        return u.max_dop_degree() + v.max_dop_degree() + self.support_nilpotency(v)

    def locality(self, u: ConfElem, v: ConfElem):
        """Largest n with u (n) v != 0, or ALL_ZERO."""
        if u.is_zero() or v.is_zero():
            return ALL_ZERO
        best = ALL_ZERO
        for n in range(self.locality_scan_bound(u, v) + 1):
            if not self.nth(u, v, n).is_zero():
                best = n
        return best

    # -- coefficient model hooks used by growth ----------------------------------

    def phi(self, u: ConfElem, k: int) -> SkewLaurent:
        return self.coefficient(u, k)

    def phi0_coords(self, u: ConfElem) -> dict:
        """Coordinates of the 0-th coefficient over the base's basis.

        Raises if the 0-th coefficient does not sit at t^0 (it always does:
        (d^p f_a)(0) = 0 for p >= 1).
        """
        c0 = self.coefficient(u, 0)
        for n in c0.coeffs:
            if n != 0:
                raise ValueError("zeroth coefficient escaped t^0")
        return self.base.decompose(c0.coeffs.get(0, self.base.zero()))

    def phi0_base(self, u: ConfElem):
        """The 0-th coefficient as a base-algebra element."""
        c0 = self.coefficient(u, 0)
        return c0.coeffs.get(0, self.base.zero())

    def model_coords(self, m: SkewLaurent) -> dict:
        return m.coords()

    def model_mul(self, a: SkewLaurent, b: SkewLaurent) -> SkewLaurent:
        return a * b


# -- module-level operation names ------------------------------------------------


def primitive(alg: DifferentialAlgebra, a) -> ConfElem:
    return alg.primitive(a)


def nth_product(u: ConfElem, v: ConfElem, n: int) -> ConfElem:
    return u.alg.nth(u, v, n)


def coefficient(u: ConfElem, k: int) -> SkewLaurent:
    return u.alg.coefficient(u, k)


def product_coeff_oracle(u: ConfElem, v: ConfElem, n: int, k: int) -> SkewLaurent:
    return u.alg.oracle(u, v, n, k)


def locality_degree(u: ConfElem, v: ConfElem):
    return u.alg.locality(u, v)


@dataclass
class DongReport:
    """Result of a mutual-locality sweep over one triple."""

    ok: bool
    max_order: int
    degrees: dict = field(default_factory=dict)
    witness: str | None = None

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "max_order": self.max_order,
            "degrees": {str(k): repr(v) for k, v in sorted(self.degrees.items())},
            "witness": self.witness,
        }


def dong_check(u, v, w, max_order: int) -> DongReport:
    """Verify that u (n) v stays local with w (both sides) for n <= max_order.

    Works for any algebra exposing nth/locality/locality_scan_bound; the
    locality degrees of the pairs and of each product with w are recorded.
    """
    alg = u.alg
    rep = DongReport(ok=True, max_order=max_order)
    for label, (a, b) in (("u,v", (u, v)), ("v,w", (v, w)), ("u,w", (u, w))):
        rep.degrees[label] = alg.locality(a, b)
    for n in range(max_order + 1):
        p = alg.nth(u, v, n)
        if alg.is_zero(p):
            rep.degrees[f"(u {n} v),w"] = ALL_ZERO
            rep.degrees[f"w,(u {n} v)"] = ALL_ZERO
            continue
        for label, (a, b) in ((f"(u {n} v),w", (p, w)), (f"w,(u {n} v)", (w, p))):
            deg = alg.locality(a, b)
            rep.degrees[label] = deg
            # confirm vanishing strictly above the claimed degree
            start = 0 if deg is ALL_ZERO else deg + 1
            for m in range(start, alg.locality_scan_bound(a, b) + 1):
                if not alg.is_zero(alg.nth(a, b, m)):
                    rep.ok = False
                    rep.witness = f"nonzero product above claimed degree at {label}, order {m}"
                    return rep
    return rep
