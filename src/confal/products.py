"""The conformal-algebra core shared by the differential and presented models.

An element is a finite combination sum_a q_a(d) a of basis symbols a with
q_a in Q[d], stored as a dict basis symbol -> DOp (`Elem`).  Elements are the
values one computes with: `+`, `-`, scalar `*`, `derive()`, `==` and
`is_zero()` belong to `Elem` itself, and the coefficient-model values carry
the same operators.  `ConformalAlgebra` holds everything the two models
share: the named generators, coordinates and formatting, the n-th product,
locality degrees and the presented model's coefficient-level locality sum
(the differential model forms its own).  A model supplies only

  * `_base_case(a, m, b)`: the order-m product of two pure symbols, as a
    terms dict;
  * `_base_orders(a, b)`: a count above which every base case a (s) b
    vanishes (the length of delta's orbit on b, or of the table entry);
  * `symbol_name(a)`: how a basis symbol prints;
  * `locality_scan_bound(u, v)`: an order above which u (n) v provably
    vanishes;
  * its coefficient model: `phi(u, k)` (the k-th coefficient of u),
    `model_mul` and `model_coords`; `phi_products` has a
    default built from `model_mul`, and `right_shifts(v)` (False by
    default) says when a product against v's coefficients is one product
    shifted in t.

The engine `nth_products_terms` forms u (n) v for every n of a range
lo..hi in one pass; `ConformalAlgebra.nth_orders` is that range and
`ConformalAlgebra.nth` (through `nth_product_terms`) the range of one
order.  It supplies bilinearity and the removal of d from both slots:

  * left slot:  a power d^i contributes (-1)^i n(n-1)...(n-i+1) at order n-i,
    which is zero once i exceeds n;
  * right slot: the closed form

        a (m) d^j b = sum_{r=0}^{min(j,m)} C(j,r) m(m-1)...(m-r+1) d^(j-r) (a (m-r) b),

    obtained by iterating u (m) (d v) = d(u (m) v) + m (u (m-1) v), since d
    commutes with the weighted shift to order m-1.

So the engine loops over term pairs c_i d^i a, c_j d^j b, then over the
base orders s < `_base_orders(a, b)`, then over the shifts r <= j with
n = i + s + r in the range, each adding
(-1)^i n!/(n-i)! C(j, r) (s+r)!/s! c_i c_j d^(j-r) (a (s) b) to order n.
A term pair reads each base case it can need once, at most
min(hi - i + 1, `_base_orders(a, b)`) of them, where expanding the rule one
d at a time costs about 2^j per order: on weyl, d^200 f_x (300) d^200 f_x
reads 2 base cases, not the 101 shifts of the right slot.

Locality scans, axiom sweeps and associativity ask for the same base cases
at many orders, so each algebra keeps those it has formed in one lasting
table keyed by (a, s, b), which `nth` and `nth_orders` hand to the engine;
a model's `_base_case` stays pure.  The engine stores each base case as a
flat tuple of (symbol, d-power, coefficient) triples, under half the memory
of the terms dict a model returns.  The table takes entries until it holds
BASE_CASE_CAP of them.  256 holds every base case of the CLI commands on
the bundled instances at the benchmark's bounds (at most 216, `recognize`
on weyl) and bounds the memory of long walks: a recognition of weyl at
word bound 20 would grow a table to 1 260 entries.  Later misses, and every
base case of an engine call without a table, are memoised for that call
only.

A vanishing base case costs no arithmetic: for a term pair c_i d^i a,
c_j d^j b the rational c_i c_j is formed at most once, and only when one of
its base cases meets an order of the range.  The sign, the falling
factorials and the binomial make one integer weight w, so each coefficient
v of a base case costs one rational multiplication, (c_i c_j) (w v).  Each
result is built once, with a coefficient an int exactly when integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .exact_arith import DOp, falling_factorial, gen_binom, rat, ratio, signed_sum


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


def terms_clean(terms: dict) -> dict:
    return {k: q for k, q in terms.items() if not q.is_zero()}


# entries a lasting base-case table takes; later misses live for one engine call
BASE_CASE_CAP = 256


def nth_products_terms(u_terms: dict, v_terms: dict, lo: int, hi: int, base_case, *,
                       table: dict | None = None, orders=None) -> list:
    """[u (n) v for n in lo..hi] of two elements given as terms dicts.

    orders, when given, maps two basis symbols a, b to a count above which
    every base case a (s) b vanishes: only the base orders s < orders(a, b)
    are read.  None reads every order the range reaches.

    table, when given, is a lasting map (a, s, b) -> base case that this
    call reads and fills up to BASE_CASE_CAP entries; base cases it cannot
    keep, and all of them without a table, are memoised for this call only.
    Both hold a base case as a tuple of (symbol, d-power, coefficient)
    triples, the empty tuple when it vanishes.  Each result is built once,
    with a coefficient an int exactly when it is integral.
    """
    if lo < 0:
        raise ValueError("product order must be nonnegative")
    if hi < lo:
        return []
    memo: dict = {}
    if table is None:
        table = memo
    accs = [{}]  # per order: symbol -> {d-power: coefficient}
    for _ in range(hi - lo):
        accs.append({})
    for ak, p in u_terms.items():
        for i, ci in p.coeffs.items():
            if i > hi:
                continue  # the left-slot factor n(n-1)...(n-i+1) vanishes at every order
            lo_i, hi_i = lo - i, hi - i
            for bk, q in v_terms.items():
                top = hi_i + 1  # base orders s <= hi - i meet the range
                if orders is not None:
                    bound = orders(ak, bk)
                    if bound < top:
                        top = bound
                for j, cj in q.coeffs.items():
                    scale = None  # ci * cj, formed once the pair contributes
                    # n = i + s + r in [lo, hi] with 0 <= r <= j; s descending,
                    # so at one order n the shifts r come ascending
                    for s in range(top - 1, (lo_i - j if lo_i > j else 0) - 1, -1):
                        key = (ak, s, bk)
                        base = table.get(key)
                        if base is None:
                            base = memo.get(key)
                            if base is None:
                                base = tuple((k, e, v) for k, b in base_case(ak, s, bk).items()
                                             for e, v in b.coeffs.items())
                                (table if len(table) < BASE_CASE_CAP else memo)[key] = base
                        if not base:
                            continue
                        if scale is None:
                            scale = ci * cj
                        r0, r1 = lo_i - s, hi_i - s
                        for r in range(r0 if r0 > 0 else 0, (r1 if r1 < j else j) + 1):
                            m = s + r
                            # (-1)^i n!/(n-i)! C(j,r) m!/(m-r)! at n = m + i, an integer
                            w = comb(j, r) * perm(m, r) if r else 1
                            if i:
                                w *= -perm(m + i, i) if i % 2 else perm(m + i, i)
                            acc = accs[m - lo_i]  # n - lo
                            shift = j - r
                            for k, e, v in base:
                                row = acc.get(k)
                                if row is None:
                                    row = acc[k] = {}
                                e += shift
                                c = scale * (w * v)
                                row[e] = row[e] + c if e in row else c
    make = DOp._make
    for acc in accs:
        for k, row in list(acc.items()):
            for c in row.values():
                if not c or (type(c) is not int and c.denominator == 1):
                    row = {e: c if type(c) is int or c.denominator != 1 else c.numerator
                           for e, c in row.items() if c}
                    break
            if row:
                acc[k] = make(row)
            else:
                del acc[k]
    return accs


def nth_product_terms(u_terms: dict, v_terms: dict, n: int, base_case, *,
                      table: dict | None = None, orders=None) -> dict:
    """Order-n product of two elements given as terms dicts: `nth_products_terms` at n alone."""
    return nth_products_terms(u_terms, v_terms, n, n, base_case, table=table, orders=orders)[0]


def terms_normal_form(terms: dict, k: int):
    """The k-th coefficient of an element, as (symbol, t-exponent, int or Fraction) triples.

    (d^p a)(k) = (-1)^p k(k-1)...(k-p+1) a(k-p), so each term c d^p a gives
    (a, k - p, (-1)^p c k(k-1)...(k-p+1)); vanishing ones are skipped.  The
    pairs (symbol, exponent) are distinct, since p fixes the exponent.
    """
    for key, q in terms.items():
        for p, c in q.coeffs.items():
            if p:
                f = falling_factorial(k, p)
                if not f:
                    continue
                c = -f * c if p % 2 else f * c
            yield key, k - p, c


def terms_key(terms: dict):
    """Canonical hashable form of a terms dict (for dedup and span frames)."""
    return tuple((k, terms[k].key()) for k in sorted(terms))


def terms_scalar_normalized_key(terms: dict):
    """Canonical form up to a scalar multiple: leading coefficient set to 1."""
    if not terms:
        return ()
    lead_key = sorted(terms)[0]
    lead = terms[lead_key].coeffs[min(terms[lead_key].coeffs)]
    inv = ratio(1, lead)
    return tuple((k, (terms[k] * inv).key()) for k in sorted(terms))


def terms_apply_dop(terms: dict, q: DOp) -> dict:
    return terms_clean({k: p * q for k, p in terms.items()})


class Elem:
    """Element of a conformal algebra: dict basis symbol -> DOp."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "ConformalAlgebra", terms: dict):
        self.alg = alg
        self.terms = terms_clean(terms)

    @classmethod
    def _make(cls, alg: "ConformalAlgebra", terms: dict) -> "Elem":
        """Wrap an already clean terms dict: no zero DOp."""
        out = object.__new__(cls)
        out.alg = alg
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def max_dop_degree(self) -> int:
        return max((q.degree() for q in self.terms.values()), default=0)

    def key(self):
        return terms_key(self.terms)

    def _same(self, other: "Elem"):
        if self.alg is not other.alg and self.alg != other.alg:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        self._same(other)
        out = dict(self.terms)
        for k, q in other.terms.items():
            nq = out[k] + q if k in out else q
            if nq.is_zero():
                out.pop(k, None)
            else:
                out[k] = nq
        return Elem._make(self.alg, out)

    def __neg__(self):
        return Elem._make(self.alg, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 1:
                return self
            if c == -1:
                return -self
            return Elem._make(self.alg, {k: q * c for k, q in self.terms.items()} if c else {})
        return NotImplemented

    __rmul__ = __mul__

    def derive(self) -> "Elem":
        """Apply d once."""
        return Elem._make(self.alg, {k: q.times_d() for k, q in self.terms.items()})

    def apply_dop(self, q: DOp) -> "Elem":
        return Elem(self.alg, terms_apply_dop(self.terms, q))

    def __eq__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.terms == other.terms and (self.alg is other.alg or self.alg == other.alg)

    def __repr__(self):
        return self.alg.format_elem(self)


class ConformalAlgebra:
    """Named generators and the operations both models share (see the module doc).

    Algebras of one model compare as values, by what their `_defining()`
    returns, so two builds of one definition are equal and their elements mix.
    """

    def __init__(self, name: str, generators: dict):
        self.name = name
        self.generators = generators
        self._base_cases: dict = {}  # (a, s, b) -> base case, at most BASE_CASE_CAP of them

    def __eq__(self, other):
        return type(other) is type(self) and self._defining() == other._defining()

    def __hash__(self):
        return hash((type(self), self.name))

    # -- elements ----------------------------------------------------------------

    def generator(self, name: str) -> Elem:
        return self.generators[name]

    def generator_items(self):
        return list(self.generators.items())

    def zero_elem(self) -> Elem:
        return Elem(self, {})

    def apply_dop_power(self, u: Elem, p: int) -> Elem:
        return u.apply_dop(DOp.d(p)) if p else u

    # benchmarks/workloads.py calls this on the algebra rather than on the element
    def is_zero(self, u: Elem) -> bool:
        return u.is_zero()

    def coordinates(self, u: Elem) -> dict:
        """Flatten to {(basis_key, d_power): c}, each c an int or Fraction."""
        out = {}
        for key, q in u.terms.items():
            for p, c in q.coeffs.items():
                out[(key, p)] = c
        return out

    def format_elem(self, u: Elem) -> str:
        parts = []
        for key in sorted(u.terms):
            name = self.symbol_name(key)
            for p, c in sorted(u.terms[key].coeffs.items()):
                head = name if p == 0 else (f"d*{name}" if p == 1 else f"d^{p}*{name}")
                parts.append((c, head))
        return signed_sum(parts)

    # -- products and locality ---------------------------------------------------------

    def nth(self, u: Elem, v: Elem, n: int) -> Elem:
        """u (n) v: `nth_orders` at the one order n."""
        u._same(v)
        return Elem._make(self, nth_product_terms(u.terms, v.terms, n, self._base_case,
                                                  table=self._base_cases,
                                                  orders=self._base_orders))

    def nth_orders(self, u: Elem, v: Elem, lo: int, hi: int) -> list:
        """[u (n) v for n in lo..hi], formed in one engine pass."""
        u._same(v)
        return [Elem._make(self, terms)
                for terms in nth_products_terms(u.terms, v.terms, lo, hi, self._base_case,
                                                table=self._base_cases,
                                                orders=self._base_orders)]

    def locality(self, u: Elem, v: Elem):
        """Largest n with u (n) v != 0, or ALL_ZERO.

        Scans down from the scan bound and stops at the first nonzero product.
        """
        if u.is_zero() or v.is_zero():
            return ALL_ZERO
        for n in range(self.locality_scan_bound(u, v), -1, -1):
            if not self.nth(u, v, n).is_zero():
                return n
        return ALL_ZERO

    # -- the coefficient model ------------------------------------------------------------

    def right_shifts(self, v: Elem) -> bool:
        """Does phi(v, k) = phi(v, k0) t^(k - k0) hold in the coefficient model?

        When it does, the model's values carry `shift(k)` (right
        multiplication by t^k), so a product a * phi(v, k) is one product
        a * phi(v, k0) shifted.  False unless the model says otherwise.
        """
        return False

    def phi_products(self, a, v: Elem, phis: dict) -> list:
        """[a * phi(v, k) for k in phis], given phis mapping each k to phi(v, k).

        When v right-shifts, one model product serves every k.
        """
        if not phis or not self.right_shifts(v):
            return [self.model_mul(a, b) for b in phis.values()]
        k0 = next(iter(phis))
        p = self.model_mul(a, phis[k0])
        return [p.shift(k - k0) for k in phis]

    def locality_coeff_sum(self, u: Elem, v: Elem, n: int, l: int, m: int):
        """sum_j (-1)^j C(n, j) u(l-j) v(m+j), the order-n locality combination.

        The default, which the presented model uses; the differential model
        overrides it with a sum of integer weights on base products.
        Formed from coefficients alone, without any memo: every call forms
        each coefficient and each model product afresh, so this stays the
        independent route the symbolic products are checked against.  The
        sign and binomial scale the left factor u(l-j), a single term for a
        d-free u, rather than the product; nothing is scaled when v(m+j) is
        zero, since the product is then zero.  The sum starts from the
        j = 0 product.
        """
        if n < 0:
            raise ValueError("product order must be nonnegative")
        acc = self.model_mul(self.phi(u, l), self.phi(v, m))
        for j in range(1, n + 1):
            c = gen_binom(n, j)
            if j % 2:
                c = -c
            x, y = self.phi(u, l - j), self.phi(v, m + j)
            if not y.is_zero():
                x = x.scale(c)
            acc = acc + self.model_mul(x, y)
        return acc
