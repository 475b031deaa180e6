"""Conformal algebras presented by finite product tables.

A presentation lists abstract generators g_1..g_k spanning a FREE module over
Q[d] and, for each ordered pair, the finitely many nonzero order-n products
as elements of that module.  Torsion module relations are not representable
(the DSL parser rejects them).  Elements are dicts generator-index -> DOp.

The coefficient model is the span of symbols (g_i, k), k in Z, modulo the
normal form phi(d^p g t^k) = (-1)^p k(k-1)...(k-p+1) phi(g t^(k-p)); the
zeroth-product rule

    (a t^l) (b t^m) = sum_n C(l, n) (a (n) b) t^(l+m-n)

makes it an ordinary associative algebra when the table is associative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .axioms import CheckReport, associativity_report, identity_report
from .axioms import left_annihilator_probe as _generic_annihilator
from .diff_conformal import ALL_ZERO
from .exact_arith import DOp, gen_binom, rat
from .products import (
    nth_product_terms,
    terms_apply_dop,
    terms_clean,
    terms_key,
    terms_max_dop_degree,
    terms_normal_form,
)


class PresElem:
    """Element of a presented conformal algebra: dict generator-index -> DOp."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "PresentedAlgebra", terms: dict):
        self.alg = alg
        self.terms = terms_clean(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_dop_degree(self) -> int:
        return terms_max_dop_degree(self.terms)

    def key(self):
        return terms_key(self.terms)

    def _same(self, other: "PresElem"):
        if self.alg is not other.alg:
            raise ValueError("elements of different presentations")

    def __add__(self, other):
        if not isinstance(other, PresElem):
            return NotImplemented
        self._same(other)
        out = dict(self.terms)
        for k, q in other.terms.items():
            nq = out[k] + q if k in out else q
            if nq.is_zero():
                out.pop(k, None)
            else:
                out[k] = nq
        return PresElem(self.alg, out)

    def __neg__(self):
        return PresElem(self.alg, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PresElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return PresElem(self.alg, {k: q * c for k, q in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def derive(self) -> "PresElem":
        return PresElem(self.alg, {k: q.times_d() for k, q in self.terms.items()})

    def apply_dop(self, q: DOp) -> "PresElem":
        return PresElem(self.alg, terms_apply_dop(self.terms, q))

    def __eq__(self, other):
        if not isinstance(other, PresElem):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __repr__(self):
        return self.alg.format_elem(self)


class ProductTable:
    """Finite product table over named generators.

    entries[(i, j)] is the tuple of order-0, order-1, ... products, each a
    raw terms dict (generator-index -> DOp); omitted pairs and orders are
    zero.
    """

    def __init__(self, gens, entries):
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("duplicate generator names")
        self.entries = {}
        for (i, j), prods in entries.items():
            prods = tuple(terms_clean(dict(p)) for p in prods)
            while prods and not prods[-1]:
                prods = prods[:-1]
            if prods:
                self.entries[(i, j)] = prods
        self.order_bound = max((len(p) - 1 for p in self.entries.values()), default=0)

    def lookup(self, i: int, j: int, n: int) -> dict:
        prods = self.entries.get((i, j))
        if prods is None or n >= len(prods):
            return {}
        return prods[n]


class PresentedAlgebra:
    """A product table with the same operation surface as the differential model."""

    kind = "presented"

    def __init__(self, table: ProductTable, name: str = "presented"):
        self.table = table
        self.name = name
        self.generators = {
            g: PresElem(self, {i: DOp.one()}) for i, g in enumerate(table.gens)
        }

    # -- constructors ----------------------------------------------------------

    def gen(self, name: str) -> PresElem:
        return self.generators[name]

    def generator(self, name: str) -> PresElem:
        return self.generators[name]

    def generator_items(self):
        return list(self.generators.items())

    def zero_elem(self) -> PresElem:
        return PresElem(self, {})

    def from_terms(self, terms: dict) -> PresElem:
        return PresElem(self, terms)

    # -- linear interface --------------------------------------------------------

    def add(self, u, v):
        return u + v

    def sub(self, u, v):
        return u - v

    def scale(self, u, c):
        return u * rat(c)

    def derive_elem(self, u):
        return u.derive()

    def apply_dop_power(self, u, p: int):
        return u.apply_dop(DOp.d(p)) if p else u

    def is_zero(self, u) -> bool:
        return u.is_zero()

    def eq(self, u, v) -> bool:
        return u == v

    def coordinates(self, u) -> dict:
        out = {}
        for key, q in u.terms.items():
            for p, c in q.coeffs.items():
                out[(key, p)] = c
        return out

    def format_elem(self, u) -> str:
        if u.is_zero():
            return "0"
        parts = []
        for key in sorted(u.terms):
            q = u.terms[key]
            name = self.table.gens[key]
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

    # -- products ------------------------------------------------------------------

    def _base_case(self, i, m: int, j) -> dict:
        return self.table.lookup(i, j, m)

    def nth(self, u: PresElem, v: PresElem, n: int) -> PresElem:
        u._same(v)
        return PresElem(self, nth_product_terms(u.terms, v.terms, n, self._base_case))

    def locality_scan_bound(self, u: PresElem, v: PresElem) -> int:
        return u.max_dop_degree() + v.max_dop_degree() + self.table.order_bound + 1

    def locality(self, u: PresElem, v: PresElem):
        if u.is_zero() or v.is_zero():
            return ALL_ZERO
        best = ALL_ZERO
        for n in range(self.locality_scan_bound(u, v) + 1):
            if not self.nth(u, v, n).is_zero():
                best = n
        return best

    # -- coefficient model -----------------------------------------------------------

    def phi(self, u: PresElem, k: int) -> "CoeffElem":
        """phi(u t^k) in normal form."""
        return CoeffElem._make(
            self, {(i, exp): c for i, exp, c in terms_normal_form(u.terms, k)}
        )

    def phi0_coords(self, u: PresElem) -> dict:
        return dict(self.phi(u, 0).coords)

    def model_coords(self, m: "CoeffElem") -> dict:
        return dict(m.coords)

    def model_mul(self, a: "CoeffElem", b: "CoeffElem") -> "CoeffElem":
        return coeff_mul(a, b)

    def model_is_zero(self, m: "CoeffElem") -> bool:
        return m.is_zero()

    def locality_coeff_sum(self, u, v, n: int, l: int, m: int) -> "CoeffElem":
        if n < 0:
            raise ValueError("product order must be nonnegative")
        acc = CoeffElem(self, {})
        for j in range(n + 1):
            c = gen_binom(n, j)
            if j % 2:
                c = -c
            acc = acc + coeff_mul(self.phi(u, l - j), self.phi(v, m + j)).scale(c)
        return acc


class CoeffElem:
    """Element of the coefficient algebra: dict (generator-index, k) -> Fraction.

    Normal form only: no d symbols remain.
    """

    __slots__ = ("alg", "coords")

    def __init__(self, alg: PresentedAlgebra, coords: dict):
        self.alg = alg
        self.coords = {k: rat(c) for k, c in coords.items() if c != 0}

    @classmethod
    def _make(cls, alg: PresentedAlgebra, coords: dict) -> "CoeffElem":
        """Wrap an already canonical map: nonzero Fraction values only."""
        out = object.__new__(cls)
        out.alg = alg
        out.coords = coords
        return out

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        if self.alg is not other.alg:
            raise ValueError("coefficients of different presentations")
        out = dict(self.coords)
        for k, c in other.coords.items():
            s = out.get(k, 0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return CoeffElem(self.alg, out)

    def __neg__(self):
        return CoeffElem(self.alg, {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "CoeffElem":
        c = rat(c)
        return CoeffElem(self.alg, {k: v * c for k, v in self.coords.items()})

    def __eq__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.alg is other.alg and self.coords == other.coords

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for (i, k), c in sorted(self.coords.items()):
            name = f"({self.alg.table.gens[i]},{k})"
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        text = parts[0]
        for t in parts[1:]:
            text += " - " + t[1:] if t.startswith("-") else " + " + t
        return text


# -- module-level operations -----------------------------------------------------


def eval_product(u: PresElem, v: PresElem, n: int) -> PresElem:
    return u.alg.nth(u, v, n)


def check_associativity(alg_or_table, max_m: int = 4, max_n: int = 4) -> CheckReport:
    alg = _as_algebra(alg_or_table)
    return associativity_report(alg, max_m, max_n)


def is_conformal_identity(e: PresElem, alg_or_table=None):
    alg = e.alg if alg_or_table is None else _as_algebra(alg_or_table)
    return identity_report(alg, e)


def left_annihilator_probe(alg_or_table, dop_degree_bound: int = 3):
    return _generic_annihilator(_as_algebra(alg_or_table), dop_degree_bound)


def coeff_mul(x: CoeffElem, y: CoeffElem) -> CoeffElem:
    """Product of coefficient-algebra elements via the table.

    (a t^l)(b t^m) = sum_n C(l, n) (a (n) b) t^(l+m-n); the sum stops at the
    table's order bound, and each summand is renormalized through phi.  All
    summands are added into one coordinate map.
    """
    alg = x.alg
    if alg is not y.alg:
        raise ValueError("coefficients of different presentations")
    entries = alg.table.entries
    acc: dict = {}
    for (i, l), cx in x.coords.items():
        for (j, m), cy in y.coords.items():
            for n, entry in enumerate(entries.get((i, j), ())):
                c = gen_binom(l, n) if entry else 0
                if not c:
                    continue
                c *= cx * cy
                for key, exp, f in terms_normal_form(entry, l + m - n):
                    sym = (key, exp)
                    s = acc.get(sym, 0) + c * f
                    if s:
                        acc[sym] = s
                    else:
                        acc.pop(sym)
    return CoeffElem._make(alg, acc)


def coeff_assoc_check(alg_or_table, window: int = 3) -> CheckReport:
    """Associativity of the coefficient product on all symbol triples |k| <= window."""
    alg = _as_algebra(alg_or_table)
    rep = CheckReport("coefficient-associativity")
    symbols = [
        CoeffElem(alg, {(i, k): Fraction(1)})
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]
    names = [
        f"({alg.table.gens[i]},{k})"
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]
    for ia, a in enumerate(symbols):
        for ib, b in enumerate(symbols):
            ab = coeff_mul(a, b)
            for ic, c in enumerate(symbols):
                lhs = coeff_mul(ab, c)
                rhs = coeff_mul(a, coeff_mul(b, c))
                rep.checked += 1
                if lhs != rhs:
                    rep.fail(
                        f"coefficient associativity fails at "
                        f"{names[ia]}, {names[ib]}, {names[ic]}"
                    )
                    return rep
    return rep


def _as_algebra(alg_or_table) -> PresentedAlgebra:
    if isinstance(alg_or_table, PresentedAlgebra):
        return alg_or_table
    if isinstance(alg_or_table, ProductTable):
        return PresentedAlgebra(alg_or_table)
    raise TypeError("expected a PresentedAlgebra or ProductTable")
