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

from .exact_arith import DOp, _sp_add, gen_binom, rat, signed_sum
from .products import ConformalAlgebra, Elem, terms_clean, terms_normal_form

PresElem = Elem  # the public name of the shared element class


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
        symbols = range(len(self.gens))
        self.entries = {}
        for (i, j), prods in entries.items():
            prods = tuple(dict(p) for p in prods)
            for key in (i, j, *(k for p in prods for k in p)):
                if key not in symbols:
                    raise ValueError(f"product table names symbol {key!r}, not a generator index")
            for p in prods:
                for q in p.values():
                    if not isinstance(q, DOp):
                        raise TypeError(f"product table value {q!r} is not a DOp")
            prods = tuple(terms_clean(p) for p in prods)
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


class PresentedAlgebra(ConformalAlgebra):
    """A product table with the same operation surface as the differential model."""

    # benchmarks/tracing.py wraps these by name in this class's own namespace
    coordinates = ConformalAlgebra.coordinates
    format_elem = ConformalAlgebra.format_elem
    nth = ConformalAlgebra.nth
    locality = ConformalAlgebra.locality
    locality_coeff_sum = ConformalAlgebra.locality_coeff_sum

    def __init__(self, table: ProductTable, name: str = "presented"):
        self.table = table
        super().__init__(name, {g: Elem(self, {i: DOp.one()}) for i, g in enumerate(table.gens)})

    def _defining(self) -> tuple:
        return self.name, self.table.gens, self.table.entries

    def symbol_name(self, key: int) -> str:
        return self.table.gens[key]

    def _base_orders(self, i, j) -> int:
        return len(self.table.entries.get((i, j), ()))

    def _base_case(self, i, m: int, j) -> dict:
        return self.table.lookup(i, j, m)

    def locality_scan_bound(self, u: Elem, v: Elem) -> int:
        return u.max_dop_degree() + v.max_dop_degree() + self.table.order_bound + 1

    # -- coefficient model -----------------------------------------------------------

    def phi(self, u: Elem, k: int) -> "CoeffElem":
        """phi(u t^k) in normal form."""
        return CoeffElem._make(
            self, {(i, exp): c for i, exp, c in terms_normal_form(u.terms, k)}
        )

    def model_zero(self) -> "CoeffElem":
        return CoeffElem._make(self, {})

    def model_coords(self, m: "CoeffElem") -> dict:
        return dict(m.coords)

    def model_mul(self, a: "CoeffElem", b: "CoeffElem") -> "CoeffElem":
        return coeff_mul(a, b)


class CoeffElem:
    """Element of the coefficient algebra: dict (generator-index, k) -> int or Fraction.

    Normal form only: no d symbols remain.
    """

    __slots__ = ("alg", "coords")

    def __init__(self, alg: PresentedAlgebra, coords: dict):
        self.alg = alg
        self.coords = {k: rat(c) for k, c in coords.items() if c != 0}

    @classmethod
    def _make(cls, alg: PresentedAlgebra, coords: dict) -> "CoeffElem":
        """Wrap an already canonical map: nonzero int or Fraction values only."""
        out = object.__new__(cls)
        out.alg = alg
        out.coords = coords
        return out

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        if self.alg is not other.alg and self.alg != other.alg:
            raise ValueError("coefficients of different presentations")
        return CoeffElem._make(self.alg, _sp_add(self.coords, other.coords))

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
        return self.coords == other.coords and (self.alg is other.alg or self.alg == other.alg)

    def __hash__(self):
        # equal coordinate maps hash alike: 3 == Fraction(3) and both hash as 3
        return hash(frozenset(self.coords.items()))

    def __repr__(self):
        gens = self.alg.table.gens
        return signed_sum((c, f"({gens[i]},{k})") for (i, k), c in sorted(self.coords.items()))


# -- module-level operations -----------------------------------------------------
# The law checks come from `axioms`, imported on call: building a presentation
# (every DSL load does) does not load them.


def check_associativity(alg: PresentedAlgebra, max_m: int = 4, max_n: int = 4):
    """`axioms.associativity_report` on a presented algebra."""
    from .axioms import associativity_report

    return associativity_report(alg, max_m, max_n)


def is_conformal_identity(e: PresElem):
    """`axioms.identity_report` for e in its own algebra."""
    from .axioms import identity_report

    return identity_report(e.alg, e)


def left_annihilator_probe(alg: PresentedAlgebra, dop_degree_bound: int = 3):
    """`axioms.left_annihilator_probe` on a presented algebra."""
    from .axioms import left_annihilator_probe as generic

    return generic(alg, dop_degree_bound)


def coeff_mul(x: CoeffElem, y: CoeffElem) -> CoeffElem:
    """Product of coefficient-algebra elements via the table.

    (a t^l)(b t^m) = sum_n C(l, n) (a (n) b) t^(l+m-n); the sum stops at the
    table's order bound, and each summand is renormalized through phi.  All
    summands are added into one coordinate map.
    """
    alg = x.alg
    if alg is not y.alg and alg != y.alg:
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


def coeff_assoc_check(alg: PresentedAlgebra, window: int = 3):
    """Associativity of the coefficient product on all symbol triples |k| <= window.

    With n symbols, each triple (a, b, c) compares (a b) c with a (b c), but
    both sides range over few values: a b is the pair-table entry, and every
    distinct pair value x gets an id.  x c and a x are formed once for each
    distinct x and each symbol, so the call makes n^2 + 2 D n `coeff_mul`
    calls, D the number of distinct pair values, where the triple loop alone
    would make 2 n^3.  The ids key on the canonical coordinates, so two ids
    agree exactly when the values are equal.
    """
    if window < 0:
        raise ValueError("the coefficient window must be nonnegative")
    from .axioms import CheckReport

    rep = CheckReport("coefficient-associativity")
    symbols = [
        CoeffElem(alg, {(i, k): 1})
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]
    names = [
        f"({alg.table.gens[i]},{k})"
        for i in range(len(alg.table.gens))
        for k in range(-window, window + 1)
    ]
    ids: dict = {}  # value -> id, in order of first appearance; for this call only

    def value_id(x: CoeffElem) -> int:
        return ids.setdefault(x, len(ids))

    pairs = [[value_id(coeff_mul(b, c)) for c in symbols] for b in symbols]
    distinct = list(ids)
    times_c = [[value_id(coeff_mul(x, c)) for c in symbols] for x in distinct]  # x c
    a_times = [[value_id(coeff_mul(a, x)) for x in distinct] for a in symbols]  # a x
    for ia, a_row in enumerate(a_times):
        for ib, b_row in enumerate(pairs):
            ab_row = times_c[pairs[ia][ib]]
            for ic, bc in enumerate(b_row):
                rep.checked += 1
                if ab_row[ic] != a_row[bc]:
                    rep.fail(
                        f"coefficient associativity fails at "
                        f"{names[ia]}, {names[ib]}, {names[ic]}"
                    )
                    return rep
    return rep

