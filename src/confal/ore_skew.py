"""Base algebras with a locally nilpotent derivation, and the skew Laurent ring.

The ring A[t, t^-1; delta] is kept in the normal form with A-coefficients on
the LEFT of powers of t.  Moving a power of t rightward across a coefficient
uses

    t^n * b = sum_{i >= 0} (-1)^i C(n, i) delta^i(b) t^(n - i)

where C is the generalized binomial, so the same rule covers negative n; the
sum is finite because delta is locally nilpotent.  At n = 1 the rule reads
b*t - t*b = delta(b).  This orientation is fixed here once and inherited by
every other module.

`Derivation.orbit` (b, delta(b), delta^2(b), ...) is the one iteration of delta,
behind the rule above, the nilpotency index and the conformal products.  Its
cap, NILPOTENCY_BOUND, is read at call time.

Three coefficient-algebra variants are provided: Q[x], Mat_n(Q[x]), and a
finite-dimensional algebra given by structure constants over a distinguished
basis.  Their values -- Poly, MatPoly and FinDimElem -- compute with their own
operators (`+`, `-`, `*` by a scalar or a value, `==`, `is_zero()`,
`degree()`, `key()`); the algebra objects carry no arithmetic of their own.
Each algebra is a value (`==` and `hash` by its defining data) that names its
unit and its ring generators, which are also the atoms of its DSL
expressions.  A derivation checks at construction only what its input can
break: local nilpotency along the ring generators' orbits always, and the
Leibniz rule only for an explicit action matrix (`LinearAction`); d/dx,
d/dx + ad(r) and the zero map are derivations by construction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .errors import BoundExceeded, NotNilpotent
from .exact_arith import MatPoly, Poly, gen_binom, rat, signed_sum

NILPOTENCY_BOUND = 64  # cap on nonzero iterates in Derivation.orbit, read at call time


class BaseAlgebra:
    """Common surface of the coefficient-algebra variants.

    The algebra object holds no arithmetic: values (Poly, MatPoly, FinDimElem)
    compute with their own operators.  It names the constants (`zero`, `unit`,
    `basis_element`, `ring_generators`: (name, value) pairs that generate it as
    an algebra), decomposes a value over its canonical countable basis
    (`decompose`), builds one back from such coordinates (`from_coords`) and
    formats it.  Basis keys are hashable and mutually comparable.  `unit` is
    None only for a FinDim without one.
    """

    def one(self):
        if self.unit is None:
            raise ValueError("this finite-dimensional algebra has no unit")
        return self.unit

    def format(self, a) -> str:
        terms = []
        for key, c in sorted(self.decompose(a).items()):
            name = self.describe_key(key)
            terms.append((c, None if name == "1" else name))  # the unit shows as c alone
        return signed_sum(terms)


class PolyRing(BaseAlgebra):
    """Q[var] with basis var^k, k >= 0; its values hold coefficients, the ring names var."""

    def __init__(self, var: str = "x"):
        self.var = var
        self.unit = Poly.one()

    def __repr__(self):
        return f"PolyRing({self.var!r})"

    def __eq__(self, other):
        return type(other) is PolyRing and self.var == other.var

    def __hash__(self):
        return hash(self.var)

    def zero(self):
        return Poly.zero()

    def decompose(self, a) -> dict:
        return dict(a.coeffs)

    def from_coords(self, coords: dict):
        return Poly._make({k: c for k, c in coords.items() if c})

    def basis_element(self, key: int):
        return Poly.monomial(key)

    def describe_key(self, key: int) -> str:
        if key == 0:
            return "1"
        if key == 1:
            return self.var
        return f"{self.var}^{key}"

    def ring_generators(self):
        return [("1", self.one()), (self.var, Poly.variable())]


class MatPolyRing(BaseAlgebra):
    """Mat_n(Q[var]) with basis var^k E_ij.  Basis keys are (i, j, k), 0-based."""

    def __init__(self, n: int, var: str = "x"):
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        self.n = n
        self.var = var
        self.unit = MatPoly.identity(n)

    def __repr__(self):
        return f"MatPolyRing({self.n}, {self.var!r})"

    def __eq__(self, other):
        return type(other) is MatPolyRing and (self.n, self.var) == (other.n, other.var)

    def __hash__(self):
        return hash((self.n, self.var))

    def zero(self):
        return MatPoly.zero(self.n)

    def decompose(self, a) -> dict:
        return dict(a.data)

    def from_coords(self, coords: dict):
        return MatPoly._make(self.n, {key: c for key, c in coords.items() if c})

    def basis_element(self, key):
        i, j, k = key
        return MatPoly.unit(self.n, i, j, 1, k)

    def describe_key(self, key) -> str:
        i, j, k = key
        e = f"E({i + 1},{j + 1})"
        if k == 0:
            return e
        if k == 1:
            return f"{self.var}*{e}"
        return f"{self.var}^{k}*{e}"

    def ring_generators(self):
        gens = []
        for i in range(self.n):
            for j in range(self.n):
                gens.append((f"E({i + 1},{j + 1})", MatPoly.unit(self.n, i, j)))
        gens.append((self.var, self.unit * Poly.variable()))
        return gens


class FinDimElem:
    """A value of a FinDim algebra: its coordinate tuple over the distinguished basis.

    The operators go through the algebra's `add`, `scale` and `mul`, which
    raise ValueError on a value of an unequal FinDim; `==` is False across
    unequal algebras and agrees with `hash`.
    """

    __slots__ = ("alg", "coords")

    def __init__(self, alg: "FinDim", coords: tuple):
        self.alg = alg
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def degree(self) -> int:
        return 0

    def key(self):
        return self.coords

    def __add__(self, other):
        if not isinstance(other, FinDimElem):
            return NotImplemented
        return self.alg.add(self, other)

    def __neg__(self):
        return FinDimElem(self.alg, tuple(-x for x in self.coords))

    def __sub__(self, other):
        if not isinstance(other, FinDimElem):
            return NotImplemented
        return self.alg.add(self, -other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.alg.scale(self, other)
        if not isinstance(other, FinDimElem):
            return NotImplemented
        return self.alg.mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.alg.scale(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FinDimElem):
            return NotImplemented
        a, b = self.alg, other.alg
        return self.coords == other.coords and (a is b or a == b)

    def __hash__(self):
        return hash(self.coords)  # 3 == Fraction(3) and both hash as 3

    def __repr__(self):
        return self.alg.format(self)


class FinDim(BaseAlgebra):
    """Finite-dimensional algebra over Q with a distinguished basis.

    Structure constants: table[i][j] is the coordinate tuple of b_i * b_j.
    Associativity is checked exactly on all basis triples at construction.
    Values are FinDimElem, whose coordinates are ints and Fractions; `add`,
    `scale` and `mul` are the arithmetic their operators call.
    """

    def __init__(self, table, names=None):
        d = len(table)
        self.dim = d
        self.names = tuple(names) if names else tuple(f"b{i + 1}" for i in range(d))
        if len(self.names) != d:
            raise ValueError("basis name count mismatch")
        fixed = []
        for i in range(d):
            if len(table[i]) != d:
                raise ValueError("structure-constant table must be d x d")
            row = []
            for j in range(d):
                coords = tuple(rat(c) for c in table[i][j])
                if len(coords) != d:
                    raise ValueError("structure-constant vectors must have length d")
                row.append(coords)
            fixed.append(tuple(row))
        self.table = tuple(fixed)
        self._check_associativity()
        self.unit = self._find_unit()

    def __repr__(self):
        return f"FinDim(dim={self.dim}, names={self.names!r})"

    def __eq__(self, other):
        return type(other) is FinDim and (self.names, self.table) == (other.names, other.table)

    def __hash__(self):
        return hash((self.names, self.table))

    def _check_associativity(self):
        d = self.dim
        b = [self.basis_element(i) for i in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if (b[i] * b[j]) * b[k] != b[i] * (b[j] * b[k]):
                        raise ValueError(
                            f"structure constants are not associative at basis triple ({i}, {j}, {k})"
                        )

    def _find_unit(self):
        # Solve e * b_j = b_j and b_j * e = b_j for all j.
        from .linalg import dense_solve

        d = self.dim
        rows, rhs = [], []
        for j in range(d):
            for k in range(d):
                rows.append([self.table[i][j][k] for i in range(d)])
                rhs.append(1 if k == j else 0)
                rows.append([self.table[j][i][k] for i in range(d)])
                rhs.append(1 if k == j else 0)
        sol = dense_solve(rows, rhs)
        return FinDimElem(self, tuple(sol)) if sol is not None else None

    def _own(self, *values):
        for v in values:
            if v.alg is not self and v.alg != self:
                raise ValueError("values of different finite-dimensional algebras")

    def zero(self):
        return FinDimElem(self, (0,) * self.dim)

    def add(self, a, b):
        self._own(a, b)
        return FinDimElem(self, tuple(x + y for x, y in zip(a.coords, b.coords)))

    def scale(self, a, c):
        self._own(a)
        c = rat(c)
        return FinDimElem(self, tuple(x * c for x in a.coords))

    def mul(self, a, b):
        self._own(a, b)
        out = [0] * self.dim
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y == 0:
                    continue
                f = x * y
                for k, c in enumerate(self.table[i][j]):
                    if c != 0:
                        out[k] += f * c
        return FinDimElem(self, tuple(out))

    def decompose(self, a) -> dict:
        return {i: c for i, c in enumerate(a.coords) if c != 0}

    def from_coords(self, coords: dict):
        out = [0] * self.dim
        for i, c in coords.items():
            out[i] = rat(c)
        return FinDimElem(self, tuple(out))

    def basis_element(self, key: int):
        return FinDimElem(self, tuple(1 if i == key else 0 for i in range(self.dim)))

    def describe_key(self, key: int) -> str:
        return self.names[key]

    def ring_generators(self):
        return [(self.names[i], self.basis_element(i)) for i in range(self.dim)]


def matrix_findim(n: int) -> FinDim:
    """Mat_n(Q) as a FinDim algebra on the matrix-unit basis (row-major)."""
    d = n * n
    names = [f"E({i + 1},{j + 1})" for i in range(n) for j in range(n)]

    def idx(i, j):
        return i * n + j

    table = []
    for a in range(d):
        i, j = divmod(a, n)
        row = []
        for b in range(d):
            k, l = divmod(b, n)
            coords = [0] * d
            if j == k:
                coords[idx(i, l)] = 1
            row.append(coords)
        table.append(row)
    return FinDim(table, names)


class Derivation:
    """delta : A -> A, a derivation of the base algebra.

    Construction proves what the input can break and nothing else.  Each
    subclass is a derivation by construction except LinearAction, whose
    matrix is input and which checks the Leibniz rule itself.  Local
    nilpotency is checked here, by one `orbit` per ring generator: that is
    enough, because delta^(m+n-1)(ab) = 0 once delta^m(a) = 0 and
    delta^n(b) = 0 (Leibniz), sums follow by linearity, and the ring
    generators generate A as an algebra.
    `orbit` is the only iteration of delta; it is capped by
    NILPOTENCY_BOUND, read at call time.  Derivations compare as values, by
    class and defining data (the base and what the subclass stores).
    """

    def __init__(self, base: BaseAlgebra):
        self.base = base
        self._verify()

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash((type(self), self.base))

    def _apply(self, a):
        raise NotImplementedError

    def apply(self, a):
        return self._apply(a)

    __call__ = apply

    def orbit(self, a, length: int | None = None) -> list:
        """The nonzero iterates a, delta(a), delta^2(a), ..., at most `length` of them.

        delta is applied only to form an iterate the result keeps or to learn
        that the orbit ends: a result cut at `length` costs length - 1
        applications, and a `length` below 1 none.  Raises BoundExceeded
        once more than NILPOTENCY_BOUND iterates are nonzero.
        """
        out = []
        if length is not None and length < 1:
            return out
        while not a.is_zero():
            if len(out) == NILPOTENCY_BOUND:
                raise BoundExceeded(
                    f"derivation did not vanish on {self.base.format(out[0])} "
                    f"within {NILPOTENCY_BOUND} iterations",
                    element=out[0],
                    bound=NILPOTENCY_BOUND,
                )
            out.append(a)
            if len(out) == length:
                break
            a = self(a)
        return out

    def _verify(self):
        for _, g in self.base.ring_generators():
            self.orbit(g)  # raises BoundExceeded past the cap


class ScaledDdx(Derivation):
    """d/dx, entrywise on matrix algebras, plus ad(r) = [r, -] for a nilpotent r.

    Both d/dx and ad(r) are derivations for every r, so only nilpotency is
    checked: r^n = 0 here, and the generator orbits in Derivation.
    """

    def __init__(self, base, r: MatPoly | None = None):
        if r is not None and not isinstance(base, MatPolyRing):
            raise TypeError("d/dx + ad(r) needs a matrix-polynomial base")
        if not isinstance(base, (PolyRing, MatPolyRing)):
            raise TypeError("d/dx needs a polynomial or matrix-polynomial base")
        if r is not None and not (r ** base.n).is_zero():
            raise NotNilpotent(f"r is not nilpotent: r^{base.n} != 0")
        self.r = r
        super().__init__(base)

    def _apply(self, a):
        r = self.r
        if r is None:
            return a.derive()
        return a.derive() + r * a - a * r


class ZeroDerivation(Derivation):
    def _apply(self, a):
        return self.base.zero()


class LinearAction(Derivation):
    """Explicit Q-linear action on a FinDim basis.

    matrix[i][j] is the coefficient of b_i in delta(b_j) (columns are images).
    """

    def __init__(self, base: FinDim, matrix):
        if not isinstance(base, FinDim):
            raise TypeError("an explicit action matrix needs a FinDim base")
        d = base.dim
        self.matrix = tuple(tuple(rat(c) for c in row) for row in matrix)
        if len(self.matrix) != d or any(len(r) != d for r in self.matrix):
            raise ValueError("action matrix must be d x d")
        super().__init__(base)

    def _apply(self, a):
        d = self.base.dim
        out = [0] * d
        for j, c in enumerate(a.coords):
            if c == 0:
                continue
            for i in range(d):
                m = self.matrix[i][j]
                if m != 0:
                    out[i] += m * c
        return FinDimElem(self.base, tuple(out))

    def _verify(self):
        """The Leibniz rule on ordered basis pairs, enough by bilinearity; then nilpotency."""
        base = self.base
        basis = [base.basis_element(i) for i in range(base.dim)]
        for a in basis:
            for b in basis:
                if self._apply(a * b) != self._apply(a) * b + a * self._apply(b):
                    raise ValueError(
                        f"Leibniz rule fails on ({base.format(a)}, {base.format(b)})"
                    )
        super()._verify()


def ad_derivation(base: FinDim, r) -> LinearAction:
    """ad(r) = [r, -] on a FinDim algebra, built as an explicit action matrix."""
    d = base.dim
    cols = []
    for j in range(d):
        b = base.basis_element(j)
        cols.append((r * b - b * r).coords)
    matrix = [[cols[j][i] for j in range(d)] for i in range(d)]
    return LinearAction(base, matrix)


def nilpotency_index(delta: Derivation, a) -> int:
    """Minimal m >= 1 with delta^m(a) = 0, for nonzero a: the length of its orbit."""
    if a.is_zero():
        raise ValueError("nilpotency index is defined for nonzero elements")
    return len(delta.orbit(a))


class OreRing:
    """The skew Laurent ring A[t, t^-1; delta].

    Rings compare as values, by base and derivation, so the coefficients of
    two builds of one algebra are equal and mix.
    """

    def __init__(self, base: BaseAlgebra, delta: Derivation):
        if delta.base is not base:
            raise ValueError("derivation is attached to a different base algebra")
        self.base = base
        self.delta = delta

    def __eq__(self, other):
        return type(other) is OreRing and self.base == other.base and self.delta == other.delta

    def __hash__(self):
        return hash(self.delta)

    def zero(self) -> "SkewLaurent":
        return SkewLaurent(self, {})

    def one(self) -> "SkewLaurent":
        return SkewLaurent(self, {0: self.base.one()})

    def t(self, n: int = 1) -> "SkewLaurent":
        return SkewLaurent(self, {n: self.base.one()})

    def monomial(self, a, n: int) -> "SkewLaurent":
        """a * t^n."""
        return SkewLaurent(self, {n: a})

    def move_t_across(self, n: int, b):
        """t^n * b as a list of (exponent, coefficient) pairs in normal form."""
        out = []
        # C(n, i) = 0 for i > n >= 0, so a nonnegative n reads only n + 1 iterates
        for i, cur in enumerate(self.delta.orbit(b, n + 1 if n >= 0 else None)):
            c = gen_binom(n, i)
            sign = -c if i % 2 else c
            out.append((n - i, cur if sign == 1 else cur * sign))
        return out


class SkewLaurent:
    """Element of A[t, t^-1; delta] in normal form: sum a_n t^n, a_n in A.

    The constructor takes any map from integer exponents to base values: it
    reads each exponent through `operator.index`, so a float or a Fraction
    raises TypeError, and drops zero values.  Results of the ring operations
    go through `_make`, which trusts its canonical input.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: OreRing, coeffs: dict):
        self.ring = ring
        self.coeffs = out = {}
        for n, a in coeffs.items():
            n = index(n)
            if not a.is_zero():
                out[n] = a

    @classmethod
    def _make(cls, ring: OreRing, coeffs: dict) -> "SkewLaurent":
        """Wrap an already canonical map: int exponents, nonzero base values only."""
        out = object.__new__(cls)
        out.ring = ring
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same(self, other: "SkewLaurent"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements of different skew rings")

    def __add__(self, other):
        if not isinstance(other, SkewLaurent):
            return NotImplemented
        self._same(other)
        out = dict(self.coeffs)
        for n, a in other.coeffs.items():
            if n in out:
                a = out[n] + a
                if a.is_zero():
                    del out[n]
                    continue
            out[n] = a
        return SkewLaurent._make(self.ring, out)

    def __neg__(self):
        return SkewLaurent._make(self.ring, {n: -a for n, a in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SkewLaurent):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "SkewLaurent":
        c = rat(c)
        if c == 1:
            return self
        if c == -1:
            return -self
        if c == 0:
            return SkewLaurent._make(self.ring, {})
        return SkewLaurent._make(self.ring, {n: a * c for n, a in self.coeffs.items()})

    def shift(self, k: int) -> "SkewLaurent":
        """self * t^k: in the normal form every exponent moves up by k."""
        return SkewLaurent._make(self.ring, {n + k: a for n, a in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SkewLaurent):
            return NotImplemented
        self._same(other)
        out: dict = {}
        for l, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                # a t^l * b t^m = a (t^l b) t^m
                for exp, moved in self.ring.move_t_across(l, b):
                    prod = a * moved
                    if prod.is_zero():
                        continue
                    n = exp + m
                    if n in out:
                        prod = out[n] + prod
                        if prod.is_zero():
                            del out[n]
                            continue
                    out[n] = prod
        return SkewLaurent._make(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SkewLaurent):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(a == other.coeffs[n] for n, a in self.coeffs.items())

    def key(self):
        return tuple((n, self.coeffs[n].key()) for n in sorted(self.coeffs))

    def coords(self) -> dict:
        """Flatten to {(basis_key, t_exponent): int or Fraction} for linear algebra."""
        base = self.ring.base
        out = {}
        for n, a in self.coeffs.items():
            for key, c in base.decompose(a).items():
                out[(key, n)] = c
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        base = self.ring.base
        parts = []
        for n in sorted(self.coeffs, reverse=True):
            a = base.format(self.coeffs[n])
            if n == 0:
                parts.append(a)
                continue
            tpow = "t" if n == 1 else f"t^{n}"
            parts.append(tpow if a == "1" else f"({a})*{tpow}")
        return " + ".join(parts)


def weyl_instance(n: int = 1):
    """(Q[x], d/dx) for n = 1, (Mat_n(Q[x]), entrywise d/dx) for n >= 2.

    In the skew ring of either pair, x * t - t * x = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = PolyRing("x") if n == 1 else MatPolyRing(n, "x")
    return base, ScaledDdx(base)
