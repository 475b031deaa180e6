"""Exact scalar, polynomial, and matrix arithmetic.

Everything in the workbench computes exactly: scalars are ints and
Fractions, polynomials are sparse maps from exponent to coefficient with no
stored zero, and equality is structural on these canonical forms.  `rat`,
the one normaliser, and `ratio`, the one exact division, return an int or
Fraction (an int when integral).  Sums and products are left as Python
makes them, so one of Fractions may be an integral Fraction; it equals and
hashes as its int.  There is no floating point anywhere in the algebraic
layer.

`Poly` is the one univariate polynomial type.  It serves the base rings
Q[x], and as its subclass `DOp` the module-action ring Q[d]; `MatPoly` is
Mat_n(Q[x]) on one flat sparse map.  A value holds only its coefficients:
the ring that holds it names the variable.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index


def rat(value):
    """An int, a string like ``-2/3``, or a Fraction as an exact scalar.

    The result is an int when the value is integral, else a Fraction (whose
    denominator is then never 1).
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return rat(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def ratio(num, den=1):
    """The exact quotient num / den of two scalars, normalised as by `rat`."""
    if type(num) is not int or type(den) is not int:
        return rat(Fraction(rat(num), rat(den)))
    if num % den:
        return Fraction(num, den)
    return num // den


def gen_binom(n: int, k: int) -> int:
    """Binomial coefficient with an arbitrary integer upper index, as an int.

    gen_binom(n, k) = n(n-1)...(n-k+1) / k!  for k >= 0.  It vanishes for
    0 <= n < k and is nonzero for every negative n; Pascal's rule
    gen_binom(n, k) = gen_binom(n-1, k) + gen_binom(n-1, k-1) holds for all
    integers n.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if n >= 0:
        return math.comb(n, k)
    # C(n, k) = (-1)^k C(k - n - 1, k) for negative n
    c = math.comb(k - n - 1, k)
    return -c if k % 2 else c


def falling_factorial(n: int, p: int) -> int:
    """n(n-1)...(n-p+1), the empty product 1 for p = 0."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    out = 1
    for i in range(p):
        out *= n - i
    return out


# -- sparse key->coefficient helpers: Poly's maps, MatPoly's flat maps, the Q[d] rank's --


def _sp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def add_scaled(dst: dict, src: dict, c) -> dict:
    """dst += c * src on sparse maps, in place, dropping cancelled entries; returns dst."""
    for k, v in src.items():
        s = dst.get(k, 0) + c * v
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)
    return dst


def _sp_scale(a: dict, c) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _sp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _sp_divexact(a: dict, b: dict) -> dict:
    """Exact division of sparse polynomials; raises if the remainder is nonzero."""
    if not b:
        raise ZeroDivisionError("exact division by the zero polynomial")
    rem = dict(a)
    db = max(b)
    lb = b[db]
    quo: dict = {}
    while rem:
        dr = max(rem)
        if dr < db:
            raise ArithmeticError("inexact polynomial division")
        k = dr - db
        c = ratio(rem[dr], lb)
        quo[k] = c
        for kb, vb in b.items():
            s = rem.get(kb + k, 0) - c * vb
            if s == 0:
                rem.pop(kb + k, None)
            else:
                rem[kb + k] = s
    return quo


def power(val, k: int, one):
    """val^k (k >= 0) by repeated squaring, stopping once a square vanishes.

    `one` is called for the unit, and only when k == 0.
    """
    if k == 0:
        return one()
    out = None
    while True:
        if k & 1:
            out = val if out is None else out * val
        k >>= 1
        if not k:
            return out
        val = val * val
        if val.is_zero():
            return val


def term_text(c, head: str | None) -> str:
    """One term c*head of a sum; a head of None stands for the constant term c."""
    if head is None:
        return str(c)
    if c == 1:
        return head
    if c == -1:
        return "-" + head
    return f"{c}*{head}"


def signed_sum(terms) -> str:
    """The (coefficient, head) pairs as one sum, joined by " + " and " - "."""
    parts = [term_text(c, head) for c, head in terms]
    if not parts:
        return "0"
    text = parts[0]
    for t in parts[1:]:
        text += " - " + t[1:] if t.startswith("-") else " + " + t
    return text


class Poly:
    """Sparse univariate polynomial over the rationals.

    Treat instances as immutable.  A value is its coefficient map alone: the
    base ring that holds it (`ore_skew.PolyRing`) names the variable, and
    `repr` writes the class's `symbol`.  The operators combine a value with a
    scalar or with an operand of exactly its own class, never a subclass or a
    base class, and build every result through `self._make`; so `DOp`, the
    one subclass, gets this arithmetic and still never mixes with a Poly.
    The constructor drops zero values and reads each remaining exponent
    through `operator.index`, so a float or a Fraction raises TypeError.
    """

    __slots__ = ("coeffs",)
    symbol = "x"

    def __init__(self, coeffs=None):
        self.coeffs = out = {}
        for k, v in (coeffs or {}).items():
            v = rat(v)
            if v != 0:
                k = index(k)
                if k < 0:
                    raise ValueError("negative exponent in a polynomial")
                out[k] = v

    @classmethod
    def _make(cls, coeffs: dict) -> "Poly":
        """Wrap an already canonical map: int exponents >= 0, nonzero int or Fraction values."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    # constructors
    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({0: rat(c)})

    @classmethod
    def one(cls) -> "Poly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls({k: rat(c)})

    @classmethod
    def variable(cls) -> "Poly":
        return cls({1: 1})

    # queries
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return all(k == 0 for k in self.coeffs)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    # arithmetic
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self._make(_sp_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make(_sp_scale(self.coeffs, rat(other)))
        if type(other) is not type(self):
            return NotImplemented
        return self._make(_sp_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, self.one)

    def derive(self) -> "Poly":
        """Formal derivative with respect to the variable."""
        return self._make({k - 1: v * k for k, v in self.coeffs.items() if k > 0})

    def divexact(self, other: "Poly") -> "Poly":
        if type(other) is not type(self):
            raise TypeError(f"cannot divide a {type(self).__name__} by {other!r}")
        return self._make(_sp_divexact(self.coeffs, other.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its value
        if self.is_const():
            return hash(self.coeffs.get(0, 0))
        return hash(self.key())

    def __repr__(self):
        c, sym = self.coeffs, self.symbol
        return signed_sum((c[k], None if k == 0 else (sym if k == 1 else f"{sym}^{k}"))
                          for k in sorted(c, reverse=True))


class DOp(Poly):
    """Element of Q[d], the module-action ring acting on conformal elements.

    Poly's operators combine only operands of exactly one class, so a DOp
    never mixes with a base-ring Poly.
    """

    __slots__ = ()
    symbol = "d"

    @classmethod
    def d(cls, p: int = 1) -> "DOp":
        return cls({p: 1})

    def times_d(self) -> "DOp":
        """Multiply by one power of d (shift every exponent up)."""
        return self._make({k + 1: v for k, v in self.coeffs.items()})

    # Poly's operators, bound again here: benchmarks/tracing.py wraps each
    # traced name in the class's own namespace, so it counts DOp's calls apart
    # from Poly's.  Assigning __eq__ in a class body sets __hash__ to None, so
    # __hash__ is bound as well.
    __init__ = Poly.__init__
    __add__ = __radd__ = Poly.__add__
    __sub__, __rsub__, __neg__ = Poly.__sub__, Poly.__rsub__, Poly.__neg__
    __mul__ = __rmul__ = Poly.__mul__
    divexact = Poly.divexact
    __eq__, __hash__ = Poly.__eq__, Poly.__hash__


def _det(rows) -> "Poly":
    """Cofactor expansion along the first row of a square tuple of Poly rows."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class MatPoly:
    """Square matrix over Q[x], stored flat as a sparse {(i, j, k): coeff} map.

    The key (i, j, k) (0-based) stands for x^k E_ij, the basis key of
    MatPolyRing, so decomposing over that basis is a copy of `data`.  No zero
    coefficient is stored.  `rows`, `entry` and `det` are derived Poly views.
    The public constructor takes rows of Poly, int or Fraction entries;
    internal results go through `_make`, which trusts its canonical input.
    """

    __slots__ = ("n", "data")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        data = {}
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if type(e) is not Poly:
                    e = Poly.const(e)
                for k, c in e.coeffs.items():
                    data[(i, j, k)] = c
        self.n = n
        self.data = data

    @classmethod
    def _make(cls, n: int, data: dict) -> "MatPoly":
        """Wrap an already canonical map: int or Fraction values, none of them zero."""
        out = object.__new__(cls)
        out.n = n
        out.data = data
        return out

    @classmethod
    def zero(cls, n: int) -> "MatPoly":
        return cls._make(n, {})

    @classmethod
    def identity(cls, n: int) -> "MatPoly":
        return cls._make(n, {(i, i, 0): 1 for i in range(n)})

    @classmethod
    def unit(cls, n: int, i: int, j: int, coeff=1, xpow: int = 0) -> "MatPoly":
        """Matrix unit E_ij (0-based) scaled by coeff * x^xpow."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"matrix unit ({i}, {j}) out of range for n={n}")
        if xpow < 0:
            raise ValueError("negative exponent in a polynomial")
        c = rat(coeff)
        return cls._make(n, {(i, j, xpow): c} if c else {})

    @property
    def rows(self) -> tuple:
        cells = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for (i, j, k), c in self.data.items():
            cells[i][j][k] = c
        return tuple(tuple(Poly._make(cell) for cell in r) for r in cells)

    def entry(self, i: int, j: int) -> Poly:
        return Poly._make({k: c for (a, b, k), c in self.data.items() if a == i and b == j})

    def is_zero(self) -> bool:
        return not self.data

    def is_const(self) -> bool:
        return all(k == 0 for _, _, k in self.data)

    def degree(self) -> int:
        return max((k for _, _, k in self.data), default=-1)

    def key(self):
        return (self.n, tuple(sorted(self.data.items())))

    def _check(self, other: "MatPoly"):
        if self.n != other.n:
            raise ValueError("matrix dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check(other)
        return MatPoly._make(self.n, _sp_add(self.data, other.data))

    def __neg__(self):
        return MatPoly._make(self.n, {key: -c for key, c in self.data.items()})

    def __sub__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self + (-other)

    def _times_central(self, other):
        """self times a scalar or a Poly (both central), or NotImplemented."""
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            data = {key: v * c for key, v in self.data.items()} if c else {}
            return MatPoly._make(self.n, data)
        if type(other) is not Poly:
            return NotImplemented
        out: dict = {}
        for (i, j, k), v in self.data.items():
            for e, w in other.coeffs.items():
                key = (i, j, k + e)
                out[key] = out[key] + v * w if key in out else v * w
        return MatPoly._make(self.n, {key: c for key, c in out.items() if c})

    def __mul__(self, other):
        if not isinstance(other, MatPoly):
            return self._times_central(other)
        self._check(other)
        by_row: dict = {}
        for (l, j, e), w in other.data.items():
            by_row.setdefault(l, []).append((j, e, w))
        out: dict = {}
        for (i, l, k), v in self.data.items():
            for j, e, w in by_row.get(l, ()):
                key = (i, j, k + e)
                out[key] = out[key] + v * w if key in out else v * w
        return MatPoly._make(self.n, {key: c for key, c in out.items() if c})

    def __rmul__(self, other):
        return self._times_central(other)  # scalars and Q[x] are central

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError("negative matrix power")
        return power(self, p, lambda: MatPoly.identity(self.n))

    def derive(self) -> "MatPoly":
        return MatPoly._make(
            self.n, {(i, j, k - 1): c * k for (i, j, k), c in self.data.items() if k}
        )

    def det(self) -> Poly:
        """Exact determinant by cofactor expansion (intended for small n)."""
        return _det(self.rows)

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __hash__(self):
        return hash((self.n, frozenset(self.data.items())))

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"[{rows}]"
