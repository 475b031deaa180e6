"""Exact scalar, polynomial, and matrix arithmetic.

Everything in the workbench computes exactly: scalars are arbitrary-precision
rationals, polynomials are sparse maps from exponent to coefficient with no
stored zero, and equality is structural on these canonical forms.  There is
no floating point anywhere in the algebraic layer.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The scalar field.  Exact rationals: always reduced, positive denominator.
Rat = Fraction


def rat(value) -> Fraction:
    """Coerce an int, a string like ``-2/3``, or a Fraction to a rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def gen_binom(n: int, k: int) -> Fraction:
    """Binomial coefficient with an arbitrary integer upper index.

    gen_binom(n, k) = n(n-1)...(n-k+1) / k!  for k >= 0.  It vanishes for
    0 <= n < k and is nonzero for every negative n; Pascal's rule
    gen_binom(n, k) = gen_binom(n-1, k) + gen_binom(n-1, k-1) holds for all
    integers n.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for i in range(k):
        num *= n - i
    return Fraction(num, math.factorial(k))


def falling_factorial(n: int, p: int) -> Fraction:
    """n(n-1)...(n-p+1), the empty product 1 for p = 0."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    out = 1
    for i in range(p):
        out *= n - i
    return Fraction(out)


# -- sparse exponent->coefficient helpers shared by Poly and DOp -------------


def _sp_clean(data: dict) -> dict:
    out = {}
    for k, v in data.items():
        v = rat(v)
        if v != 0:
            if k < 0:
                raise ValueError("negative exponent in a polynomial")
            out[int(k)] = v
    return out


def _sp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _sp_scale(a: dict, c: Fraction) -> dict:
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
        c = rem[dr] / lb
        quo[k] = c
        for kb, vb in b.items():
            s = rem.get(kb + k, 0) - c * vb
            if s == 0:
                rem.pop(kb + k, None)
            else:
                rem[kb + k] = s
    return quo


def _sp_format(data: dict, sym: str) -> str:
    if not data:
        return "0"
    parts = []
    for k in sorted(data, reverse=True):
        c = data[k]
        if k == 0:
            term = str(c)
        else:
            head = sym if k == 1 else f"{sym}^{k}"
            if c == 1:
                term = head
            elif c == -1:
                term = "-" + head
            else:
                term = f"{c}*{head}"
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


class Poly:
    """Sparse univariate polynomial over the rationals in a named variable.

    Treat instances as immutable.  Binary operations require matching
    variables; a constant adopts the other operand's variable.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs=None, var: str = "x"):
        self.var = var
        self.coeffs = _sp_clean(coeffs or {})

    # constructors
    @classmethod
    def zero(cls, var: str = "x") -> "Poly":
        return cls({}, var)

    @classmethod
    def const(cls, c, var: str = "x") -> "Poly":
        return cls({0: rat(c)}, var)

    @classmethod
    def one(cls, var: str = "x") -> "Poly":
        return cls({0: 1}, var)

    @classmethod
    def monomial(cls, k: int, c=1, var: str = "x") -> "Poly":
        return cls({k: rat(c)}, var)

    @classmethod
    def variable(cls, var: str = "x") -> "Poly":
        return cls({1: 1}, var)

    # queries
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return all(k == 0 for k in self.coeffs)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.coeffs.get(0, Fraction(0))

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def items(self):
        return sorted(self.coeffs.items())

    def key(self):
        return (self.var, tuple(sorted(self.coeffs.items())))

    def _join_var(self, other: "Poly") -> str:
        if self.var == other.var or other.is_const():
            return self.var
        if self.is_const():
            return other.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # arithmetic
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_sp_add(self.coeffs, other.coeffs), self._join_var(other))

    __radd__ = __add__

    def __neg__(self):
        return Poly(_sp_scale(self.coeffs, Fraction(-1)), self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(_sp_scale(self.coeffs, rat(other)), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_sp_mul(self.coeffs, other.coeffs), self._join_var(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.var)
        for _ in range(n):
            out = out * self
        return out

    def derive(self) -> "Poly":
        """Formal derivative with respect to the variable."""
        return Poly({k - 1: v * k for k, v in self.coeffs.items() if k > 0}, self.var)

    def divexact(self, other: "Poly") -> "Poly":
        return Poly(_sp_divexact(self.coeffs, other.coeffs), self._join_var(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        return self.is_const() or other.is_const() or self.var == other.var

    def __hash__(self):
        # a constant equals its value and the same constant in any variable
        if self.is_const():
            return hash(self.coeffs.get(0, Fraction(0)))
        return hash(self.key())

    def __repr__(self):
        return _sp_format(self.coeffs, self.var)


def poly_derive(p: Poly) -> Poly:
    """Formal derivative d/dvar of a sparse polynomial."""
    return p.derive()


class DOp:
    """Element of Q[d]: a polynomial in the module-action symbol d.

    These act on conformal elements; they are kept separate from base-ring
    polynomials so the two kinds of variable can never be mixed up.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = _sp_clean(coeffs or {})

    @classmethod
    def zero(cls) -> "DOp":
        return cls({})

    @classmethod
    def one(cls) -> "DOp":
        return cls({0: 1})

    @classmethod
    def const(cls, c) -> "DOp":
        return cls({0: rat(c)})

    @classmethod
    def d(cls, p: int = 1) -> "DOp":
        return cls({p: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def items(self):
        return sorted(self.coeffs.items())

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    def times_d(self) -> "DOp":
        """Multiply by one power of d (shift every exponent up)."""
        return DOp({k + 1: v for k, v in self.coeffs.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DOp.const(other)
        if not isinstance(other, DOp):
            return NotImplemented
        return DOp(_sp_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return DOp(_sp_scale(self.coeffs, Fraction(-1)))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DOp.const(other)
        if not isinstance(other, DOp):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DOp(_sp_scale(self.coeffs, rat(other)))
        if not isinstance(other, DOp):
            return NotImplemented
        return DOp(_sp_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def divexact(self, other: "DOp") -> "DOp":
        return DOp(_sp_divexact(self.coeffs, other.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DOp.const(other)
        if not isinstance(other, DOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return _sp_format(self.coeffs, "d")


class MatPoly:
    """Square matrix with Poly entries.  The dimension is fixed per instance."""

    __slots__ = ("n", "var", "rows")

    def __init__(self, rows, var: str | None = None):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if var is None:
            var = next((e.var for r in rows for e in r if not e.is_const()), "x")
        fixed = []
        for r in rows:
            fr = []
            for e in r:
                if not isinstance(e, Poly):
                    e = Poly.const(e, var)
                fr.append(e)
            fixed.append(tuple(fr))
        self.n = n
        self.var = var
        self.rows = tuple(fixed)

    @classmethod
    def zero(cls, n: int, var: str = "x") -> "MatPoly":
        z = Poly.zero(var)
        return cls([[z] * n for _ in range(n)], var)

    @classmethod
    def identity(cls, n: int, var: str = "x") -> "MatPoly":
        return cls(
            [[Poly.one(var) if i == j else Poly.zero(var) for j in range(n)] for i in range(n)],
            var,
        )

    @classmethod
    def unit(cls, n: int, i: int, j: int, var: str = "x", coeff=1, xpow: int = 0) -> "MatPoly":
        """Matrix unit E_ij (0-based) scaled by coeff * var^xpow."""
        rows = [[Poly.zero(var) for _ in range(n)] for _ in range(n)]
        rows[i][j] = Poly.monomial(xpow, coeff, var)
        return cls(rows, var)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def degree(self) -> int:
        return max((e.degree() for r in self.rows for e in r), default=-1)

    def key(self):
        return (self.n, tuple(tuple(e.key() for e in r) for r in self.rows))

    def _check(self, other: "MatPoly"):
        if self.n != other.n:
            raise ValueError("matrix dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check(other)
        return MatPoly(
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.n)] for i in range(self.n)],
            self.var,
        )

    def __neg__(self):
        return MatPoly([[-e for e in r] for r in self.rows], self.var)

    def __sub__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return MatPoly([[e * other for e in r] for r in self.rows], self.var)
        if not isinstance(other, MatPoly):
            return NotImplemented
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Poly.zero(self.var)
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return MatPoly(out, self.var)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return MatPoly([[other * e for e in r] for r in self.rows], self.var)
        return NotImplemented

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError("negative matrix power")
        out = MatPoly.identity(self.n, self.var)
        for _ in range(p):
            out = out * self
        return out

    def derive(self) -> "MatPoly":
        return MatPoly([[e.derive() for e in r] for r in self.rows], self.var)

    def det(self) -> Poly:
        """Exact determinant by cofactor expansion (intended for small n)."""
        n = self.n
        if n == 1:
            return self.rows[0][0]
        acc = Poly.zero(self.var)
        for j in range(n):
            if self.rows[0][j].is_zero():
                continue
            minor = MatPoly(
                [[self.rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)],
                self.var,
            )
            term = self.rows[0][j] * minor.det()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"[{rows}]"
