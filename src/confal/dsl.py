"""Definition files for algebra instances (extension .confal).

Grammar (EBNF; `#` starts a comment running to end of line):

    file       := algebra+
    algebra    := "algebra" IDENT "{" clause+ "}"
    clause     := "kind" ("differential" | "presented") ";"
                | "base" base ";"
                | "deriv" deriv ";"
                | "generators" "{" gendef+ "}"          (differential)
                | "generators" IDENT ("," IDENT)* ";"    (presented)
                | "products" "{" proddef+ "}"            (presented)
    base       := "poly" IDENT
                | "matpoly" INT IDENT
                | "findim" INT "table" "[" rational ("," rational)* "]"
    deriv      := "zero"
                | "d/d"IDENT ("+" "ad" "(" expr ")")?
                | "matrix" "[" rational ("," rational)* "]"
    gendef     := IDENT "=" expr ";"
    proddef    := IDENT "(" INT ")" IDENT "=" rhs ";"
    rhs        := "0" | term (("+" | "-") term)*
    term       := [rational ["*"]] ["d" ["^" INT] ["*"]] IDENT
    expr       := eterm (("+" | "-") eterm)*
    eterm      := factor ("*" factor)*
    factor     := atom ("^" INT)?
    atom       := rational | IDENT | "E" "(" INT "," INT ")"
                | "(" expr ")" | "-" atom
    rational   := ["-"] INT ["/" INT]

The symbol `d` is reserved: it denotes the module operator in product
right-hand sides and in element expressions (`d g`, `d^2 g`, `d(g)`).
`findim` structure constants are d*d*d rationals, row-major over
(i, j, k) = coefficient of b_{k+1} in b_{i+1} * b_{j+1}; the default basis
names are b1..bd.  A `matrix` derivation is d*d rationals, row-major, with
columns holding the images of the basis elements.  `module { ... }`
declarations (torsion constraints on generators) are recognized and rejected:
presentations here are free over the operator ring.  Each product a (n) b is
defined at most once in a `products` block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diff_conformal import DifferentialAlgebra
from .errors import ParseError
from .exact_arith import DOp, Poly
from .ore_skew import (
    DdxPlusAd,
    FinDim,
    LinearAction,
    MatPoly,
    MatPolyRing,
    PolyRing,
    ScaledDdx,
    ZeroDerivation,
)
from .presented_conformal import PresentedAlgebra, ProductTable

_PUNCT = set("{}()[];,=+-*/^")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    value: str
    line: int
    col: int


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start, c0 = i, col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("int", source[start:i], line, c0))
            continue
        if ch.isalpha() or ch == "_":
            start, c0 = i, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", source[start:i], line, c0))
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(eq=True)
class AlgebraSpec:
    """Parsed definition of one algebra instance.

    Expressions are nested tuples: ("num", Fraction), ("name", str),
    ("E", i, j), ("neg", x), ("add"|"sub"|"mul", left, right),
    ("pow", base, int).  Product clauses are (left, n, right, terms) with
    terms a tuple of (coefficient, d_power, generator) triples.
    """

    name: str
    kind: str
    base: tuple | None = None
    deriv: tuple | None = None
    generators: tuple = ()
    products: tuple = ()
    line: int = field(default=0, compare=False)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected=()):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            self.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                       expected=(repr(value),))
        return self.next()

    def expect_ident(self, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or (value is not None and tok.value != value):
            what = repr(value) if value else "a name"
            self.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                       expected=(what,))
        return self.next()

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_ident(self, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (value is None or tok.value == value)

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.error(f"found {tok.value!r}", expected=("an integer",))
        self.next()
        return int(tok.value)

    def parse_rational(self) -> Fraction:
        sign = 1
        while self.at_punct("-") or self.at_punct("+"):
            if self.next().value == "-":
                sign = -sign
        tok = self.peek()
        num = self.expect_int()
        if self.at_punct("/"):
            self.next()
            den = self.expect_int()
            if den == 0:
                self.error("zero denominator", tok)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # -- expression trees ------------------------------------------------------

    def parse_expr(self) -> tuple:
        node = self.parse_eterm()
        while self.at_punct("+") or self.at_punct("-"):
            op = "add" if self.next().value == "+" else "sub"
            node = (op, node, self.parse_eterm())
        return node

    def parse_eterm(self) -> tuple:
        node = self.parse_factor()
        while self.at_punct("*"):
            self.next()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self) -> tuple:
        node = self.parse_atom()
        if self.at_punct("^"):
            self.next()
            exp = self.expect_int()
            node = ("pow", node, exp)
        return node

    def parse_atom(self) -> tuple:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "-":
            self.next()
            inner = self.parse_atom()
            if inner[0] == "num":
                return ("num", -inner[1])
            return ("neg", inner)
        if tok.kind == "int":
            self.next()
            num = int(tok.value)
            if self.at_punct("/") and self.peek(1).kind == "int":
                self.next()
                den = self.expect_int()
                if den == 0:
                    self.error("zero denominator", tok)
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if tok.kind == "ident" and tok.value == "E" and self.peek(1).kind == "punct" \
                and self.peek(1).value == "(":
            self.next()
            self.expect_punct("(")
            i = self.expect_int()
            self.expect_punct(",")
            j = self.expect_int()
            self.expect_punct(")")
            return ("E", i, j)
        if tok.kind == "ident":
            self.next()
            return ("name", tok.value)
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            node = self.parse_expr()
            self.expect_punct(")")
            return node
        self.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                   expected=("an expression",))

    # -- clauses -----------------------------------------------------------------

    def parse_file(self):
        specs = []
        while not self.peek().kind == "eof":
            if self.at_ident("module"):
                self.error(
                    "torsion presentations are rejected: generators must be free "
                    "over the operator ring",
                    expected=("'algebra'",),
                )
            if not self.at_ident("algebra"):
                self.error(f"found {self.peek().value!r}", expected=("'algebra'",))
            specs.append(self.parse_algebra())
        if not specs:
            self.error("empty definition file", expected=("'algebra'",))
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            self.error("duplicate algebra name", self.tokens[0])
        return specs

    def parse_algebra(self) -> AlgebraSpec:
        head = self.expect_ident("algebra")
        name = self.expect_ident().value
        self.expect_punct("{")
        kind = None
        base = None
        deriv = None
        generators = None
        gen_style = None
        products = None
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind != "ident":
                self.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                           expected=("a clause keyword",))
            word = tok.value
            if word == "kind":
                if kind is not None:
                    self.error("duplicate kind clause", tok)
                self.next()
                kt = self.expect_ident()
                if kt.value not in ("differential", "presented"):
                    self.error(f"found {kt.value!r}", kt,
                               expected=("'differential'", "'presented'"))
                kind = kt.value
                self.expect_punct(";")
            elif word == "base":
                if base is not None:
                    self.error("duplicate base clause", tok)
                self.next()
                base = self.parse_base()
                self.expect_punct(";")
            elif word == "deriv":
                if deriv is not None:
                    self.error("duplicate deriv clause", tok)
                self.next()
                deriv = self.parse_deriv()
                self.expect_punct(";")
            elif word == "generators":
                if generators is not None:
                    self.error("duplicate generators clause", tok)
                self.next()
                generators, gen_style = self.parse_generators()
            elif word == "products":
                if products is not None:
                    self.error("duplicate products clause", tok)
                self.next()
                products = self.parse_products()
            elif word == "module":
                self.error(
                    "torsion presentations are rejected: generators must be free "
                    "over the operator ring", tok,
                )
            else:
                self.error(f"unknown clause {word!r}", tok,
                           expected=("kind", "base", "deriv", "generators", "products"))
        close = self.expect_punct("}")
        # block-level validation
        if kind is None:
            self.error("missing kind clause", head)
        if generators is None:
            self.error("missing generators clause", head)
        if kind == "differential":
            if gen_style != "braced":
                self.error("differential generators need '{ name = expr; ... }'", head)
            if base is None:
                self.error("a differential algebra needs a base clause", head)
            if deriv is None:
                self.error("a differential algebra needs a deriv clause", head)
            if products is not None:
                self.error("products clauses belong to presented algebras", head)
        else:
            if gen_style != "bare":
                self.error("presented generators are a bare name list", head)
            if base is not None or deriv is not None:
                self.error("presented algebras take no base or deriv clause", head)
            gen_set = set(generators)
            for lname, _, rname, terms in products or ():
                for refd in (lname, rname, *(t[2] for t in terms)):
                    if refd not in gen_set:
                        self.error(f"undeclared generator {refd!r} in products", close)
        del close
        return AlgebraSpec(
            name=name,
            kind=kind,
            base=base,
            deriv=deriv,
            generators=tuple(generators),
            products=tuple(products or ()),
            line=head.line,
        )

    def parse_base(self) -> tuple:
        tok = self.expect_ident()
        if tok.value == "poly":
            vtok = self.expect_ident()
            self._check_var(vtok)
            return ("poly", vtok.value)
        if tok.value == "matpoly":
            n = self.expect_int()
            if n < 1:
                self.error("matrix dimension must be positive", tok)
            vtok = self.expect_ident()
            self._check_var(vtok)
            return ("matpoly", n, vtok.value)
        if tok.value == "findim":
            dim = self.expect_int()
            if dim < 1:
                self.error("dimension must be positive", tok)
            self.expect_ident("table")
            rats = self.parse_rational_list()
            if len(rats) != dim ** 3:
                self.error(
                    f"findim table needs {dim ** 3} rationals, got {len(rats)}", tok
                )
            return ("findim", dim, tuple(rats))
        self.error(f"found {tok.value!r}", tok,
                   expected=("'poly'", "'matpoly'", "'findim'"))

    def _check_var(self, tok: Token):
        if tok.value == "d":
            self.error("'d' is reserved for the module operator", tok)

    def parse_rational_list(self):
        self.expect_punct("[")
        rats = [self.parse_rational()]
        while self.at_punct(","):
            self.next()
            rats.append(self.parse_rational())
        self.expect_punct("]")
        return rats

    def parse_deriv(self) -> tuple:
        tok = self.peek()
        if self.at_ident("zero"):
            self.next()
            return ("zero",)
        if self.at_ident("matrix"):
            self.next()
            return ("matrix", tuple(self.parse_rational_list()))
        if self.at_ident("d"):
            self.next()
            self.expect_punct("/")
            dvar = self.expect_ident()
            if not dvar.value.startswith("d") or len(dvar.value) < 2:
                self.error(f"found {dvar.value!r}", dvar, expected=("'d<var>'",))
            var = dvar.value[1:]
            adjoint = None
            if self.at_punct("+"):
                self.next()
                self.expect_ident("ad")
                self.expect_punct("(")
                adjoint = self.parse_expr()
                self.expect_punct(")")
            return ("ddx", var, adjoint)
        self.error(f"found {tok.value!r}", tok,
                   expected=("'zero'", "'d/d<var>'", "'matrix'"))

    def parse_generators(self):
        if self.at_punct("{"):
            self.next()
            gens = []
            seen = set()
            while not self.at_punct("}"):
                nm = self.expect_ident()
                self._check_gen_name(nm, seen)
                self.expect_punct("=")
                expr = self.parse_expr()
                self.expect_punct(";")
                gens.append((nm.value, expr))
                seen.add(nm.value)
            self.expect_punct("}")
            if not gens:
                self.error("empty generators block")
            return gens, "braced"
        gens = []
        seen = set()
        nm = self.expect_ident()
        self._check_gen_name(nm, seen)
        gens.append(nm.value)
        seen.add(nm.value)
        while self.at_punct(","):
            self.next()
            nm = self.expect_ident()
            self._check_gen_name(nm, seen)
            gens.append(nm.value)
            seen.add(nm.value)
        self.expect_punct(";")
        return gens, "bare"

    def _check_gen_name(self, tok: Token, seen):
        if tok.value == "d":
            self.error("'d' is reserved for the module operator", tok)
        if tok.value in seen:
            self.error(f"duplicate generator {tok.value!r}", tok)

    def parse_products(self):
        self.expect_punct("{")
        clauses = []
        seen = set()
        while not self.at_punct("}"):
            head = self.peek()
            lname = self.expect_ident().value
            self.expect_punct("(")
            order = self.expect_int()
            self.expect_punct(")")
            rname = self.expect_ident().value
            if (lname, order, rname) in seen:
                self.error(f"duplicate product {lname} ({order}) {rname}", head)
            seen.add((lname, order, rname))
            self.expect_punct("=")
            terms = self.parse_product_rhs()
            self.expect_punct(";")
            clauses.append((lname, order, rname, tuple(terms)))
        self.expect_punct("}")
        return clauses

    def parse_product_rhs(self):
        if self.peek().kind == "int" and self.peek().value == "0" \
                and self.peek(1).kind == "punct" and self.peek(1).value == ";":
            self.next()
            return []
        terms = [self.parse_product_term(1)]
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.next().value == "+" else -1
            terms.append(self.parse_product_term(sign))
        return terms

    def parse_product_term(self, sign: int):
        while self.at_punct("-") or self.at_punct("+"):
            if self.next().value == "-":
                sign = -sign
        coeff = Fraction(sign)
        if self.peek().kind == "int":
            coeff = sign * self.parse_rational()
            if self.at_punct("*"):
                self.next()
        dpow = 0
        if self.at_ident("d"):
            self.next()
            dpow = 1
            if self.at_punct("^"):
                self.next()
                dpow = self.expect_int()
            if self.at_punct("*"):
                self.next()
        nm = self.expect_ident()
        if nm.value == "d":
            self.error("'d' is reserved for the module operator", nm)
        return (coeff, dpow, nm.value)


def parse(source: str):
    """Parse a definition file into a list of AlgebraSpec."""
    return _Parser(tokenize(source)).parse_file()


# -- pretty printing ------------------------------------------------------------------


def _expr_text(expr, prec: int = 0) -> str:
    kind = expr[0]
    if kind == "num":
        text = str(expr[1])
        return f"({text})" if prec >= 2 and expr[1] < 0 else text
    if kind == "name":
        return expr[1]
    if kind == "E":
        return f"E({expr[1]},{expr[2]})"
    if kind == "neg":
        inner = _expr_text(expr[1], 2)
        text = f"-{inner}"
        return f"({text})" if prec >= 1 else text
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        text = _expr_text(expr[1], 0) + op + _expr_text(expr[2], 1)
        return f"({text})" if prec >= 1 else text
    if kind == "mul":
        text = _expr_text(expr[1], 1) + "*" + _expr_text(expr[2], 2)
        return f"({text})" if prec >= 2 else text
    if kind == "pow":
        return _expr_text(expr[1], 3) + f"^{expr[2]}"
    raise ValueError(f"unknown expression node {kind!r}")


def _term_text(coeff: Fraction, dpow: int, name: str) -> str:
    dpart = "" if dpow == 0 else ("d " if dpow == 1 else f"d^{dpow} ")
    if coeff == 1:
        return f"{dpart}{name}"
    if coeff == -1:
        return f"-{dpart}{name}"
    return f"{coeff} {dpart}{name}"


def pretty(spec: AlgebraSpec) -> str:
    """Canonical text of a spec; parsing it back gives an equal AlgebraSpec."""
    lines = [f"algebra {spec.name} {{", f"  kind {spec.kind};"]
    if spec.base is not None:
        if spec.base[0] == "poly":
            lines.append(f"  base poly {spec.base[1]};")
        elif spec.base[0] == "matpoly":
            lines.append(f"  base matpoly {spec.base[1]} {spec.base[2]};")
        else:
            rats = ", ".join(str(c) for c in spec.base[2])
            lines.append(f"  base findim {spec.base[1]} table [{rats}];")
    if spec.deriv is not None:
        if spec.deriv[0] == "zero":
            lines.append("  deriv zero;")
        elif spec.deriv[0] == "matrix":
            rats = ", ".join(str(c) for c in spec.deriv[1])
            lines.append(f"  deriv matrix [{rats}];")
        else:
            _, var, adjoint = spec.deriv
            tail = "" if adjoint is None else f" + ad({_expr_text(adjoint)})"
            lines.append(f"  deriv d/d{var}{tail};")
    if spec.kind == "differential":
        lines.append("  generators {")
        for name, expr in spec.generators:
            lines.append(f"    {name} = {_expr_text(expr)};")
        lines.append("  }")
    else:
        lines.append(f"  generators {', '.join(spec.generators)};")
        if spec.products:
            lines.append("  products {")
            for lname, order, rname, terms in spec.products:
                if terms:
                    rhs = ""
                    for k, (c, p, nm) in enumerate(terms):
                        t = _term_text(abs(c) if k else c, p, nm)
                        if k:
                            rhs += " - " if c < 0 else " + "
                        rhs += t
                else:
                    rhs = "0"
                lines.append(f"    {lname}({order}){rname} = {rhs};")
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- evaluation and building -----------------------------------------------------------


def _eval(expr, base, atoms):
    """Evaluate an expression tree to ("scalar", Fraction) or ("elem", value)."""
    kind = expr[0]
    if kind == "num":
        return ("scalar", expr[1])
    if kind == "name":
        if expr[1] not in atoms:
            raise ValueError(f"unknown name {expr[1]!r} in a base expression")
        return ("elem", atoms[expr[1]])
    if kind == "E":
        i, j = expr[1], expr[2]
        if isinstance(base, MatPolyRing):
            if not (1 <= i <= base.n and 1 <= j <= base.n):
                raise ValueError(f"matrix unit E({i},{j}) out of range for n={base.n}")
            return ("elem", MatPoly.unit(base.n, i - 1, j - 1, base.var))
        if isinstance(base, FinDim) and f"E({i},{j})" in base.names:
            return ("elem", base.from_coords(
                {base.names.index(f"E({i},{j})"): Fraction(1)}))
        raise ValueError("matrix units need a matpoly or matrix-findim base")
    if kind == "neg":
        tag, val = _eval(expr[1], base, atoms)
        return (tag, -val if tag == "scalar" else base.neg(val))
    if kind in ("add", "sub"):
        lt, lv = _eval(expr[1], base, atoms)
        rt, rv = _eval(expr[2], base, atoms)
        if lt == "scalar" and rt == "scalar":
            return ("scalar", lv + rv if kind == "add" else lv - rv)
        lv = base.scale(base.one(), lv) if lt == "scalar" else lv
        rv = base.scale(base.one(), rv) if rt == "scalar" else rv
        return ("elem", base.add(lv, rv) if kind == "add" else base.sub(lv, rv))
    if kind == "mul":
        lt, lv = _eval(expr[1], base, atoms)
        rt, rv = _eval(expr[2], base, atoms)
        if lt == "scalar" and rt == "scalar":
            return ("scalar", lv * rv)
        if lt == "scalar":
            return ("elem", base.scale(rv, lv))
        if rt == "scalar":
            return ("elem", base.scale(lv, rv))
        return ("elem", base.mul(lv, rv))
    if kind == "pow":
        tag, val = _eval(expr[1], base, atoms)
        k = expr[2]
        if k < 0:
            raise ValueError("negative exponents are not supported")
        if tag == "scalar":
            return ("scalar", val ** k)
        out = base.one() if k == 0 else val
        for _ in range(k - 1):
            out = base.mul(out, val)
        return ("elem", out)
    raise ValueError(f"unknown expression node {kind!r}")


def eval_base_expr(expr, base):
    """Evaluate an expression tree to an element of the base algebra."""
    atoms = {}
    if isinstance(base, PolyRing):
        atoms[base.var] = Poly.variable(base.var)
    elif isinstance(base, MatPolyRing):
        atoms[base.var] = base.scale(base.one(), 1) * Poly.variable(base.var)
    elif isinstance(base, FinDim):
        for i, nm in enumerate(base.names):
            atoms[nm] = base.basis_element(i)
    tag, val = _eval(expr, base, atoms)
    if tag == "scalar":
        return base.scale(base.one(), val)
    return val


def _reshape(flat, *dims):
    out = list(flat)
    for d in reversed(dims[1:]):
        out = [out[i: i + d] for i in range(0, len(out), d)]
    return out


def build(spec: AlgebraSpec):
    """Construct the algebra an AlgebraSpec describes.

    Semantic failures (bad structure constants, a non-derivation, unknown
    names) surface as ValueError/NotNilpotent from the constructors.
    """
    if spec.kind == "presented":
        entries: dict = {}
        index = {g: i for i, g in enumerate(spec.generators)}
        for lname, order, rname, terms in spec.products:
            key = (index[lname], index[rname])
            prods = entries.setdefault(key, [])
            while len(prods) <= order:
                prods.append({})
            slot = prods[order]
            for coeff, dpow, gname in terms:
                gi = index[gname]
                slot[gi] = slot.get(gi, DOp.zero()) + DOp.d(dpow) * coeff
        table = ProductTable(spec.generators, entries)
        return PresentedAlgebra(table, name=spec.name)

    bkind = spec.base[0]
    if bkind == "poly":
        base = PolyRing(spec.base[1])
    elif bkind == "matpoly":
        base = MatPolyRing(spec.base[1], spec.base[2])
    else:
        dim = spec.base[1]
        table = _reshape(spec.base[2], dim, dim, dim)
        base = FinDim(table)

    dkind = spec.deriv[0]
    if dkind == "zero":
        delta = ZeroDerivation(base)
    elif dkind == "matrix":
        if not isinstance(base, FinDim):
            raise ValueError("a matrix derivation needs a findim base")
        flat = spec.deriv[1]
        if len(flat) != base.dim ** 2:
            raise ValueError(
                f"derivation matrix needs {base.dim ** 2} rationals, got {len(flat)}"
            )
        delta = LinearAction(base, _reshape(flat, base.dim, base.dim))
    else:
        _, var, adjoint = spec.deriv
        if isinstance(base, FinDim):
            raise ValueError("d/dx does not act on a findim base")
        if var != base.var:
            raise ValueError(f"derivation variable {var!r} does not match base {base.var!r}")
        if adjoint is None:
            delta = ScaledDdx(base)
        else:
            if not isinstance(base, MatPolyRing):
                raise ValueError("ad(...) corrections need a matpoly base")
            r = eval_base_expr(adjoint, base)
            delta = DdxPlusAd(base, r)

    gens = {}
    for name, expr in spec.generators:
        gens[name] = eval_base_expr(expr, base)
    return DifferentialAlgebra(base, delta, gens, name=spec.name)


def build_all(source: str) -> dict:
    """Parse and build every algebra in a definition text, keyed by name."""
    return {spec.name: build(spec) for spec in parse(source)}


def load_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return build_all(fh.read())


# -- element expressions (for --element) -------------------------------------------------


def parse_element(alg, text: str):
    """Evaluate an element expression over an algebra's generators.

    Accepts sums of terms like `u11`, `d(u12)`, `d^2 u12`, `3*d g`, with
    rational coefficients and parentheses.
    """
    parser = _Parser(tokenize(text))

    def atom():
        tok = parser.peek()
        if parser.at_ident("d"):
            parser.next()
            dpow = 1
            if parser.at_punct("^"):
                parser.next()
                dpow = parser.expect_int()
            if parser.at_punct("("):
                parser.next()
                inner = expr()
                parser.expect_punct(")")
            else:
                if parser.at_punct("*"):
                    parser.next()
                inner = atom()
            return alg.apply_dop_power(inner, dpow)
        if parser.at_punct("("):
            parser.next()
            inner = expr()
            parser.expect_punct(")")
            return inner
        if tok.kind == "ident":
            parser.next()
            if tok.value not in dict(alg.generator_items()):
                parser.error(f"unknown generator {tok.value!r}", tok)
            return alg.generator(tok.value)
        parser.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                     expected=("a generator", "'d'", "'('"))

    def term():
        coeff = None
        if parser.peek().kind == "int":
            coeff = parser.parse_rational()
            if parser.at_punct("*"):
                parser.next()
        val = atom()
        return alg.scale(val, coeff) if coeff is not None else val

    def expr():
        sign = 1
        if parser.at_punct("-"):
            parser.next()
            sign = -1
        val = term()
        if sign < 0:
            val = alg.scale(val, -1)
        while parser.at_punct("+") or parser.at_punct("-"):
            neg = parser.next().value == "-"
            nxt = term()
            val = alg.sub(val, nxt) if neg else alg.add(val, nxt)
        return val

    out = expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"trailing input {tok.value!r}", tok)
    return out
