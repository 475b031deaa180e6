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
    proddef    := IDENT "(" INT ")" IDENT "=" comb ";"
    comb       := "0" | cterm (("+" | "-") cterm)*
    cterm      := ("+" | "-")* [literal ["*"]] ("d" ["^" INT] ["*"])*
                  ("(" comb ")" | IDENT)
    expr       := eterm (("+" | "-") eterm)*
    eterm      := factor ("*" factor)*
    factor     := atom ("^" INT)?
    atom       := literal | IDENT | "E" "(" INT "," INT ")"
                | "(" expr ")" | "-" atom
    rational   := ("+" | "-")* literal
    literal    := INT ["/" INT]

INT is a run of ASCII digits.  A unary minus binds tighter than `^`:
`-x^2` is (-x)^2, and -(x^2) needs its parentheses.  `comb` is a
Q[d]-combination of generators, read as (coefficient, d-power, generator)
triples in source order: it is the right-hand side of a product and the text
of an element (`parse_element`, `--element`).  Its "0" alternative stands
for a whole combination, followed by ";", ")" or the end.  `expr` is an
expression over the base algebra: a generator value, an `ad(...)` correction
and the nilpotent `r` of identity transport (`parse_base_expr`, `--r`).
Text given on its own, as an element or an `r`, must be consumed whole:
anything after the rule is an error.

MAX_EXPONENT caps every exponent: the d-power of each term of a
combination, nested `d`s added up, the product of the `^` exponents
nested around each atom of an expression, scalars included, and the order n
of each product a (n) b in a `products` block.  MAX_MATPOLY_SIZE caps the n
of `matpoly n`: the ring keeps its n*n matrix units as named atoms.

The symbol `d` is reserved: it denotes the module operator in combinations
(`d g`, `d^2 g`, `d(g)`) and cannot name a generator or a variable.
`findim` structure constants are d*d*d rationals, row-major over
(i, j, k) = coefficient of b_{k+1} in b_{i+1} * b_{j+1}; the default basis
names are b1..bd.  A `matrix` derivation is d*d rationals, row-major, with
columns holding the images of the basis elements.  `module { ... }`
declarations (torsion constraints on generators) are recognized and rejected:
presentations here are free over the operator ring.  Each product a (n) b is
defined at most once in a `products` block.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import BoundExceeded, NotNilpotent, ParseError
from .exact_arith import DOp, power, ratio, signed_sum
from .record import Record

MAX_EXPONENT = 256
"""Largest exponent input text may ask for (see the module doc); more is a ParseError.

On a 2-vCPU Xeon VM under Python 3.11, `confal identity` of d^256 e on the
Weyl instance takes about 0.5 s and of d^1000 e about 50 s; the benchmark's
workloads use powers up to d^15.
"""

MAX_MATPOLY_SIZE = 256
"""Largest n a `matpoly n` base may ask for; more is a ParseError.

On a 2-vCPU Xeon VM under Python 3.11, `confal locality` of a one-generator
`matpoly n x` over d/dx takes about 0.4 s at n = 256 and 8 s at n = 1024.
"""

_PUNCT = set("{}()[];,=+-*/^")
_DIGITS = "0123456789"
_TORSION = "torsion presentations are rejected: generators must be free over the operator ring"


class Token(Record):
    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # "ident" | "int" | "punct" | "eof"
        self.value = value
        self.line = line
        self.col = col

    def __hash__(self):
        return hash(self._compared())


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
        if ch in _DIGITS:
            start, c0 = i, col
            while i < n and source[i] in _DIGITS:
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


class AlgebraSpec(Record):
    """Parsed definition of one algebra instance.

    Expressions are nested tuples: ("num", c) with c an int or Fraction (an
    int when integral), ("name", str), ("E", i, j), ("neg", x),
    ("add"|"sub"|"mul", left, right), ("pow", base, int).  Product clauses
    are (left, n, right, terms) with terms a tuple of (coefficient, d_power,
    generator) triples.  `line`, where the definition starts, is left out of ==.
    """

    _uncompared = ("line",)

    def __init__(self, name: str, kind: str, base: tuple | None = None,
                 deriv: tuple | None = None, generators: tuple = (), products: tuple = (),
                 line: int = 0):
        self.name = name
        self.kind = kind
        self.base = base
        self.deriv = deriv
        self.generators = generators
        self.products = products
        self.line = line


def _nested_power(expr) -> int:
    """The largest product of the `^` exponents around one atom of an expression."""
    kind = expr[0]
    if kind == "pow":
        return max(expr[2], 1) * _nested_power(expr[1])
    if kind in ("add", "sub", "mul"):
        return max(_nested_power(expr[1]), _nested_power(expr[2]))
    if kind == "neg":
        return _nested_power(expr[1])
    return 1


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

    def unexpected(self, *expected, tok: Token | None = None):
        tok = tok or self.peek()
        self.error(f"found {tok.value!r}" if tok.value else "unexpected end of input",
                   tok, expected)

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            self.unexpected(repr(value))
        return self.next()

    def expect_ident(self, value: str | None = None) -> Token:
        if not self.at_ident(value):
            self.unexpected(repr(value) if value else "a name")
        return self.next()

    def expect_name(self) -> Token:
        """A name of one's own: any identifier but the reserved `d`."""
        tok = self.expect_ident()
        if tok.value == "d":
            self.error("'d' is reserved for the module operator", tok)
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_ident(self, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (value is None or tok.value == value)

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.unexpected("an integer")
        self.next()
        if 0 < sys.get_int_max_str_digits() < len(tok.value):
            self.error("integer literal too long", tok)
        return int(tok.value)

    def check_exponent(self, power: int, tok: Token, what: str = "power"):
        if power > MAX_EXPONENT:
            self.error(f"{what} {power} exceeds the exponent cap {MAX_EXPONENT}", tok)

    def parse_sign(self) -> int:
        sign = 1
        while self.at_punct("-") or self.at_punct("+"):
            if self.next().value == "-":
                sign = -sign
        return sign

    def parse_literal(self):
        tok = self.peek()
        num = self.expect_int()
        if not self.at_punct("/"):
            return num
        self.next()
        den = self.expect_int()
        if den == 0:
            self.error("zero denominator", tok)
        return ratio(num, den)

    def parse_rational(self):
        return self.parse_sign() * self.parse_literal()

    # -- Q[d]-combinations of generators -------------------------------------------

    def parse_combination(self) -> list:
        """A `comb`, as (coefficient, d_power, name token) triples in source order."""
        after = self.peek(1)
        if self.peek().kind == "int" and self.peek().value == "0" \
                and (after.kind == "eof" or after.value in (";", ")")):
            self.next()
            return []
        terms = []
        while True:
            coeff = self.parse_sign()
            if self.peek().kind == "int":
                coeff *= self.parse_literal()
                if self.at_punct("*"):
                    self.next()
            power, tok = 0, None
            while self.at_ident("d"):
                tok, step = self.next(), 1
                if self.at_punct("^"):
                    self.next()
                    tok, step = self.peek(), self.expect_int()
                power += step
                if self.at_punct("*"):
                    self.next()
            if self.at_punct("("):
                self.next()
                inner = self.parse_combination()
                self.expect_punct(")")
            else:
                inner = [(1, 0, self.expect_name())]
            inner = [(coeff * c, p + power, name) for c, p, name in inner]
            if tok is not None:
                self.check_exponent(max((p for _, p, _ in inner), default=power), tok)
            terms += inner
            if not (self.at_punct("+") or self.at_punct("-")):
                return terms

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
            tok, exp = self.peek(), self.expect_int()
            self.check_exponent(exp * _nested_power(node), tok)
            node = ("pow", node, exp)
        return node

    def parse_atom(self) -> tuple:
        tok = self.peek()
        if self.at_punct("-"):
            self.next()
            inner = self.parse_atom()
            if inner[0] == "num":
                return ("num", -inner[1])
            return ("neg", inner)
        if tok.kind == "int":
            return ("num", self.parse_literal())
        if self.at_ident("E") and self.peek(1).kind == "punct" and self.peek(1).value == "(":
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
        if self.at_punct("("):
            self.next()
            node = self.parse_expr()
            self.expect_punct(")")
            return node
        self.unexpected("an expression")

    # -- clauses -----------------------------------------------------------------

    def parse_file(self):
        specs = []
        while not self.peek().kind == "eof":
            if self.at_ident("module"):
                self.error(_TORSION, expected=("'algebra'",))
            if not self.at_ident("algebra"):
                self.unexpected("'algebra'")
            name_tok = self.peek(1)
            specs.append(self.parse_algebra())
            if any(s.name == name_tok.value for s in specs[:-1]):
                self.error("duplicate algebra name", name_tok)
        if not specs:
            self.error("empty definition file", expected=("'algebra'",))
        return specs

    def parse_algebra(self) -> AlgebraSpec:
        head = self.expect_ident("algebra")
        name = self.expect_ident().value
        self.expect_punct("{")
        rules = {"kind": self.parse_kind, "base": self.parse_base, "deriv": self.parse_deriv,
                 "generators": self.parse_generators, "products": self.parse_products}
        clauses = {}
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind != "ident":
                self.unexpected("a clause keyword")
            if tok.value == "module":
                self.error(_TORSION, tok)
            if tok.value not in rules:
                self.error(f"unknown clause {tok.value!r}", tok, expected=tuple(rules))
            if tok.value in clauses:
                self.error(f"duplicate {tok.value} clause", tok)
            self.next()
            clauses[tok.value] = rules[tok.value]()
            if tok.value in ("kind", "base", "deriv"):
                self.expect_punct(";")
        close = self.expect_punct("}")
        kind, base, deriv, products = map(clauses.get, ("kind", "base", "deriv", "products"))
        generators, gen_style = clauses.get("generators", (None, None))
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
        return AlgebraSpec(
            name=name,
            kind=kind,
            base=base,
            deriv=deriv,
            generators=tuple(generators),
            products=tuple(products or ()),
            line=head.line,
        )

    def parse_kind(self) -> str:
        tok = self.expect_ident()
        if tok.value not in ("differential", "presented"):
            self.unexpected("'differential'", "'presented'", tok=tok)
        return tok.value

    def parse_base(self) -> tuple:
        tok = self.expect_ident()
        if tok.value == "poly":
            return ("poly", self.expect_name().value)
        if tok.value == "matpoly":
            size = self.peek()
            n = self.expect_int()
            if n < 1:
                self.error("matrix dimension must be positive", tok)
            if n > MAX_MATPOLY_SIZE:
                self.error(f"matrix dimension {n} exceeds the cap {MAX_MATPOLY_SIZE}", size)
            return ("matpoly", n, self.expect_name().value)
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
        self.unexpected("'poly'", "'matpoly'", "'findim'", tok=tok)

    def parse_rational_list(self):
        self.expect_punct("[")
        rats = [self.parse_rational()]
        while self.at_punct(","):
            self.next()
            rats.append(self.parse_rational())
        self.expect_punct("]")
        return rats

    def parse_deriv(self) -> tuple:
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
                self.unexpected("'d<var>'", tok=dvar)
            var = dvar.value[1:]
            adjoint = None
            if self.at_punct("+"):
                self.next()
                self.expect_ident("ad")
                self.expect_punct("(")
                adjoint = self.parse_expr()
                self.expect_punct(")")
            return ("ddx", var, adjoint)
        self.unexpected("'zero'", "'d/d<var>'", "'matrix'")

    def parse_generators(self):
        gens, seen = [], set()

        def new_name() -> str:
            tok = self.expect_name()
            if tok.value in seen:
                self.error(f"duplicate generator {tok.value!r}", tok)
            seen.add(tok.value)
            return tok.value

        if self.at_punct("{"):
            self.next()
            while not self.at_punct("}"):
                nm = new_name()
                self.expect_punct("=")
                gens.append((nm, self.parse_expr()))
                self.expect_punct(";")
            self.next()
            if not gens:
                self.error("empty generators block")
            return gens, "braced"
        gens.append(new_name())
        while self.at_punct(","):
            self.next()
            gens.append(new_name())
        self.expect_punct(";")
        return gens, "bare"

    def parse_products(self):
        self.expect_punct("{")
        clauses = []
        seen = set()
        while not self.at_punct("}"):
            head = self.peek()
            lname = self.expect_ident().value
            self.expect_punct("(")
            order_tok = self.peek()
            order = self.expect_int()
            self.check_exponent(order, order_tok, "product order")
            self.expect_punct(")")
            rname = self.expect_ident().value
            if (lname, order, rname) in seen:
                self.error(f"duplicate product {lname} ({order}) {rname}", head)
            seen.add((lname, order, rname))
            self.expect_punct("=")
            terms = tuple((c, p, tok.value) for c, p, tok in self.parse_combination())
            self.expect_punct(";")
            clauses.append((lname, order, rname, terms))
        self.next()
        return clauses


def _parse_whole(text: str, rule):
    """Apply a parser rule to the whole of a text; input left after it is an error."""
    parser = _Parser(tokenize(text))
    try:
        out = rule(parser)
    except RecursionError:
        parser.error("nested too deeply")
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"trailing input {tok.value!r}", tok)
    return out


def parse(source: str):
    """Parse a definition file into a list of AlgebraSpec."""
    return _parse_whole(source, _Parser.parse_file)


def parse_base_expr(text: str) -> tuple:
    """Parse a base-algebra expression (`expr`), such as the `r` of `--r`."""
    return _parse_whole(text, _Parser.parse_expr)


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
        text = "-" + _expr_text(expr[1], 3)  # `-` binds tighter than `^`
        return f"({text})" if prec >= 1 else text
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        text = _expr_text(expr[1], 0) + op + _expr_text(expr[2], 1)
        return f"({text})" if prec >= 1 else text
    if kind == "mul":
        text = _expr_text(expr[1], 1) + "*" + _expr_text(expr[2], 2)
        return f"({text})" if prec >= 2 else text
    if kind == "pow":
        text = _expr_text(expr[1], 3) + f"^{expr[2]}"
        return f"({text})" if prec >= 3 else text
    raise ValueError(f"unknown expression node {kind!r}")


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
                rhs = signed_sum((c, (f"d^{p} " if p > 1 else "d " * p) + nm)
                                 for c, p, nm in terms)
                lines.append(f"    {lname}({order}){rname} = {rhs};")
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- evaluation and building -----------------------------------------------------------


_SCALAR = (int, Fraction)


def _eval(expr, base, atoms):
    """Evaluate an expression tree to a scalar (int or Fraction) or a base-algebra value."""
    kind = expr[0]
    if kind == "num":
        return expr[1]
    if kind == "name":
        if expr[1] not in atoms:
            raise ValueError(f"unknown name {expr[1]!r} in a base expression")
        return atoms[expr[1]]
    if kind == "E":
        name = f"E({expr[1]},{expr[2]})"
        if name not in atoms:
            raise ValueError(f"this base has no matrix unit {name}")
        return atoms[name]
    if kind == "neg":
        return -_eval(expr[1], base, atoms)
    if kind in ("add", "sub"):
        lv = _eval(expr[1], base, atoms)
        rv = _eval(expr[2], base, atoms)
        if isinstance(lv, _SCALAR) != isinstance(rv, _SCALAR):
            # a scalar meets a value: lift the scalar to c * 1
            lv = base.one() * lv if isinstance(lv, _SCALAR) else lv
            rv = base.one() * rv if isinstance(rv, _SCALAR) else rv
        return lv + rv if kind == "add" else lv - rv
    if kind == "mul":
        lv = _eval(expr[1], base, atoms)
        rv = _eval(expr[2], base, atoms)
        if isinstance(lv, _SCALAR) and not isinstance(rv, _SCALAR):
            return rv * lv  # scalars are central
        return lv * rv
    if kind == "pow":
        val = _eval(expr[1], base, atoms)
        k = expr[2]
        if k < 0:
            raise ValueError("negative exponents are not supported")
        if isinstance(val, _SCALAR):
            return val ** k
        return power(val, k, base.one)
    raise ValueError(f"unknown expression node {kind!r}")


def eval_base_expr(expr, base):
    """Evaluate an expression tree to an element of the base algebra.

    Its atoms are the base's named ring generators: the variable of a
    polynomial base, the matrix units E(i,j) and x*I of a matpoly base, and
    the basis elements of a findim base.
    """
    return _base_value(expr, base, dict(base.ring_generators()))


def _base_value(expr, base, atoms):
    """eval_base_expr against a given atom table, so one build reads it once."""
    val = _eval(expr, base, atoms)
    return base.one() * val if isinstance(val, _SCALAR) else val


def _reshape(flat, *dims):
    out = list(flat)
    for d in reversed(dims[1:]):
        out = [out[i: i + d] for i in range(0, len(out), d)]
    return out


def build(spec: AlgebraSpec):
    """Construct the algebra an AlgebraSpec describes.

    Semantic failures (bad structure constants, a non-derivation, unknown
    names, a derivation not locally nilpotent within its bound, an ad(r) with
    r not nilpotent) surface as ValueError: the file is at fault, so the
    constructor's NotNilpotent or BoundExceeded is re-raised as a ValueError
    with the same message.
    """
    if spec.kind == "presented":
        from .presented_conformal import PresentedAlgebra, ProductTable

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

    from .diff_conformal import DifferentialAlgebra
    from .ore_skew import FinDim, LinearAction, MatPolyRing, PolyRing, ScaledDdx, ZeroDerivation

    bkind = spec.base[0]
    if bkind == "poly":
        base = PolyRing(spec.base[1])
    elif bkind == "matpoly":
        base = MatPolyRing(spec.base[1], spec.base[2])
    else:
        dim = spec.base[1]
        table = _reshape(spec.base[2], dim, dim, dim)
        base = FinDim(table)

    atoms = dict(base.ring_generators())
    dkind = spec.deriv[0]
    if dkind == "zero":
        make, args = ZeroDerivation, ()
    elif dkind == "matrix":
        if bkind != "findim":
            raise ValueError("a matrix derivation needs a findim base")
        flat = spec.deriv[1]
        if len(flat) != base.dim ** 2:
            raise ValueError(
                f"derivation matrix needs {base.dim ** 2} rationals, got {len(flat)}"
            )
        make, args = LinearAction, (_reshape(flat, base.dim, base.dim),)
    else:
        _, var, adjoint = spec.deriv
        if bkind == "findim":
            raise ValueError("d/dx does not act on a findim base")
        if var != base.var:
            raise ValueError(f"derivation variable {var!r} does not match base {base.var!r}")
        if adjoint is not None and bkind != "matpoly":
            raise ValueError("ad(...) corrections need a matpoly base")
        make = ScaledDdx
        args = () if adjoint is None else (_base_value(adjoint, base, atoms),)
    try:
        delta = make(base, *args)
    except (NotNilpotent, BoundExceeded) as exc:
        raise ValueError(str(exc)) from exc

    gens = {name: _base_value(expr, base, atoms) for name, expr in spec.generators}
    return DifferentialAlgebra(base, delta, gens, name=spec.name)


def build_all(source: str) -> dict:
    """Parse and build every algebra in a definition text, keyed by name."""
    return {spec.name: build(spec) for spec in parse(source)}


def load_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return build_all(fh.read())


# -- elements (for --element) ----------------------------------------------------------


def parse_element(alg, text: str):
    """Evaluate a Q[d]-combination of an algebra's generators (`comb` in the grammar).

    Accepts sums of terms like `u11`, `d(u12)`, `d^2 u12`, `3*d g`, with
    rational coefficients and parentheses; an unknown generator is a
    ParseError at its name.
    """
    gens = dict(alg.generator_items())
    out = alg.zero_elem()
    for coeff, dpow, tok in _parse_whole(text, _Parser.parse_combination):
        if tok.value not in gens:
            raise ParseError(f"unknown generator {tok.value!r}", tok.line, tok.col)
        out = out + alg.apply_dop_power(gens[tok.value], dpow) * coeff
    return out
