"""Fuzzing of the .confal text layer.

Edited definition files are parsed and pretty-printed.  Edited element texts
and base-algebra expressions are also evaluated, as `--element` and `--r`
evaluate them: the exponent cap (`dsl.MAX_EXPONENT`) bounds the cost of
every power they can ask for.
"""

import pathlib

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from confal import ParseError, load_path, parse, parse_element, pretty
from confal.dsl import eval_base_expr, parse_base_expr

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(INSTANCES.glob("*.confal"))}

# fragments of the grammar, so that many edits still parse
FRAGMENTS = [
    " ", "\n", ";", ",", "(", ")", "{", "}", "[", "]", "=", "+", "-", "*", "/", "^",
    "#", "0", "1", "2", "3", "1/2", "-1", "d", "d^2 ", "x", "y", "a", "u12", "E(1,2)",
    "ad", "zero", "poly", "matpoly", "findim", "table", "matrix", "kind", "base",
    "deriv", "generators", "products", "module", "presented", "differential",
]


def _edits(fragments):
    return st.lists(
        st.tuples(
            st.booleans(),  # True: insert a fragment, False: delete a span
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from(fragments),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=6,
    )


EDITS = _edits(FRAGMENTS)

ALGEBRAS = {name: alg for path in INSTANCES.glob("*.confal")
            for name, alg in load_path(str(path)).items()}
ELEMENTS = [("weyl", "e"), ("weyl", "2*d^2 e - 1/3 L"), ("weyl", "d(e + 3 d L) - d^16 L"),
            ("cur2p", "u11 + u22 - d(u12)"), ("cur2p", "-(u12 - 3/2 d^3 u21)"), ("cur2p", "0")]
BASE_EXPRS = ["b2", "b1 + 2*b2", "(b1 - 1/2*b2)^3 * b2", "-b1^2 + (3*b2)^16"]
# names and exponents near the cap, so that evaluation is reached and bounded
EXPR_FRAGMENTS = FRAGMENTS + [
    "e", "L", "u11", "u12", "u22", "b1", "b2", "d(", "^16", "^256", "^257", "^99999999",
    "d^256 ", "d^99999999 ", "\u00b2", "\u0663",
]
EXPR_EDITS = _edits(EXPR_FRAGMENTS)


def _edit(text: str, edits) -> str:
    for insert, at, fragment, length in edits:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at:] if insert else text[:at] + text[at + length:]
    return text


def _assert_round_trip(spec):
    text = pretty(spec)
    again = parse(text)
    assert again == [spec]  # what pretty's docstring promises
    assert pretty(again[0]) == text


def test_bundled_instances_round_trip():
    for source in SOURCES.values():
        for spec in parse(source):
            _assert_round_trip(spec)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(SOURCES)), EDITS)
def test_edited_instances_round_trip(name, edits):
    try:
        specs = parse(_edit(SOURCES[name], edits))
    except ParseError:
        return
    for spec in specs:
        _assert_round_trip(spec)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)))
@example("algebra a { kind presented; generators g; products { g(\u00b2)g = g; } }")
@example("algebra a { kind presented; generators g; products { g(\u0663)g = g; } }")
@example("algebra a { kind presented; generators g; products { g(0)g = %s g; } }" % ("7" * 5000))
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(ELEMENTS), EXPR_EDITS)
def test_edited_elements_evaluate(case, edits):
    name, text = case
    try:
        parse_element(ALGEBRAS[name], _edit(text, edits))
    except ParseError:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(BASE_EXPRS), EXPR_EDITS)
def test_edited_base_expressions_evaluate(text, edits):
    base = ALGEBRAS["cureps"].base
    try:
        eval_base_expr(parse_base_expr(_edit(text, edits)), base)
    except (ParseError, ValueError):
        pass
