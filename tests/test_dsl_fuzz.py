"""Fuzzing of the .confal text layer: parse and pretty only.

Specs are never built here: building evaluates base-ring expressions, whose
cost is unbounded on inputs such as `x^99999999`.
"""

import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confal import ParseError, parse, pretty

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(INSTANCES.glob("*.confal"))}

# fragments of the grammar, so that many edits still parse
FRAGMENTS = [
    " ", "\n", ";", ",", "(", ")", "{", "}", "[", "]", "=", "+", "-", "*", "/", "^",
    "#", "0", "1", "2", "3", "1/2", "-1", "d", "d^2 ", "x", "y", "a", "u12", "E(1,2)",
    "ad", "zero", "poly", "matpoly", "findim", "table", "matrix", "kind", "base",
    "deriv", "generators", "products", "module", "presented", "differential",
]

EDITS = st.lists(
    st.tuples(
        st.booleans(),  # True: insert a fragment, False: delete a span
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(FRAGMENTS),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=6,
)


def _edit(text: str, edits) -> str:
    for insert, at, fragment, length in edits:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at:] if insert else text[:at] + text[at + length:]
    return text


def _assert_round_trip(spec):
    text = pretty(spec)
    again = parse(text)
    assert len(again) == 1
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
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass
