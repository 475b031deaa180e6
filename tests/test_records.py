"""The report and record classes: data-class repr, field-wise ==, fresh defaults."""

import pytest

from confal import (
    AlgebraSpec,
    CheckReport,
    DongReport,
    IdealClosure,
    IdentityReport,
    RecognitionResult,
    SimplicityReport,
)
from confal.dsl import Token, tokenize
from confal.growth import MonomialSpan

# each record built from its required arguments alone, and its defaulted containers
FRESH_DEFAULTS = [
    (lambda: CheckReport("a"), ("failures", "details")),
    (lambda: IdentityReport(1), ("failures",)),
    (lambda: DongReport(2), ("degrees",)),
    (lambda: MonomialSpan(2, 1), ("entries",)),
    (lambda: RecognitionResult("a", IdentityReport(1), None, [], [], {}, {}, None, {}, {},
                               True, True, True), ("failures", "log")),
    (lambda: IdealClosure(1, [], None, 0), ("log",)),
    (lambda: SimplicityReport("a", 1, 1, 0, 0), ("witness_missing", "log")),
]


def test_equal_fields_compare_equal():
    assert CheckReport("a") == CheckReport("a")
    assert CheckReport("a") != CheckReport("b")
    assert CheckReport("a", checked=2) != CheckReport("a", checked=3)


def test_records_of_different_classes_are_unequal():
    assert IdentityReport(1) != DongReport(1)
    assert CheckReport("a") != ("a", True, 0, [], {})


@pytest.mark.parametrize("make,fields", FRESH_DEFAULTS,
                         ids=[type(make()).__name__ for make, _ in FRESH_DEFAULTS])
def test_defaults_are_fresh_per_instance(make, fields):
    first, second = make(), make()
    for name in fields:
        assert getattr(first, name) == getattr(second, name)
        assert getattr(first, name) is not getattr(second, name), name


def test_repr_matches_the_data_class_repr():
    # the strings a generated data class printed for the same values
    rep = CheckReport("assoc", checked=3, failures=["x (0) y"], details={"pairs": 2})
    assert repr(rep) == (
        "CheckReport(name='assoc', ok=False, checked=3, failures=['x (0) y'], details={'pairs': 2})"
    )
    assert repr(IdentityReport(1)) == (
        "IdentityReport(ok=True, self_locality=1, exactly_one=True, failures=[])"
    )
    assert repr(tokenize("d^2 e")[:2]) == (
        "[Token(kind='ident', value='d', line=1, col=1), "
        "Token(kind='punct', value='^', line=1, col=2)]"
    )


def test_verdicts_are_read_off_the_measured_fields():
    assert CheckReport("x").ok is True
    assert CheckReport("x", failures=["y"]).ok is False
    rep = CheckReport("x")
    rep.fail("y")
    assert rep.ok is False and rep.failures == ["y"]
    assert IdentityReport(1).exactly_one is True and IdentityReport(1).ok is True
    assert IdentityReport(2, ["too deep"]).exactly_one is False
    assert IdentityReport(2, ["too deep"]).ok is False
    assert (DongReport(3).ok, DongReport(3).witness) == (True, None)
    closure = IdealClosure(2, ["a", "b"], None, 1)
    assert (closure.dim, closure.unit_found, closure.saturated) == (2, False, False)
    closure = IdealClosure(2, [], "the unit lies in the span", 0)
    assert (closure.dim, closure.unit_found, closure.saturated) == (0, True, True)
    assert SimplicityReport("a", 1, 1, 1, 1).witness_found is False
    assert SimplicityReport("a", 1, 1, 1, 1, witness="w").witness_found is True


def test_recognition_verdicts_are_read_off_its_tables():
    args = ("a", IdentityReport(1), None, ["u", "v"], [None, None])
    res = RecognitionResult(*args, {(0, 0): {1: 1}, (0, 1): None}, {0: {}, 1: {}}, None,
                            {}, {}, True, True, True)
    assert (res.ok, res.dim, res.closed, res.delta_is_zero) == (True, 2, False, True)
    res = RecognitionResult(*args, {(0, 0): {1: 1}}, {0: {1: 1}, 1: {}}, None, {}, {},
                            True, True, False, ["Leibniz fails"])
    assert (res.ok, res.dim, res.closed, res.delta_is_zero) == (False, 2, True, False)
    failed_identity = IdentityReport(2, ["self-locality degree 2 exceeds 1"])
    res = RecognitionResult("a", failed_identity, None, [], [], {}, {}, None, {}, {},
                            True, True, True)
    assert res.ok is False


def test_algebra_spec_ignores_line():
    first = AlgebraSpec("a", "presented", generators=("L",), line=4)
    assert first == AlgebraSpec("a", "presented", generators=("L",), line=9)
    assert first != AlgebraSpec("b", "presented", generators=("L",), line=4)
    assert repr(first) == ("AlgebraSpec(name='a', kind='presented', base=None, deriv=None, "
                           "generators=('L',), products=(), line=4)")


def test_token_is_hashable_and_reports_are_not():
    token = Token("ident", "x", 1, 1)
    assert hash(token) == hash(Token("ident", "x", 1, 1)) == hash(("ident", "x", 1, 1))
    assert len({token, Token("ident", "x", 1, 1), Token("ident", "x", 1, 2)}) == 2
    with pytest.raises(TypeError):
        hash(CheckReport("a"))


def test_results_holding_a_span_compare_by_their_fields():
    from confal import cur_dual_numbers, recognize_unital, simplicity_probe, weyl_algebra

    weyl = weyl_algebra()
    first, second = recognize_unital(weyl), recognize_unital(weyl)
    assert first == second and repr(first) == repr(second)
    assert "space=RowSpace(dim=" in repr(first)
    assert first.space is not second.space
    cureps = cur_dual_numbers()
    first, second = simplicity_probe(cureps), simplicity_probe(cureps)
    assert first.witness_closure is not None
    assert first == second and repr(first) == repr(second)
    assert "space=RowSpace(dim=1, track=False)" in repr(first)
    # the span is left out of ==, every other field is not
    second.witness_closure.dropped += 1
    assert first != second
