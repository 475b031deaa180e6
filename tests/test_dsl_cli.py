"""Definition files and the command-line surface."""

import json
import os
import re
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import confal
from confal import (
    FinDim, MatPoly, MatPolyRing, ParseError, build_all, load_path, parse, parse_element, pretty,
)
from confal import cli, diff_conformal
from confal.cli import main
from confal.dsl import (
    MAX_EXPONENT, MAX_MATPOLY_SIZE, AlgebraSpec, eval_base_expr, parse_base_expr,
)
from confal.instances import (
    cur_dual_numbers, cur_matrix, cur_matrix_presented, poly_zero, weyl_algebra,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCE_DIR = ROOT / "instances"
FILES = sorted(INSTANCE_DIR.glob("*.confal"))
# the builder of each bundled file, by the name of the algebra the file defines
INSTANCES = {
    "weyl": weyl_algebra,
    "cur2": cur_matrix,
    "cureps": cur_dual_numbers,
    "polyzero": poly_zero,
    "cur2p": cur_matrix_presented,
}

PRESENTED_SRC = """
algebra toy {
  kind presented;
  generators a, b;
  products {
    a (0) a = a;
    a (1) b = 2 b - 1/3 * d a;
    b (0) b = 0;
  }
}
"""


# -- parsing -------------------------------------------------------------------------------


def test_shipped_files_parse_and_build():
    assert FILES, "instance files missing"
    for path in FILES:
        algebras = load_path(str(path))
        assert algebras, path


def _printed(alg):
    """Generator names, printed generators and printed n-th products, n <= 3."""
    gens = alg.generator_items()
    return ([name for name, _ in gens], [alg.format_elem(g) for _, g in gens],
            [alg.format_elem(alg.nth(u, v, n)) for _, u in gens for _, v in gens
             for n in range(4)])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_builder_matches_the_bundled_file(name):
    bundled = [load_path(str(path)) for path in FILES]
    (shipped,) = [algs[name] for algs in bundled if name in algs]
    assert _printed(INSTANCES[name]()) == _printed(shipped)


@pytest.mark.parametrize("make", [cur_matrix, cur_matrix_presented])
def test_matrix_builders_at_the_edges_of_their_size(make):
    big = make(10)
    names = [name for name, _ in big.generator_items()]
    assert len(names) == len(set(names)) == 100
    assert names[:2] == ["u11", "u12"] and names[-1] == "u1010"
    # u1,11 and u11,1 would share the name u111
    with pytest.raises(ParseError, match="duplicate generator 'u111'"):
        make(11)
    for n in (0, -1):
        with pytest.raises(ValueError, match="matrix size must be positive"):
            make(n)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_pretty_roundtrip_shipped(path):
    specs = parse(path.read_text())
    for spec in specs:
        again = parse(pretty(spec))
        assert len(again) == 1 and again[0] == spec


def test_pretty_roundtrip_presented():
    (spec,) = parse(PRESENTED_SRC)
    assert parse(pretty(spec)) == [spec]
    assert spec.kind == "presented"
    # term coefficients and d-powers captured exactly
    products = {(l, n, r): terms for l, n, r, terms in spec.products}
    from fractions import Fraction

    assert products[("a", 1, "b")] == (
        (Fraction(2), 0, "b"),
        (Fraction(-1, 3), 1, "a"),
    )
    assert products[("b", 0, "b")] == ()


@pytest.mark.parametrize("expr", ["-(x^2)", "(x^2)^3", "-(x^2)^3", "-x^2", "2*-x", "-(-x)",
                                  "x*x^2", "x + 1", "2 - x*x", "(x - 1)*(x + 1)",
                                  "x - (1 - x)"])
def test_pretty_keeps_signs_and_powers(expr):
    # a unary minus binds tighter than ^: -x^2 is (-x)^2, so -(x^2) keeps its parentheses
    source = f"algebra a {{ kind differential; base poly x; deriv d/dx; generators {{ u = {expr}; }} }}"
    (spec,) = parse(source)
    assert parse(pretty(spec)) == [spec]
    assert _printed(build_all(pretty(spec))["a"]) == _printed(build_all(source)["a"])


def test_pretty_roundtrip_matrix_derivation():
    # every product zero, so the nilpotent map b1 -> b2 / 2 is a derivation
    source = ("algebra m { kind differential; base findim 2 table [0, 0, 0, 0, 0, 0, 0, 0]; "
              "deriv matrix [0, 0, 1/2, 0]; generators { u = b1; v = b2; } }")
    (spec,) = parse(source)
    text = pretty(spec)
    assert "  deriv matrix [0, 0, 1/2, 0];\n" in text
    assert parse(text) == [spec]
    assert build_all(text)["m"] == build_all(source)["m"]


def _block(*clauses):
    """An algebra block opening on line 2, one clause a line from line 3 on."""
    return "\nalgebra a {\n" + "".join(f"  {c}\n" for c in clauses) + "}\n"


DIFF = ("kind differential;", "base poly x;", "deriv zero;")
PARSE_ERRORS = {
    "missing kind": (_block("generators g;"), 2, 1, "missing kind clause"),
    "missing generators": (_block("kind presented;"), 2, 1, "missing generators clause"),
    "differential bare": (_block(*DIFF, "generators g;"), 2, 1,
                          "differential generators need '{ name = expr; ... }'"),
    "presented braced": (_block("kind presented;", "generators { g = 1; }"), 2, 1,
                         "presented generators are a bare name list"),
    "no base": (_block("kind differential;", "deriv zero;", "generators { g = 1; }"), 2, 1,
                "a differential algebra needs a base clause"),
    "no deriv": (_block("kind differential;", "base poly x;", "generators { g = 1; }"), 2, 1,
                 "a differential algebra needs a deriv clause"),
    "differential products": (_block(*DIFF, "generators { g = 1; }", "products { }"), 2, 1,
                              "products clauses belong to presented algebras"),
    "presented base": (_block("kind presented;", "base poly x;", "generators g;"), 2, 1,
                       "presented algebras take no base or deriv clause"),
    "presented deriv": (_block("kind presented;", "deriv zero;", "generators g;"), 2, 1,
                        "presented algebras take no base or deriv clause"),
    "matpoly 0": (_block("kind differential;", "base matpoly 0 x;", "deriv zero;",
                         "generators { g = 1; }"), 4, 8, "matrix dimension must be positive"),
    "findim 0": (_block("kind differential;", "base findim 0 table [1];", "deriv zero;",
                        "generators { g = 1; }"), 4, 8, "dimension must be positive"),
    "deriv d/x": (_block("kind differential;", "base poly x;", "deriv d/x;",
                         "generators { g = 1; }"), 5, 11, "found 'x' (expected 'd<var>')"),
    "deriv foo": (_block("kind differential;", "base poly x;", "deriv foo;",
                         "generators { g = 1; }"), 5, 9,
                  "found 'foo' (expected 'zero' or 'd/d<var>' or 'matrix')"),
    # reported at the token after the block
    "empty generators": (_block(*DIFF, "generators { }"), 7, 1, "empty generators block"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_messages_and_positions(case):
    source, line, col, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, column {col}: {message}"


def test_parse_reports_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse("algebra w {\n  kind differential\n}")
    assert err.value.line == 3 and "expected" in str(err.value)


def test_torsion_module_rejected():
    src = """
algebra t {
  kind presented;
  generators a;
  module { d a = 0; }
}
"""
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "torsion" in str(err.value)
    with pytest.raises(ParseError):
        parse("module { d a = 0; }")


def test_reserved_symbol_d():
    with pytest.raises(ParseError):
        parse("algebra w { kind presented; generators d, a; }")
    with pytest.raises(ParseError):
        parse(
            "algebra w { kind differential; base poly d; deriv zero;"
            " generators { e = 1; } }"
        )


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse(PRESENTED_SRC.replace("1/3", "1/0"))


def test_duplicate_names_rejected():
    src = (
        "algebra a { kind differential; base poly x; deriv zero;"
        " generators { e = 1; } }"
    )
    with pytest.raises(ParseError) as info:
        parse(src + "\n\n" + src)
    # reported at the repeated definition's name, on line 3
    assert (info.value.line, info.value.col) == (3, 9)
    assert "duplicate algebra name" in str(info.value)
    with pytest.raises(ParseError):
        parse(
            "algebra a { kind differential; base poly x; deriv zero;"
            " generators { e = 1; e = x; } }"
        )


def test_duplicate_product_definition_rejected():
    src = (
        "algebra p {\n"
        "  kind presented;\n"
        "  generators g;\n"
        "  products {\n"
        "    g (0) g = g;\n"
        "    g (0) g = 2 g;\n"
        "  }\n"
        "}\n"
    )
    with pytest.raises(ParseError) as info:
        parse(src)
    assert (info.value.line, info.value.col) == (6, 5)
    assert "duplicate product" in str(info.value)
    # the same pair at another order is a different product
    (spec,) = parse(src.replace("g (0) g = 2 g", "g (1) g = 2 g"))
    assert len(spec.products) == 2


def test_product_order_is_capped(tmp_path, capsys):
    src = "algebra p {\n  kind presented;\n  generators a;\n  products {\n    a (N) a = a;\n  }\n}\n"
    (alg,) = build_all(src.replace("N", str(MAX_EXPONENT))).values()
    ((_, a),) = alg.generator_items()
    assert alg.format_elem(alg.nth(a, a, MAX_EXPONENT)) == "a"
    over = src.replace("N", str(MAX_EXPONENT + 1))
    with pytest.raises(ParseError) as info:
        parse(over)
    assert (info.value.line, info.value.col) == (5, 8)
    assert f"product order {MAX_EXPONENT + 1} exceeds the exponent cap" in str(info.value)
    path = tmp_path / "order.confal"
    path.write_text(over)
    assert main(["locality", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: line 5, column 8: product order")


def test_semantic_build_errors():
    # findim table length must be d^3
    with pytest.raises(ParseError):
        build_all(
            "algebra f { kind differential; base findim 2 table [1, 0]; "
            "deriv zero; generators { u = b1; } }"
        )
    # matrix unit out of range
    with pytest.raises(ValueError, match=re.escape("this base has no matrix unit E(3,1)")):
        build_all(
            "algebra m { kind differential; base matpoly 2 x; deriv zero; "
            "generators { u = E(3,1); } }"
        )
    # derivation variable must match the base variable
    with pytest.raises(ValueError):
        build_all(
            "algebra v { kind differential; base poly x; deriv d/dy; "
            "generators { e = 1; } }"
        )
    # unknown name in a generator expression
    with pytest.raises(ValueError):
        build_all(
            "algebra u { kind differential; base poly x; deriv zero; "
            "generators { e = y; } }"
        )
    # a derivation that does not fit its base
    for head, gen, message in MISMATCHED_DERIVATIONS.values():
        with pytest.raises(ValueError, match=re.escape(message)):
            build_all(f"algebra w {{ kind differential; {head} generators {{ {gen} }} }}")


MISMATCHED_DERIVATIONS = {
    "matrix on poly": ("base poly x; deriv matrix [0];", "e = 1;",
                       "a matrix derivation needs a findim base"),
    "matrix length": ("base findim 1 table [1]; deriv matrix [0, 0];", "e = b1;",
                      "derivation matrix needs 1 rationals, got 2"),
    "d/dx on findim": ("base findim 1 table [1]; deriv d/dx;", "e = b1;",
                       "d/dx does not act on a findim base"),
    "ad on poly": ("base poly x; deriv d/dx + ad(x);", "e = 1;",
                   "ad(...) corrections need a matpoly base"),
}


def test_mismatched_derivation_in_a_file_exits_2(tmp_path, capsys):
    head, gen, message = MISMATCHED_DERIVATIONS["ad on poly"]
    path = tmp_path / "mismatch.confal"
    path.write_text(f"algebra w {{ kind differential; {head} generators {{ {gen} }} }}\n")
    assert main(["locality", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_presented_build_products():
    from fractions import Fraction

    toy = build_all(PRESENTED_SRC)["toy"]
    a, b = toy.generator("a"), toy.generator("b")
    got = toy.nth(a, b, 1)
    # a (1) b = 2*b - 1/3 d a
    assert toy.coordinates(got) == {(1, 0): Fraction(2), (0, 1): Fraction(-1, 3)}


def test_parse_element_forms():
    from fractions import Fraction

    from confal import cur_matrix

    alg = cur_matrix(2)
    e = parse_element(alg, "u11 + u22 - d(u12)")
    assert alg.coordinates(e) == {
        ((0, 0, 0), 0): 1,
        ((1, 1, 0), 0): 1,
        ((0, 1, 0), 1): -1,
    }
    assert parse_element(alg, "d^2 u12") == alg.apply_dop_power(alg.generator("u12"), 2)
    assert parse_element(alg, "1/2 * u21 + (u11 - u11)") == alg.generator("u21") * Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_element(alg, "nosuch + u11")
    with pytest.raises(ParseError):
        parse_element(alg, "u11 u22")


def test_product_rhs_is_the_element_grammar():
    # d(...) and parentheses are read as the same flat triples
    (plain,) = parse(PRESENTED_SRC)
    (nested,) = parse(PRESENTED_SRC.replace("2 b - 1/3 * d a", "2 (b - 1/6 d(a))"))
    assert nested == plain
    (zero,) = parse(PRESENTED_SRC.replace("2 b - 1/3 * d a", "d^2 (0)"))
    assert {(l, n, r): terms for l, n, r, terms in zero.products}[("a", 1, "b")] == ()
    toy = build_all(PRESENTED_SRC)["toy"]
    a, b = toy.generator("a"), toy.generator("b")
    assert parse_element(toy, "2 (b - 1/6 d(a))") == b * 2 - a.derive() * Fraction(1, 3)
    assert parse_element(toy, "0").is_zero()
    assert parse_element(toy, "-(0) + d(0)").is_zero()
    with pytest.raises(ParseError) as err:
        parse_element(toy, "a + d^2 nosuch")
    assert err.value.col == 9 and "unknown generator 'nosuch'" in str(err.value)


def test_exponent_cap():
    weyl = load_path(WEYL_FILE)["weyl"]
    e = weyl.generator("e")
    at_cap = parse_element(weyl, f"d^{MAX_EXPONENT}(e)")
    assert at_cap == weyl.apply_dop_power(e, MAX_EXPONENT)
    for text, col in [(f"d^{MAX_EXPONENT + 1}(e)", 3), ("d^200 (e + d^57 e)", 3),
                      ("d^100(d^100(d^57 e))", 3)]:
        with pytest.raises(ParseError) as err:
            parse_element(weyl, text)
        assert err.value.col == col and "exponent cap" in str(err.value)
    cureps = load_path(CUREPS_FILE)["cureps"].base
    assert eval_base_expr(parse_base_expr(f"b2^{MAX_EXPONENT}"), cureps).is_zero()
    assert parse_base_expr("(2^16)^16") == ("pow", ("pow", ("num", 2), 16), 16)
    for text, col in [(f"b2^{MAX_EXPONENT + 1}", 4), ("(2^16)^17", 8), ("(b1^2 + 1)^200", 12),
                      ("-(-(b1^100))^3", 14)]:
        with pytest.raises(ParseError) as err:
            parse_base_expr(text)
        assert err.value.col == col and "exponent cap" in str(err.value)
    with pytest.raises(ParseError):
        parse("algebra w { kind differential; base poly x; deriv zero;"
              f" generators {{ e = x^{MAX_EXPONENT + 1}; }} }}")


def test_matpoly_size_cap():
    src = "algebra m { kind differential; base matpoly N x; deriv zero; generators { u = x; } }"
    (spec,) = parse(src.replace("N", str(MAX_MATPOLY_SIZE)))
    assert spec.base == ("matpoly", MAX_MATPOLY_SIZE, "x")
    with pytest.raises(ParseError) as err:
        parse(src.replace("N", str(MAX_MATPOLY_SIZE + 1)))
    assert err.value.col == src.index("N") + 1
    assert f"matrix dimension {MAX_MATPOLY_SIZE + 1} exceeds the cap" in str(err.value)


def test_build_reads_the_atom_table_once_per_base(monkeypatch):
    # every generator expression, and an ad(...) correction, is evaluated
    # against one table of the base's atoms
    calls = []
    ring_generators = MatPolyRing.ring_generators
    monkeypatch.setattr(MatPolyRing, "ring_generators",
                        lambda ring: calls.append(ring) or ring_generators(ring))

    def reads(count: int) -> int:
        gens = " ".join(f"u{k} = {k}*x*E(1,1) + E(2,1);" for k in range(count))
        calls.clear()
        build_all("algebra m { kind differential; base matpoly 2 x;"
                  f" deriv d/dx + ad(E(1,2)); generators {{ {gens} }} }}")
        return len(calls)

    assert reads(1) == reads(20)


def test_deep_nesting_is_a_parse_error():
    weyl = load_path(WEYL_FILE)["weyl"]
    deep = "(" * 2000 + "e" + ")" * 2000
    for call in (lambda: parse_element(weyl, deep), lambda: parse_base_expr(deep),
                 lambda: parse("algebra w { kind differential; base poly x; deriv zero;"
                               f" generators {{ e = {deep}; }} }}")):
        with pytest.raises(ParseError) as err:
            call()
        assert "nested too deeply" in str(err.value)
    # reported inside the parentheses, where the stack ran out; how deep that is
    # depends on the stack the call starts from
    with pytest.raises(ParseError) as err:
        parse_base_expr(deep)
    assert err.value.line == 1 and 1 < err.value.col <= 2000
    assert str(err.value) == f"line 1, column {err.value.col}: nested too deeply"


def test_base_powers_by_squaring(monkeypatch):
    products = []
    mul = MatPoly.__mul__

    def counting_mul(a, b):
        if isinstance(b, MatPoly):  # value x value; scalar and Q[x] factors are not counted
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(MatPoly, "__mul__", counting_mul)
    ring = MatPolyRing(2, "x")
    r = eval_base_expr(parse_base_expr("E(1,2) + x*E(2,1) + 1"), ring)
    expected = ring.one()
    for _ in range(13):
        expected = expected * r
    products.clear()
    assert eval_base_expr(parse_base_expr("(E(1,2) + x*E(2,1) + 1)^13"), ring) == expected
    assert len(products) == 6  # x*E(2,1), three squarings and two more factors
    assert eval_base_expr(parse_base_expr("E(1,2)^0"), ring) == ring.one()
    products.clear()
    assert eval_base_expr(parse_base_expr("E(1,2)^255"), ring).is_zero()
    assert len(products) == 1  # E(1,2)^2 = 0 ends the squaring


def test_base_powers_ask_for_the_unit_only_at_exponent_zero():
    # b1 * b1 = b2 and every other product zero: no unit
    base = FinDim([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    assert eval_base_expr(parse_base_expr("b1^2"), base) == base.basis_element(1)
    assert eval_base_expr(parse_base_expr("b1^9"), base).is_zero()
    with pytest.raises(ValueError, match="no unit"):
        eval_base_expr(parse_base_expr("b1^0"), base)


# -- command line -------------------------------------------------------------------------


WEYL_FILE = str(INSTANCE_DIR / "weyl.confal")
CUR2_FILE = str(INSTANCE_DIR / "cur2.confal")
CUREPS_FILE = str(INSTANCE_DIR / "cureps.confal")


def test_cli_check_exit_codes(tmp_path):
    assert main(["check", WEYL_FILE, "--max-order", "3", "--window", "4"]) == 0
    bad = tmp_path / "broken.confal"
    bad.write_text("algebra x { kind differential;")
    assert main(["check", str(bad)]) == 2
    torsion = tmp_path / "torsion.confal"
    torsion.write_text(
        "algebra t { kind presented; generators a; module { d a = 0; } }"
    )
    assert main(["check", str(torsion)]) == 2


def test_cli_check_text_states_mutual_locality(capsys):
    # each pair's locality scan bound is proved, so the lemma is stated, not swept
    stated = "  mutual locality: holds on every triple (each pair's scan bound is proved)"
    for order, identities in ((4, 400), (1, 64)):
        assert main(["check", WEYL_FILE, "--max-order", str(order), "--window", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  associativity (m,n <= {order}): ok ({identities} identities)" in lines
        assert stated in lines
        assert not any("sweep" in line for line in lines)


def test_cli_check_runs_no_mutual_locality_sweep(monkeypatch, capsys):
    argvs = [["check", str(path), "--max-order", "2", "--window", "2", "--format", "json"]
             for path in FILES]
    outputs = []
    for argv in argvs:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)

    def sweep(*args, **kwargs):
        raise AssertionError("check ran a mutual-locality sweep")

    monkeypatch.setattr(diff_conformal, "dong_check", sweep)
    for argv, expected in zip(argvs, outputs):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected
        result = json.loads(out)["result"]
        assert result["mutual_locality_ok"] is True and result["mutual_locality_failures"] == []


def test_cli_identity(capsys):
    rc = main(["identity", CUR2_FILE, "--element", "u11+u22-d(u12)"])
    out = capsys.readouterr().out
    assert rc == 0 and "verdict: pass" in out
    rc = main(["identity", CUR2_FILE, "--element", "u11"])
    out = capsys.readouterr().out
    assert rc == 1 and "verdict: fail" in out


def test_cli_growth_csv(capsys):
    rc = main(["growth", WEYL_FILE, "--rmax", "8", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("r,gamma")
    gammas = [int(line.split(",")[1]) for line in rows[1:]]
    assert gammas == [2, 3, 4, 5, 6, 7, 8, 9]


def test_cli_csv_rejected_for_scalar_commands(capsys):
    rc = main(["identity", CUR2_FILE, "--element", "u11", "--format", "csv"])
    assert rc == 2
    assert "tabular" in capsys.readouterr().err


def test_cli_csv_rejected_before_any_computation(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("the check ran")

    monkeypatch.setattr("confal.axioms.conformal_axioms_report", fail)
    assert main(["check", WEYL_FILE, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tabular" in captured.err


ERROR_CLASSES = sorted(
    (cls for cls in (getattr(confal, name) for name in confal.__all__)
     if isinstance(cls, type) and issubclass(cls, confal.ConfalError)),
    key=lambda cls: cls.__name__,
)
EXPECTED_EXIT = {
    "ParseError": (2, "error: "),
    "ResourceBound": (3, "resource bound: "),
    "BoundExceeded": (3, "resource bound: "),
    "ClosureBoundExceeded": (3, "resource bound: "),
    "NotUnital": (1, "check failed: "),
    "NotNilpotent": (1, "check failed: "),
    "MismatchWitness": (1, "check failed: "),
    "ConfalError": (1, "check failed: "),
}


def _raised(cls):
    if cls is confal.MismatchWitness:
        return cls("u", "v", 0, "injected")
    if cls is confal.ParseError:
        return cls("injected", 1, 1)
    return cls("injected")


def test_every_error_class_has_an_expected_exit():
    assert sorted(EXPECTED_EXIT) == [cls.__name__ for cls in ERROR_CLASSES]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_cli_reports_each_error_type_with_its_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise _raised(cls)

    monkeypatch.setattr(cli, "_cmd_locality", fail)
    code, prefix = EXPECTED_EXIT[cls.__name__]
    assert main(["locality", WEYL_FILE]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{_raised(cls)}\n"


def test_every_cap_error_is_a_resource_bound():
    assert issubclass(confal.BoundExceeded, confal.ResourceBound)
    assert issubclass(confal.ClosureBoundExceeded, confal.ResourceBound)


def test_cli_locality_csv(capsys):
    assert main(["locality", WEYL_FILE, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "left,right,degree\ne,e,0\ne,L,1\nL,e,0\nL,L,1\n"


def test_cli_json_deterministic(capsys):
    argv = ["check", WEYL_FILE, "--max-order", "2", "--window", "3",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "confal/1"
    assert doc["ok"] is True
    assert set(doc) == {"schema", "command", "input", "algebra", "ok", "result"}
    assert len(doc["input"]["sha256"]) == 64


def test_cli_algebra_selector(capsys, tmp_path):
    two = tmp_path / "two.confal"
    two.write_text(
        (INSTANCE_DIR / "weyl.confal").read_text()
        + (INSTANCE_DIR / "polyzero.confal").read_text()
    )
    assert main(["locality", str(two), "--algebra", "polyzero"]) == 0
    out = capsys.readouterr().out
    assert "polyzero" in out
    assert main(["locality", str(two), "--algebra", "nope"]) == 2


def test_cli_resource_bound(monkeypatch):
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", "5")
    assert main(["growth", WEYL_FILE, "--rmax", "8"]) == 3


def test_cli_coefficient_walk_past_the_cap_exits_3(monkeypatch, capsys):
    # gamma fits under 50 monomials at --rmax 3; the coefficient walk does not
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", "50")
    assert main(["growth", WEYL_FILE, "--rmax", "3"]) == 0
    assert main(["coeff-growth", WEYL_FILE, "--rmax", "3"]) == 3
    assert "exceeded the cap of 50" in capsys.readouterr().err


def test_cli_delta_orbit_past_the_cap_exits_3(tmp_path, capsys):
    # d/dx does not kill x^70 within 64 iterations; the first n-th product says so
    path = tmp_path / "long_orbit.confal"
    path.write_text(
        "algebra long { kind differential; base poly x; deriv d/dx; generators { g = x^70; } }"
    )
    assert main(["oracle", str(path)]) == 3
    assert "did not vanish on x^70 within 64 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cli_nonpositive_monomial_cap_is_bad_input(monkeypatch, capsys, cap):
    monkeypatch.setenv("CONFAL_MAX_MONOMIALS", cap)
    assert main(["growth", WEYL_FILE, "--rmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "monomial cap" in captured.err


@pytest.mark.parametrize("argv", [
    ["growth", WEYL_FILE, "--rmax", "0"],
    ["growth", WEYL_FILE, "--rmax", "-3"],
    ["coeff-growth", WEYL_FILE, "--rmax", "0"],
    ["check", WEYL_FILE, "--max-order", "-1"],
    ["check", WEYL_FILE, "--window", "-1"],
    ["oracle", WEYL_FILE, "--max-order", "-1"],
    ["oracle", WEYL_FILE, "--window", "-1"],
    ["simplicity", CUREPS_FILE, "--trials", "-1"],
    ["simplicity", CUREPS_FILE, "--degree-bound", "-1"],
    ["recognize", CUR2_FILE, "--word-bound", "0"],
    ["recognize", CUR2_FILE, "--n-max", "-1"],
], ids=lambda a: " ".join(a[:1] + a[2:]))
def test_cli_bounds_validated(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_cli_transport_and_recognize(capsys):
    cureps = str(INSTANCE_DIR / "cureps.confal")
    assert main(["transport", cureps, "--r", "b2"]) == 0
    out = capsys.readouterr().out
    assert "nilpotency index: 2" in out
    assert main(["transport", WEYL_FILE, "--r", "x"]) == 2
    capsys.readouterr()
    assert main(["recognize", CUR2_FILE]) == 0
    out = capsys.readouterr().out
    assert "recovered basis (4)" in out and "delta is zero: True" in out


@pytest.mark.parametrize("r", ["b2 )", "b2 b2"])
def test_cli_transport_rejects_trailing_input(r, capsys):
    assert main(["transport", CUREPS_FILE, "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1, column 4: trailing input")


@pytest.mark.parametrize("argv", [
    ["identity", WEYL_FILE, "--element", "d^99999999(e)"],
    ["transport", CUREPS_FILE, "--r", "b2^99999999"],
], ids=["element", "r"])
def test_cli_exponent_cap_exits_2(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "confal.cli", *argv], capture_output=True,
                          text=True, timeout=10, env=env, cwd=ROOT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exponent cap" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["check", WEYL_FILE],
    ["oracle", WEYL_FILE],
    ["locality", WEYL_FILE],
    ["identity", WEYL_FILE, "--element", "e"],
    ["growth", WEYL_FILE],
    ["coeff-growth", WEYL_FILE],
    ["recognize", WEYL_FILE],
    ["transport", CUREPS_FILE, "--r", "b2"],
], ids=lambda a: a[0])
def test_cli_seed_is_a_simplicity_flag_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


BAD_DERIVATIONS = {
    # the README's dual-numbers example: d(b2) = b2 never vanishes
    "matrix": ("base findim 2 table [1, 0, 0, 1, 0, 1, 0, 0];\n  deriv matrix [0, 0, 0, 1];",
               "u = b2;", "derivation did not vanish on b2 within 64 iterations"),
    "ad": ("base matpoly 2 x;\n  deriv d/dx + ad(E(1,1));", "u = E(1,2);",
           "r is not nilpotent: r^2 != 0"),
}


@pytest.mark.parametrize("kind", sorted(BAD_DERIVATIONS))
def test_bad_derivation_in_a_file_is_an_input_error(kind, tmp_path, capsys):
    head, gen, message = BAD_DERIVATIONS[kind]
    source = (f"algebra bad {{\n  kind differential;\n  {head}\n"
              f"  generators {{\n    {gen}\n  }}\n}}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        build_all(source)
    path = tmp_path / "bad.confal"
    path.write_text(source)
    assert main(["locality", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_transport_of_a_non_nilpotent_element_is_a_failed_check(capsys):
    # the element, not the file, is at fault here: exit 1, not 2
    assert main(["transport", CUREPS_FILE, "--r", "b1"]) == 1
    assert capsys.readouterr().err.startswith("check failed: ")


def test_cli_simplicity(capsys):
    cureps = str(INSTANCE_DIR / "cureps.confal")
    assert main(["simplicity", cureps, "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("simplicity probe of cureps (seed 0, degree bound 5, ")
    assert "proper delta-stable ideal found" in out
    assert main(["simplicity", cureps, "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("simplicity probe of cureps (seed 1, degree bound 5, ")
    assert "proper delta-stable ideal found" in out
    presented = str(INSTANCE_DIR / "cur2_presented.confal")
    assert main(["simplicity", presented, "--trials", "5"]) == 2
    assert "differential instance" in capsys.readouterr().err
