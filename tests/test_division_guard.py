"""No true division in the library outside the one exact helper.

`int / int` is a float in Python, and no float may reach an algebraic
value.  Every exact division goes through `exact_arith.ratio`; the only
other `/` allowed is the float log-log slope `growth.loglog_slope`, a
diagnostic that never feeds back into the algebra.
"""

import ast
from pathlib import Path

import confal

ALLOWED = {("exact_arith", "ratio"), ("growth", "loglog_slope")}


def _divisions(tree: ast.Module):
    """(enclosing top-level function or None, line) for each `/` and `/=` in a module."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                yield name, node.lineno


def test_no_bare_division_in_library():
    package = Path(confal.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for func, line in _divisions(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, func) not in ALLOWED
    ]
    assert not found, f"bare `/` outside exact_arith.ratio: {found}"


def test_guard_sees_division():
    tree = ast.parse("def f(a, b):\n    return a / b\n\nx = 1\nx /= 2\n")
    assert list(_divisions(tree)) == [("f", 2), (None, 5)]
