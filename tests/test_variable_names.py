"""A base variable other than x, end to end: it reaches output only through its ring.

weyl, polyzero and cur2 are rewritten with their variable x renamed zz
(`deriv d/dzz` included).  Every model and algorithm command, run with the
flags of the benchmark's CLI workload (benchmarks/workloads.py, read here,
never written), must exit as on the original file and print the same JSON
with zz in place of x; only the `input` key differs.
"""

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from confal.cli import main
from confal.dsl import load_path

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "benchmarks" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


WORKLOADS = _load_workloads()
COMMANDS = ("check", "oracle", "locality", "identity", "growth", "coeff-growth",
            "recognize", "simplicity")
INSTANCES = ("weyl", "polyzero", "cur2")


@pytest.fixture(scope="module")
def renamed(tmp_path_factory):
    out = tmp_path_factory.mktemp("renamed")
    for inst in INSTANCES:
        text = (ROOT / "instances" / f"{inst}.confal").read_text(encoding="utf-8")
        text = re.sub(r"\bx\b", "zz", text).replace("d/dx", "d/dzz")
        (out / f"{inst}.confal").write_text(text, encoding="utf-8")
    return out


def _run(path, command: str, inst: str, capsys):
    argv = [command, str(path), "--format", "json", *WORKLOADS.CLI_FLAGS[command]]
    if command == "identity":
        argv += ["--element", WORKLOADS.IDENTITY_ELEMENT[inst]]
    rc = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out.replace("zz", "x")) if out else {}
    report.pop("input", None)
    return rc, report


@pytest.mark.parametrize("inst", INSTANCES)
@pytest.mark.parametrize("command", COMMANDS)
def test_renamed_variable_changes_only_its_name(command, inst, renamed, capsys, monkeypatch):
    monkeypatch.delenv("CONFAL_MAX_MONOMIALS", raising=False)
    assert "zz" in (renamed / f"{inst}.confal").read_text(encoding="utf-8")
    expected = _run(ROOT / "instances" / f"{inst}.confal", command, inst, capsys)
    assert _run(renamed / f"{inst}.confal", command, inst, capsys) == expected


def test_skew_laurent_repr_names_the_ring_variable(renamed):
    alg = load_path(str(renamed / "weyl.confal"))["weyl"]
    assert repr(alg.phi(alg.generator("L"), 2)) == "(zz)*t^2"
