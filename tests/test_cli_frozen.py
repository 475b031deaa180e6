"""Byte-identical CLI output: all 9 commands on all 5 bundled instances.

Each invocation of the benchmark's CLI workload runs in process from the
repository root, and its exit code and the sha256 of its stdout must equal
the frozen values in benchmarks/expected.json (read here, never written).
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from confal.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def _cli_invocations():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.cli_invocations()


INVOCATIONS = _cli_invocations()
FROZEN = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["cli"]


def test_every_invocation_is_frozen():
    assert len(INVOCATIONS) == 45
    assert sorted(label for label, _ in INVOCATIONS) == sorted(FROZEN)


@pytest.mark.parametrize("label,argv", INVOCATIONS, ids=[label for label, _ in INVOCATIONS])
def test_cli_output_matches_frozen(label, argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("CONFAL_MAX_MONOMIALS", raising=False)
    rc = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    ref = FROZEN[label]
    if ref["failure"]:
        # frozen while it failed with a traceback; fixed, it is a documented
        # input error: exit 2 and no report on stdout
        assert (rc, out) == (2, b"")
    else:
        assert (rc, hashlib.sha256(out).hexdigest()) == (ref["exit"], ref["stdout_sha256"])
