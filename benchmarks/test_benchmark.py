"""Self-tests of the benchmark: seeded inputs, transparent tracing, bad checkouts.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.LIBRARY_WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    assert workloads.job_list_digest(workload, 3) == workloads.job_list_digest(workload, 3)
    inputs = workloads.LIBRARY_INPUTS[workload]
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_cli_job_list_is_every_command_on_every_instance():
    labels = [label for label, _ in workloads.cli_invocations()]
    assert len(labels) == len(set(labels)) == 45
    assert workloads.job_list_digest("cli", 1) == workloads.job_list_digest("cli", 2)


@pytest.mark.parametrize("workload", workloads.LIBRARY_WORKLOADS)
def test_tracing_is_transparent_and_repeats(workload):
    from confal.diff_conformal import DifferentialAlgebra

    original = DifferentialAlgebra.nth
    plain = run.library_pass(workload, 5)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer().install()
        try:
            traced = run.library_pass(workload, 5)
        finally:
            tracer.uninstall()
        assert [op.digest for op in traced] == [op.digest for op in plain]
        assert not [p for op in traced for p in op.problems]
        raw = tracer.raw()
        counts.append((raw["calls"], raw["events"], raw["distinct"], raw["items_checked"]))
    assert counts[0] == counts[1]
    assert DifferentialAlgebra.nth is original
    metrics = tracing.layer_metrics(tracer.raw(), {"cli.import_s": 0.0, "trace.overhead_s": 0.0})
    assert [name for name in metrics] == [name for name, _, _ in tracing.PER_LAYER]


@pytest.mark.parametrize("label", ["check weyl", "simplicity cur2_presented"])
def test_traced_cli_child_prints_what_the_cli_prints(label):
    argv = dict(workloads.cli_invocations())[label]
    plain = run.run_child(["-m", "confal.cli", *argv])
    traced = run.run_child([str(HERE / "child.py"), "cli", *argv])
    assert traced.rc == plain.rc
    assert traced.out == plain.out
    assert run.TRACE_MARKER.encode() in traced.err


def test_frozen_digests_hold_at_the_default_seed():
    frozen = run.load_expected()["library"]["spans"]
    ops = run.library_pass("spans", workloads.DEFAULT_SEED)
    run.check_frozen(ops, frozen)
    assert not [p for op in ops for p in op.problems]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
