#!/usr/bin/env python3
"""Run one workload of the confal benchmark and print its metrics.

    python3 benchmarks/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; confal is imported from its `src`.  The
workloads and why each was chosen are described in benchmarks/NOTES.md.

A run repeats the workload's fixed job list ("a pass") until --seconds have
passed, each pass on algebras built afresh, and checks every result it
timed.  With --trace 0 it reports the end-to-end metrics (per-operation
medians over the passes, and the median of several timed set-ups); with
--trace 1 it runs untraced and
then traced passes and reports the per-layer metrics and the tracing
overhead.  The second-to-last line of stdout is the full results record; the
last line is the summary {"correct", "attempted", "failed", "metrics"}.

    python3 benchmarks/run.py --freeze

recomputes the frozen digests in benchmarks/expected.json from the checkout's
confal (the library jobs at the default seed, and every CLI invocation).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPAN_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from child import TRACE_MARKER  # noqa: E402

SETUP_CHILDREN = 15  # timed set-ups per run; one more, untimed, warms the file cache
CHILD_TIMEOUT_S = 120
DOCUMENTED_EXITS = {0, 1, 2, 3}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


@dataclass
class Op:
    """One checked operation: a library job or a CLI invocation."""

    name: str
    seconds: float  # speed-normalised wall time (see speed.py)
    raw_seconds: float
    digest: str
    items: int = 0
    problems: list = field(default_factory=list)
    known: bool = False  # fails exactly as frozen at the seed commit


@dataclass
class Child:
    rc: int
    out: bytes
    err: bytes
    seconds: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONFAL_MAX_MONOMIALS", None)  # the default cap applies
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args) -> Child:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += b"\nkilled after the child timeout\n"
    return Child(proc.returncode, out, err, time.perf_counter() - t0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up ---------------------------------------------------------------------------


def setup_times(workload: str, seed: int) -> list:
    """Normalised set-up times of SETUP_CHILDREN fresh interpreters (after one warm-up).

    The child times its own set-up; the reference loop runs here, between
    children, so that the child's imports stay cold.
    """
    times = []
    before = speed.reference()
    for k in range(SETUP_CHILDREN + 1):
        child = run_child([str(HERE / "child.py"), "setup", workload, str(seed)])
        after = speed.reference()
        if child.rc != 0:
            raise RuntimeError(f"set-up child failed:\n{child.err.decode(errors='replace')}")
        if k:
            measured = json.loads(child.out.decode().splitlines()[-1])["setup_s"]
            times.append(speed.normalise(measured, before, after))
        before = after
    return times


# -- library workloads -----------------------------------------------------------------


def library_pass(workload: str, seed: int) -> tuple:
    """Build the algebras afresh, time each job once, then review the results."""
    jobs = workloads.LIBRARY_JOBS[workload](seed)
    gc.collect()
    timed = []
    before = speed.reference()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            result, error = job.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        after = speed.reference()
        timed.append((job, result, error, speed.normalise(seconds, before, after), seconds))
        before = after
    ops = []
    for job, result, error, seconds, raw in timed:
        if error is not None:
            ops.append(Op(job.name, seconds, raw, "", 0, [error]))
            continue
        view, items, problems = job.review(result)
        digest = sha256(json.dumps(view, sort_keys=True).encode())
        ops.append(Op(job.name, seconds, raw, digest, items, list(problems)))
    return ops


def check_frozen(ops, frozen: dict) -> None:
    for op in ops:
        if op.digest and op.digest != frozen.get(op.name):
            op.problems.append(f"{op.name}: result digest differs from the frozen one")


def check_repeat(ops, first) -> None:
    for op, ref in zip(ops, first):
        if op.digest and ref.digest and op.digest != ref.digest:
            op.problems.append(f"{op.name}: result differs from the first pass")


# -- cli workload ----------------------------------------------------------------------


def cli_op(label: str, argv, child: Child, frozen: dict, seconds: float = 0.0) -> Op:
    problems = []
    if b"Traceback (most recent call last)" in child.err:
        problems.append(f"{label}: traceback, exit {child.rc}")
    elif child.rc not in DOCUMENTED_EXITS:
        problems.append(f"{label}: undocumented exit code {child.rc}")
    elif child.rc in (0, 1):
        try:
            env = json.loads(child.out)
        except ValueError:
            env = {}
        if env.get("schema") != "confal/1" or env.get("command") != argv[0]:
            problems.append(f"{label}: stdout is not the command's JSON envelope")
        elif (child.rc == 0) != (env.get("ok") in (True, None)):
            problems.append(f"{label}: exit {child.rc} disagrees with ok={env.get('ok')}")
    elif child.out:
        problems.append(f"{label}: exit {child.rc} with a report on stdout")
    digest = sha256(child.out)
    ref = frozen.get(label, {})
    same = child.rc == ref.get("exit") and digest == ref.get("stdout_sha256")
    # a frozen failure that is now fixed is not a regression
    if not same and not (ref.get("failure") and not problems):
        problems.append(f"{label}: exit code or JSON output differs from the frozen one")
    known = bool(problems) and same and ref.get("failure", False)
    return Op(label, seconds, child.seconds, digest, 0, problems, known)


def cli_pass(frozen: dict, traced: bool = False) -> tuple:
    ops, raws, import_s, spans = [], [], 0.0, []
    before = speed.reference()
    for label, argv in workloads.cli_invocations():
        if traced:
            child = run_child([str(HERE / "child.py"), "cli", *argv])
            head, marker, tail = child.err.rpartition(TRACE_MARKER.encode())
            if marker:
                # the totals line precedes any traceback the command ends in
                payload, _, rest = tail.partition(b"\n")
                child.err = head + rest
                data = json.loads(payload)
                raws.append(data["raw"])
                import_s += data["import_s"]
                spans.append((label, data["spans"]))
        else:
            child = run_child(["-m", "confal.cli", *argv])
        after = speed.reference()
        seconds = speed.normalise(child.seconds, before, after)
        before = after
        ops.append(cli_op(label, argv, child, frozen, seconds))
    return ops, raws, import_s, spans


# -- runs ------------------------------------------------------------------------------


def git_commit():
    """The checkout's commit, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pass_time(passes) -> float:
    """Time of one pass: the sum over its operations of each one's median.

    Taking the median per operation before summing keeps a slow moment in
    one pass from moving the whole pass; across ten seeded runs of `spans`
    it gave a spread of 0.037 where the median of the pass sums gave 0.054.
    """
    per_op: dict = {}
    for ops in passes:
        for op in ops:
            per_op.setdefault(op.name, []).append(op.seconds)
    return sum(statistics.median(v) for v in per_op.values())


def write_spans(workload: str, seed: int, spans) -> str:
    """Write the traced pass's spans as JSON lines; returns the path."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for proc, proc_spans in spans:
            for i, (name, parent, start, dur) in enumerate(proc_spans):
                fh.write(json.dumps({"proc": proc, "id": i, "parent": parent, "name": name,
                                     "start": start, "dur": dur}) + "\n")
    return str(path.relative_to(ROOT))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (record, metrics, ops, run_problems).

    run_problems are the run-level checks that failed.
    """
    expected = load_expected()
    cli = workload == "cli"
    frozen = expected["cli"] if cli else expected["library"][workload]
    if not cli:
        sys.path.insert(0, str(SRC))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    run_problems: list = []
    all_ops: list = []
    first: list = []

    def one_pass(traced: bool) -> tuple:
        """Returns (ops, trace totals, import_s, spans)."""
        if cli:
            ops, raws, import_s, spans = cli_pass(frozen, traced)
            raw = tracing.merge(raws) if traced else None
        else:
            tracer = tracing.Tracer().install() if traced else None
            try:
                ops = library_pass(workload, seed)
            finally:
                if tracer:
                    tracer.uninstall()
            raw = tracer.raw() if tracer else None
            import_s, spans = 0.0, [("main", tracer.spans)] if tracer else []
            if not first:
                first.extend(ops)
            check_repeat(ops, first)  # also: traced results equal untraced ones
            if seed == workloads.DEFAULT_SEED:
                check_frozen(ops, frozen)
        all_ops.extend(ops)
        return ops, raw, import_s, spans

    if not trace:
        record["setup_samples_s"] = setup_times(workload, seed)
    passes = []
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    while not passes or time.perf_counter() < deadline:
        passes.append(one_pass(False)[0])
    peak_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss / 1024
    if not cli and seed != workloads.DEFAULT_SEED:
        ref_ops = library_pass(workload, workloads.DEFAULT_SEED)
        check_frozen(ref_ops, frozen)
        all_ops.extend(ref_ops)

    record.update({
        "job_list_digest": workloads.job_list_digest(workload, seed),
        "passes": len(passes),
        "wall_samples_s": [sum(op.seconds for op in ops) for ops in passes],
        "raw_wall_samples_s": [sum(op.raw_seconds for op in ops) for ops in passes],
        "ops_per_pass": len(workloads.cli_invocations()) if cli else len(first),
    })
    if not cli:
        record["items_per_pass"] = sum(op.items for op in first)
        record["jobs"] = {op.name: {"seconds": op.seconds, "items": op.items, "digest": op.digest}
                          for op in first}

    if not trace:
        metrics = {
            "wall_s": pass_time(passes),
            "setup_s": statistics.median(record["setup_samples_s"]),
            "peak_rss_mb": peak_mb,
        }
        return record, {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}, all_ops, run_problems

    # two traced passes: the first gives the metrics, the second must repeat its counts
    traced = [one_pass(True) for _ in range(2)]
    raws = [t[1] for t in traced]
    counts = [{k: v for k, v in r.items() if k not in ("self_s", "inclusive_s", "spans")}
              for r in raws]
    if counts[0] != counts[1]:
        run_problems.append("per-layer counts differ between the two traced passes")
    overhead = pass_time([t[0] for t in traced]) - pass_time(passes)
    record.update({
        "traced_wall_samples_s": [sum(op.seconds for op in t[0]) for t in traced],
        "spans": raws[0]["spans"],
        "spans_dropped": raws[0]["spans_dropped"],
        "spans_file": write_spans(workload, seed, traced[0][3]),
    })
    metrics = tracing.layer_metrics(raws[0], {"cli.import_s": traced[0][2],
                                              "trace.overhead_s": overhead})
    return record, metrics, all_ops, run_problems


def freeze() -> None:
    """Recompute benchmarks/expected.json from the checkout's confal."""
    sys.path.insert(0, str(SRC))
    library = {}
    for workload in workloads.LIBRARY_WORKLOADS:
        ops = library_pass(workload, workloads.DEFAULT_SEED)
        bad = [p for op in ops for p in op.problems]
        if bad:
            raise SystemExit(f"refusing to freeze {workload}: {bad}")
        library[workload] = {op.name: op.digest for op in ops}
    cli = {}
    for label, argv in workloads.cli_invocations():
        child = run_child(["-m", "confal.cli", *argv])
        op = cli_op(label, argv, child, {})
        failure = any("differs from the frozen" not in p for p in op.problems)
        cli[label] = {"exit": child.rc, "stdout_sha256": sha256(child.out), "failure": failure}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": workloads.DEFAULT_SEED, "library": library, "cli": cli},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite the frozen digests and exit")
    args = parser.parse_args(argv)
    if not (SRC / "confal" / "__init__.py").is_file():
        print(f"error: no confal sources under {SRC}; run from a confal checkout",
              file=sys.stderr)
        return 2
    if args.freeze:
        freeze()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record, metrics, ops, run_problems = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    failed = [op for op in ops if op.problems]
    record.update({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "known_failures": sorted({op.name for op in failed if op.known}),
        "problems": run_problems + [p for op in failed for p in op.problems][:20],
        "metrics": metrics,
    })
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not run_problems and all(op.known for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
