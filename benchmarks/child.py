"""Child processes of the benchmark.

    python child.py setup WORKLOAD SEED
        Time a set-up in a fresh interpreter and print {"setup_s": ...}.
        For a library workload: `import confal`, then build the workload's
        algebras and generate its seeded inputs.  For `cli`: `import
        confal.cli`.

    python child.py cli ARG...
        Run `confal.cli.main(ARG...)` with the tracing wrappers installed.
        stdout is the command's own; the last line of stderr is
        TRACE_MARKER followed by the trace totals as JSON.

The benchmark runs children with PYTHONPATH set to the checkout's `src`.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARKER = "confal-bench-trace "


def setup(workload: str, seed: int) -> None:
    if workload == "cli":
        t0 = time.perf_counter()
        import confal.cli  # noqa: F401

        elapsed = time.perf_counter() - t0
    else:
        import workloads

        t0 = time.perf_counter()
        import confal  # noqa: F401

        workloads.LIBRARY_JOBS[workload](seed)
        elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))


def traced_cli(argv) -> int:
    t0 = time.perf_counter()
    import confal.cli

    import_s = time.perf_counter() - t0
    import tracing

    tracer = tracing.Tracer().install()
    try:
        return confal.cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {"raw": tracer.raw(), "import_s": import_s, "spans": tracer.spans}
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(payload) + "\n")


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "cli":
        sys.exit(traced_cli(rest))
    else:
        sys.exit(f"unknown child mode {mode!r}")
