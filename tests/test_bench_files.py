"""Every committed BENCH_*.json names only what BENCHMARK.json measures, on both sides.

A BENCH file compares a parent commit with a change on the harness in
`benchmarks/`.  Its `results` list holds one entry per (workload, metric):
the seeds and pair count, and for each side the median and the quartiles
over those runs, plus how many pairs the change won.  An optional
`trace_counts` list names the per-layer metrics that a `--trace 1` run found
equal, or different, on the two sides.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
METRICS = {m["name"] for m in SPEC["end_to_end"]} | PER_LAYER
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_side(side, where):
    assert isinstance(side, dict), where
    median, quartiles = side.get("median"), side.get("quartiles")
    assert _is_number(median), where
    assert isinstance(quartiles, list) and len(quartiles) == 2, where
    assert all(_is_number(q) for q in quartiles), where
    assert quartiles[0] <= median <= quartiles[1], where


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_honest(path):
    bench = json.loads(path.read_text())
    assert isinstance(bench, dict)
    for key in ("command", "python"):
        assert isinstance(bench.get(key), str) and bench[key], key
    results = bench.get("results")
    assert isinstance(results, list) and results
    for entry in results:
        where = (entry.get("workload"), entry.get("metric"))
        assert entry.get("workload") in WORKLOADS, where
        assert entry.get("metric") in METRICS, where
        pairs = entry.get("pairs")
        assert isinstance(pairs, int) and pairs >= 1, where
        seeds = entry.get("seeds")
        assert isinstance(seeds, list) and len(seeds) == pairs, where
        assert all(isinstance(s, int) for s in seeds), where
        for side in ("parent", "change"):
            _check_side(entry.get(side), where + (side,))
        won = entry.get("change_better_in")
        assert isinstance(won, int) and 0 <= won <= pairs, where
    for entry in bench.get("trace_counts", []):
        assert entry.get("workload") in WORKLOADS, entry
        names = list(entry.get("equal", [])) + list(entry.get("differ", {}))
        assert names, entry
        assert set(names) <= PER_LAYER, set(names) - PER_LAYER
