"""Every `BENCH_*.json` at the repository root is a usable before/after record.

A speed-up counts only as a parent/change pair in one of these files, so
each file must say on what host and with which library versions it was
measured, how perfbench was run, and, per pair, a correct run on each side
with the three end-to-end metrics that BENCHMARK.json declares.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_declared_workloads_and_metrics():
    assert WORKLOADS == {"desk-sweep", "full-stiff", "full-steady", "desk-simulate"}
    assert METRICS == ["setup_s", "run_s", "peak_rss_mb"]
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    record = json.loads(path.read_text())
    assert {"cpu", "cores", "python", "numpy", "scipy"} <= set(record["host"])
    assert isinstance(record["command"], str) and record["command"]
    assert isinstance(record["seconds"], Real) and record["seconds"] > 0
    assert record["pairs"]
    for i, pair in enumerate(record["pairs"]):
        assert pair["workload"] in WORKLOADS, (i, pair["workload"])
        for side in ("parent", "change"):
            run = pair[side]
            assert run["correct"] is True, (i, side)
            for name in METRICS:
                value = run["metrics"][name]["value"]
                assert isinstance(value, Real) and value > 0, (i, side, name)
