"""Fast self-test of the benchmark: tiny workloads, metric schema, oracles.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from ledger import Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLANS = run.plans_for(w)

TINY_DFS = w.DfsShape(object_bytes=16 * w.KiB, objects=6)
TINY_SERVE = w.ServeShape(clients=90, files_per_tenant=4, cache_bytes=512 * w.KiB)
TINY_DURABILITY = w.DurabilityShape(stripes=4, horizon_years=2.0)


def tiny(plan):
    shapes = {"dfs": TINY_DFS, "serve": TINY_SERVE, "durability": TINY_DURABILITY}
    return tuple(dataclasses.replace(sl, shape=shapes[sl.family], min_units=1, traced_units=1) for sl in plan)


def check_schema(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert m["better"] in ("higher", "lower")
        assert math.isfinite(value), m["name"]


def test_benchmark_json_names_every_workload():
    assert [wl["name"] for wl in SPEC["workloads"]] == list(PLANS)


@pytest.mark.parametrize("workload", list(PLANS))
def test_tiny_workload_reports_every_end_to_end_metric(workload):
    tally, metrics = run.measure(w, layers, Ledger(False), tiny(PLANS[workload]), seed=3, seconds=0)
    assert not tally.mismatches
    assert tally.attempted > 0 and tally.failed == 0
    check_schema(metrics, SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    tally, metrics = run.measure(w, layers, Ledger(True), tiny(PLANS["dfs-small"]), seed=3, seconds=0)
    assert not tally.mismatches  # includes the ledger balance and traced == bare sim time
    check_schema(metrics, SPEC["per_layer"])
    assert metrics["gf.apply.calls"][0] > 0 and metrics["sim.events"][0] > 0
    assert metrics["reliability.repairs"][0] > 0


@pytest.mark.parametrize("oracle", ["read", "degraded", "repair"])
def test_dfs_oracles_reject_a_wrong_expectation(oracle):
    tally = w.Tally(Ledger(False))
    w.dfs_unit(tally, TINY_DFS, seed=5, traced=False, tamper=oracle)
    assert tally.mismatches


def test_serve_oracle_rejects_a_wrong_expectation():
    tally = w.Tally(Ledger(False))
    w.serve_unit(tally, TINY_SERVE, seed=5, traced=False, scored=True, tamper="serve")
    assert tally.mismatches


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "dfs-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
