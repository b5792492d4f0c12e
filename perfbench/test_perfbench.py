"""perfbench self-test, run explicitly (it is outside the tier-1 testpaths):

    PYTHONPATH=src python -m pytest perfbench -q

Smoke sizes keep the whole file under a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import cli, compare, workloads
from perfbench.spans import Tracer

BENCH = cli.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_declares_valid_names_units_and_bounds():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) <= 16 + 128
    assert all(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, trace):
    record = cli.run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    values = record["metrics"].values()
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert record["digest"]["status"] == "ok", record["digest"]
    assert record["oracle"]["ok"]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    if trace and workloads.get(name).kind == "sweep":
        m = record["metrics"]
        covered = m["backend.ops_frac"] + m["rng.philox_frac"] + m["core.driver_frac"]
        assert covered == pytest.approx(1.0, abs=0.05)


def test_a_digest_mismatch_fails_every_operation(tmp_path, monkeypatch):
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps({cli.golden_key("solo-32", 1, True): "0" * 64}))
    monkeypatch.setattr(cli, "GOLDEN", wrong)
    record = cli.run_workload("solo-32", seed=1, seconds=0, smoke=True)
    assert record["digest"]["status"] == "mismatch"
    assert not record["correct"] and record["failed"] == record["attempted"]


def test_self_time_subtracts_the_time_children_cover():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 11.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin("a")  # t=0
    tracer.begin("b")  # t=1
    tracer.begin("c")  # t=2
    tracer.end()  # c closes at 3: 1 s
    tracer.end()  # b closes at 4: 3 s, 2 s of it its own
    with tracer.paused():
        tracer.begin("d")  # t=6
        tracer.end()  # t=7, not booked and not subtracted from a
    tracer.begin("b")  # t=8
    tracer.end()  # b closes at 10: 2 s
    tracer.end()  # a closes at 11: 11 s minus its children's 3 + 2 s
    assert tracer.totals["a"] == [1, 11.0, 6.0]
    assert tracer.totals["b"] == [2, 5.0, 4.0]
    assert tracer.totals["c"] == [1, 1.0, 1.0]
    assert "d" not in tracer.totals


def _runs(values: "list[float]") -> dict:
    """One untraced record per seed, every end-to-end metric = value."""
    return {
        ("solo-512", seed): {
            "metrics": {m["name"]: v for m in BENCH["end_to_end"]},
            "failed": 0,
            "attempted": 10,
        }
        for seed, v in enumerate(values, start=1)
    }


def _flips(parent, change) -> dict:
    rows = compare.compare(_runs(parent), _runs(change), BENCH)
    return next(row for row in rows if row["metric"] == "flips_per_ns")


PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_compare_claims_a_gain_on_ten_wins_of_ten():
    row = _flips(PARENT, [v * 1.05 for v in PARENT])
    assert (row["wins"], row["status"]) == (10, "gain")


def test_compare_refuses_a_gain_at_eight_wins_of_ten():
    change = [v * 1.05 for v in PARENT]
    change[0], change[1] = 0.9, 0.9
    row = _flips(PARENT, change)
    assert row["wins"] == 8 and row["status"] != "gain"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    wide = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.0]
    row = _flips(wide, list(reversed(wide)))
    assert row["spread"] > BENCH["end_to_end"][0]["bound"]
    assert row["status"] == "unresolved"


def test_compare_flags_a_regression_beyond_the_bound():
    row = _flips(PARENT, [v * 0.7 for v in PARENT])
    assert row["status"] == "REGRESSION"


def _run_script(cwd, *args) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_run_script_ends_with_the_result_line():
    proc = _run_script(
        cli.ROOT, "--workload", "solo-32", "--seed", "4", "--seconds", "0",
        "--trace", "0", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
    assert "digest" in proc.stdout and "unchecked" in proc.stdout


def test_run_script_fails_without_the_program(tmp_path):
    shutil.copy(cli.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        cli.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run_script(
        tmp_path, "--workload", "solo-32", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
