"""Self-tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test run: each test
starts benchmark processes and takes seconds, not milliseconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    printed = json.loads(out.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / "_runs" / f"{workload}-smoke-trace{trace}" / "result.json").read_text())
    assert saved["result"] == printed
    return printed, saved["info"]


@pytest.fixture(scope="module")
def untraced():
    return {name: _result(name, 0) for name in workloads.WORKLOADS}


def test_benchmark_json_matches_the_workloads_and_predictions():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e_names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for workload, predictions in workloads.PREDICTIONS.items():
        assert workload in workloads.WHY
        for moved, layers in predictions.items():
            assert set(moved.split(", ")) <= e2e_names
            assert set(layers) <= layer_names


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(untraced, workload):
    result, info = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["problems"] == [] and info["failed_frac"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_changes_no_behaviour_and_self_time_fits_in_wall(untraced, workload):
    result, info = _result(workload, 1)
    assert result["correct"], info["problems"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    _, plain = untraced[workload]
    assert info["final_eval_reward"] == plain["final_eval_reward"]
    assert info["digest"] == plain["digest"]
    assert info["traced_self_checks"]
    for self_sum, whole in info["traced_self_checks"]:
        assert 0 < self_sum <= whole


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 6]
    spans = [(2, "g", 2.0, 3.0, 1), (1, "c", 1.0, 4.0, 0), (3, "c", 5.0, 6.0, 0),
             (0, "root", 0.0, 10.0, -1)]
    stats = tracer.layer_stats(spans, {"root.rows": 7})
    assert stats["root.self_s"] == 6.0 and stats["root.total_s"] == 10.0
    assert stats["c.calls"] == 2 and stats["c.self_s"] == 3.0
    assert stats["g.self_s"] == 1.0 and stats["root.rows"] == 7


def test_recorder_wraps_every_import_name_and_restores_them():
    from queuerl import agent, cli, exploration

    original, original_choose = agent.save_agent, exploration.choose_start_mode
    recorder = tracer.SpanRecorder()
    names = recorder.install()
    try:
        assert "agent.save_agent" in names and "model.Adam.step" in names
        assert cli.save_agent is agent.save_agent is not original
        choose = exploration.choose_start_mode
        assert choose is sys.modules["queuerl"].choose_start_mode is not original_choose
    finally:
        recorder.uninstall()
    assert agent.save_agent is original and cli.save_agent is original


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs"))
    out = _run("train_figure", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
