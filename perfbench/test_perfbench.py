"""Smoke test of the benchmark: toy-size runs of every workload, span arithmetic.

Run with ``python -m pytest perfbench``. It checks the benchmark's own
machinery, not spinsyn's speed: no assertion here depends on timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spantrace import Tracer, install  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_total_minus_children():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    child = tracer.wrap("child", lambda: None)

    def body():
        child()  # 10 .. 30
        child()  # 40 .. 45

    tracer.wrap("outer", body)()  # 0 .. 100
    # [count, total, self, lead]; lead runs from entry to the first child's entry
    assert tracer.agg[("outer", None)] == [1, 100, 100 - 20 - 5, 10]
    assert tracer.agg[("child", "outer")] == [2, 25, 25, 25]
    assert tracer.totals("child") == (2, 25, 25, 25)


def test_install_restores_every_hook():
    import spinsyn.actor as actor
    import spinsyn.harness as harness

    before = (harness.run_epoch, harness.Pool, actor.ActorNetwork.forward)
    with install(Tracer()):
        assert harness.run_epoch is not before[0]
        assert harness.Pool is not before[1]
    assert (harness.run_epoch, harness.Pool, actor.ActorNetwork.forward) == before


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "compare", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
