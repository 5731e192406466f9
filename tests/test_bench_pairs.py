"""tools/bench_pairs.py's summary on synthetic runs: within_bound follows
each metric's direction and its bound in BENCHMARK.json."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs(parent: dict, change: dict, pairs: int = 5) -> list[dict]:
    """Synthetic runs: one pair per seed, each side's metrics at the given
    values."""
    return [
        {"seed": seed, "side": side,
         "result": {"metrics": {name: {"value": value} for name, value in values.items()}}}
        for seed in range(pairs)
        for side, values in (("parent", parent), ("change", change))
    ]


@pytest.mark.parametrize(
    "metric, parent, change, within",
    [
        # wall_s: lower is better, bound 0.25
        ("wall_s", 1.0, 0.8, True),
        ("wall_s", 1.0, 1.2, True),
        ("wall_s", 1.0, 1.3, False),
        # sim_steps_per_s: higher is better, bound 0.2
        ("sim_steps_per_s", 100.0, 130.0, True),
        ("sim_steps_per_s", 100.0, 85.0, True),
        ("sim_steps_per_s", 100.0, 75.0, False),
    ],
)
def test_within_bound_follows_direction_and_bound(metric, parent, change, within):
    bound = next(m["bound"] for m in bench_pairs.METRICS if m["name"] == metric)
    assert bound == {"wall_s": 0.25, "sim_steps_per_s": 0.2}[metric]
    summary = bench_pairs.compare_sides(runs({metric: parent}, {metric: change}), "parent", "change")
    entry = summary[metric]
    assert summary["pairs"] == 5
    assert entry["rel_change"] == pytest.approx(change / parent - 1.0)
    assert entry["change_better_pairs"] == (5 if (change < parent) == (metric == "wall_s") else 0)
    assert entry["within_bound"] is within
