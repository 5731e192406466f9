"""tools/bench_pairs.py on synthetic runs: within_bound follows each
metric's direction and its bound in BENCHMARK.json, gain_claim needs
enough pairs, enough wins and a gap wider than the parent's spread, and
every seed runs a parent/change pair and an A/A pair of every declared
workload, in an order that rotates every side through every position."""

import importlib.util
import json
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


def paired(metric: str, parent: list, change: list) -> list[dict]:
    """Synthetic runs of one metric: pair k has parent[k] and change[k]."""
    return [
        {"seed": seed, "side": side, "result": {"metrics": {metric: {"value": value}}}}
        for seed, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


# a parent's wall_s in ten pairs: median 1.0, quartiles 0.99125 and 1.00875
PARENT = [0.97, 0.98, 0.99, 0.995, 1.0, 1.0, 1.005, 1.01, 1.02, 1.03]


@pytest.mark.parametrize(
    "change, claim",
    [
        # 10 of 10 pairs better, medians 0.9 against 1.0 (parent IQR 0.0175)
        ([v - 0.1 for v in PARENT], True),
        # 9 of 10 better and one tie
        ([v - 0.1 for v in PARENT[:9]] + [PARENT[9]], True),
        # 8 of 10 better, 2 ties: the ties count for neither side
        ([v - 0.1 for v in PARENT[:8]] + PARENT[8:], False),
        # 10 of 10 better, but the medians are 0.01 apart, inside the IQR
        ([v - 0.01 for v in PARENT], False),
        # 10 of 10 worse
        ([v + 0.1 for v in PARENT], False),
    ],
)
def test_gain_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(change, claim):
    entry = bench_pairs.compare_sides(paired("wall_s", PARENT, change), "parent", "change")["wall_s"]
    assert entry["gain_claim"] is claim


def test_gain_claim_needs_ten_pairs_and_follows_the_direction():
    # 9 pairs, every one better by far: too few to claim
    entry = bench_pairs.compare_sides(
        paired("wall_s", PARENT[:9], [v / 2 for v in PARENT[:9]]), "parent", "change"
    )["wall_s"]
    assert entry["change_better_pairs"] == 9 and entry["gain_claim"] is False
    # sim_steps_per_s: higher is better
    rates = [100 * v for v in PARENT]
    for change, claim in (([v * 1.2 for v in rates], True), ([v * 0.8 for v in rates], False)):
        entry = bench_pairs.compare_sides(paired("sim_steps_per_s", rates, change), "parent", "change")
        assert entry["sim_steps_per_s"]["gain_claim"] is claim


def test_pair_rel_change_range_spans_the_seeds():
    # the medians agree, but single pairs differ by -10% and +20%
    change = [1.0, 0.9, 1.2, 1.0, 1.0]
    entry = bench_pairs.compare_sides(paired("wall_s", [1.0] * 5, change), "parent", "change")["wall_s"]
    assert entry["rel_change"] == 0.0
    assert entry["pair_rel_change_range"] == pytest.approx([-0.1, 0.2])


def test_every_seed_runs_a_pair_and_an_aa_pair(tmp_path, monkeypatch):
    # every workload and the run length come from BENCHMARK.json, and each
    # seed runs the parent, the change and the parent's second copy, in the
    # order of its row of ORDERS
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0000000")
    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, dest: dest)
    calls = []

    def run_once(tree, workload, seed, seconds, toy):
        calls.append((workload, seed, tree.name, seconds))
        return {"env": {}, "csv_digest": "same",
                "result": {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "A", "--change", "B", "--seeds", "1-4",
                             "--out", str(out)]) == 0
    benchmark = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    assert calls == [(workload, seed, side, benchmark["run_seconds"])
                     for workload in workloads
                     for seed, order in zip(range(1, 5), bench_pairs.ORDERS)
                     for side in order]
    summary = json.loads(out.read_text())["summary"]
    assert list(summary) == workloads
    assert all(summary[w]["pairs"] == summary[w]["aa"]["pairs"] == 4 for w in workloads)
    # the A/A summary carries the per-seed range, and 4 equal pairs claim nothing
    for w in workloads:
        for entry in (summary[w]["wall_s"], summary[w]["aa"]["wall_s"]):
            assert entry["pair_rel_change_range"] == [0.0, 0.0]
            assert entry["gain_claim"] is False


def schedule(monkeypatch, tmp_path, seeds: str) -> dict:
    """bench_pairs.main's runs of the first workload over seeds, with no
    checkout made: {seed: {side: position}}."""
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0000000")
    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "env": {}, "csv_digest": "same",
        "result": {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}})
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "A", "--change", "B", "--seeds", seeds,
                             "--out", str(out)]) == 0
    positions = {}
    for run in json.loads(out.read_text())["runs"]:
        if run["workload"] == bench_pairs.WORKLOADS[0]:
            positions.setdefault(run["seed"], {})[run["side"]] = run["position"]
    return positions


def test_every_side_runs_at_every_position_and_the_pair_takes_turns(monkeypatch, tmp_path):
    # over six seeds each side runs twice at each of the three positions,
    # so a position effect lands on every side alike
    positions = schedule(monkeypatch, tmp_path, "1-6")
    assert list(positions) == list(range(1, 7))
    for side in ("parent", "change", "parent_copy"):
        assert sorted(p[side] for p in positions.values()) == [0, 0, 1, 1, 2, 2]
    # the parent and the change take turns running first in their pair
    firsts = ["parent" if p["parent"] < p["change"] else "change" for p in positions.values()]
    assert firsts == ["parent", "change"] * 3
    # over ten seeds the change runs at each position 3 or 4 times
    positions = schedule(monkeypatch, tmp_path, "1-10")
    counts = [sum(p["change"] == k for p in positions.values()) for k in range(3)]
    assert sorted(counts) == [3, 3, 4]


@pytest.mark.parametrize("seeds", ["5-3", "3-x", "", "-3"])
def test_a_bad_seed_range_exits_2_before_any_checkout(monkeypatch, tmp_path, capsys, seeds):
    # a reversed range is empty: it must not make the checkouts and write a
    # record of 0 pairs that passes
    checkouts = []
    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, dest: checkouts.append(ref))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "A", "--change", "B", "--seeds", seeds,
                          "--out", str(tmp_path / "pairs.json")])
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert checkouts == [] and not (tmp_path / "pairs.json").exists()


def test_seed_range_is_inclusive():
    assert bench_pairs.seed_range("91-100") == list(range(91, 101))
    assert bench_pairs.seed_range("7") == [7]


def main_summary(monkeypatch, tmp_path, values: dict) -> dict:
    """bench_pairs.main's summary over seeds 1-10, every run's wall_s from
    values[side][k] at the k-th seed, with no checkout made."""
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0000000")
    monkeypatch.setattr(bench_pairs, "checkout", lambda ref, dest: dest)

    def run_once(tree, workload, seed, seconds, toy):
        return {"env": {}, "csv_digest": "same",
                "result": {"correct": True, "failed": 0,
                           "metrics": {"wall_s": {"value": values[tree.name][seed - 1]}}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "A", "--change", "B", "--seeds", "1-10",
                             "--out", str(out)]) == 0
    return json.loads(out.read_text())["summary"]


@pytest.mark.parametrize(
    "copy_shift, change_shift, aa_claim, claim",
    [
        # the parent's second copy is 10% faster in 10 of 10 pairs: that
        # claims a gain, so the change's 20% gain is not claimed
        (-0.1, -0.2, True, False),
        # the second copy is 10% slower: an offset larger than the change's
        # 5% gain, which is not claimed; a 15% gain is
        (0.1, -0.05, False, False),
        (0.1, -0.15, False, True),
        # no offset: the change's 5% gain is claimed
        (0.0, -0.05, False, True),
    ],
)
def test_a_gain_claim_must_beat_the_aa_pair(monkeypatch, tmp_path, copy_shift, change_shift,
                                             aa_claim, claim):
    values = {"parent": PARENT,
              "parent_copy": [v + copy_shift for v in PARENT],
              "change": [v + change_shift for v in PARENT]}
    summary = main_summary(monkeypatch, tmp_path, values)
    for entry in summary.values():
        # the change alone passes the pairs and the IQR rule every time
        assert entry["wall_s"]["change_better_pairs"] == 10
        assert entry["aa"]["wall_s"]["gain_claim"] is aa_claim
        assert entry["wall_s"]["gain_claim"] is claim
