"""Paired benchmark of two commits: runs of perfbench/run.py from fresh copies, in rotating order.

Run from the repository root:

    python tools/bench_pairs.py --parent 0a94fae --change HEAD --out BENCH_21_0a94fae.json

For each workload declared in BENCHMARK.json, the script runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once per
side and seed, T defaulting to BENCHMARK.json's ``run_seconds``. Each
side runs from its own fresh ``git archive`` copy, and a second copy of
the parent gives an A/A pair at every seed, so the offset that a checkout
alone puts on a metric (setup_s moves by about 10%) is reported from the
same seeds as each parent/change comparison. The k-th seed runs its three
sides in the order ORDERS[k % 6]: the three rotations of (parent, change,
parent copy), then the three of (change, parent, parent copy). Over six
seeds each side runs twice at each position, and the parent and the
change take turns running first, so an effect of run position lands on
every side alike. perfbench/run.py runs unedited; the script changes no
workload and no bound.

The output JSON holds ``parent``, ``change``, ``command``, ``method``,
``host``, ``summary`` (per workload and end-to-end metric: each side's
median and quartiles, the relative change of the medians, the range of
the per-seed relative changes and the number of pairs in which the
change was better, whether the change's median is within the metric's
bound, and whether the runs support a claimed gain, which for the change
must also beat the A/A pair; the same for the A/A pairs, the second
parent copy against the first; whether every run was correct and whether
the CSV digests matched) and ``runs`` (every run's side, seed, position
in the seed's run order, env line, result JSON and CSV digest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = BENCHMARK["end_to_end"]
# the k-th seed runs its sides in ORDERS[k % 6], the rotations of two
# orders, so that over six seeds every side runs twice at each position and
# the parent and the change take turns running first
ORDERS = [order[i:] + order[:i] for order in (("parent", "change", "parent_copy"),
                                              ("change", "parent", "parent_copy"))
          for i in range(3)]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(ref: str, dest: Path) -> Path:
    """A fresh copy of the committed tree of ref in dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, toy: bool) -> dict:
    """One perfbench/run.py call in tree: its env line, result JSON and CSV digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--toy"] if toy else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the copy's src only
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    fields = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines if ": " in line}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                  "error": (proc.stderr or proc.stdout)[-2000:]}
    return {
        "env": json.loads(fields["env"]) if "env" in fields else None,
        "result": result,
        "csv_digest": fields.get("csv digest"),
    }


def compare_sides(runs: list[dict], first: str, second: str, aa: dict | None = None) -> dict:
    """Per metric: both sides' median and quartiles, the relative change of
    the medians from first to second, the [min, max] of the pairs' own
    relative changes, the pairs in which second was better, within_bound:
    false when second's median is worse than first's by more than the
    metric's bound in BENCHMARK.json, and gain_claim: true only when there
    are at least ten pairs, second is better in at least nine tenths of
    them (ties counting for neither), and its median is better than
    first's by more than first's interquartile range. Given aa, the A/A
    summary of the same runs, gain_claim also needs the A/A pair to claim
    no gain on the metric and second's relative gain to exceed the A/A
    relative change in size: a claim must beat what a second checkout of
    first alone shows. Runs pair up by seed; runs of any other side are
    ignored."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [(p[first], p[second]) for p in by_seed.values() if first in p and second in p]
    summary = {"pairs": len(pairs)}
    for spec in METRICS:
        metric, lower = spec["name"], spec["better"] == "lower"
        values = [(a[metric]["value"], b[metric]["value"]) for a, b in pairs
                  if metric in a and metric in b]
        if not values:
            continue
        xs, ys = np.array(values).T
        entry = {}
        for side, data in ((first, xs), (second, ys)):
            q1, median, q3 = np.percentile(data, [25, 50, 75])
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        entry["rel_change"] = entry[f"{second}_median"] / entry[f"{first}_median"] - 1.0
        pair_changes = ys / xs - 1.0
        entry["pair_rel_change_range"] = [float(pair_changes.min()), float(pair_changes.max())]
        better = sum(y < x if lower else y > x for x, y in values)
        entry[f"{second}_better_pairs"] = better
        worse_by = entry["rel_change"] if lower else -entry["rel_change"]
        entry["within_bound"] = bool(worse_by <= spec["bound"])
        gain = entry[f"{first}_median"] - entry[f"{second}_median"]
        entry["gain_claim"] = bool(
            len(values) >= 10
            and 10 * better >= 9 * len(values)
            and (gain if lower else -gain) > entry[f"{first}_q3"] - entry[f"{first}_q1"]
            and (aa is None or (metric in aa and not aa[metric]["gain_claim"]
                                and -worse_by > abs(aa[metric]["rel_change"])))
        )
        summary[metric] = entry
    return summary


def workload_summary(runs: list[dict]) -> dict:
    """compare_sides of one workload's runs, parent against change, held to
    the A/A summary, the parent's second copy against the first, which it
    carries under "aa"."""
    aa = compare_sides(runs, "parent", "parent_copy")
    return {**compare_sides(runs, "parent", "change", aa), "aa": aa}


def seed_range(text: str) -> list[int]:
    """The seeds of "first-last" (or of one "seed"), first <= last."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range first-last: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r} (first > last)")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", required=True, help="git ref of the change")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    parser.add_argument("--seeds", default="21-30", type=seed_range,
                        help="first-last, first <= last: one pair per seed")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--toy", action="store_true", help="perfbench's tiny inputs")
    args = parser.parse_args(argv)
    seeds = args.seeds
    shas = {side: git("rev-parse", "--short", ref)
            for side, ref in (("parent", args.parent), ("change", args.change))}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {
            "parent": checkout(args.parent, Path(tmp) / "parent"),
            "change": checkout(args.change, Path(tmp) / "change"),
            "parent_copy": checkout(args.parent, Path(tmp) / "parent_copy"),
        }
        for workload in WORKLOADS:
            for k, seed in enumerate(seeds):
                for position, side in enumerate(ORDERS[k % len(ORDERS)]):
                    run = run_once(trees[side], workload, seed, args.seconds, args.toy)
                    runs.append({"workload": workload, "side": side, "seed": seed,
                                 "seconds": args.seconds, "position": position, **run})
                    print(f"{workload} seed {seed} {side}: "
                          f"{run['result'].get('metrics', {}).get('wall_s', {}).get('value')}",
                          file=sys.stderr)

    summary = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        entry = workload_summary(mine)
        entry["correct_all"] = all(r["result"]["correct"] for r in mine)
        entry["failed_total"] = {
            side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
            for side in ("parent", "change", "parent_copy")
        }
        entry["csv_digests_equal"] = all(
            len({r["csv_digest"] for r in mine if r["seed"] == seed}) == 1 for seed in seeds
        )
        summary[workload] = entry

    env = next((r["env"] for r in runs if r["env"]), {})
    record = {
        "parent": shas["parent"],
        "change": shas["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0" + (" --toy" if args.toy else ""),
        "method": (
            f"tools/bench_pairs.py: fresh git-archive copies of the parent, the change and a "
            f"second copy of the parent; one run of each per seed {seeds[0]}-{seeds[-1]}, one "
            f"run at a time, the k-th seed in the order ORDERS[k % 6]: the three rotations of "
            f"(parent, change, parent_copy), then those of (change, parent, parent_copy), so "
            f"each side runs at each position equally often over six seeds; the A/A pair "
            f"(summary.<workload>.aa) is the second copy against the first; quartiles by "
            f"numpy.percentile (linear)"
        ),
        "host": (
            f"{os.cpu_count()}-CPU {platform.machine()} host, Python {env.get('python')}, "
            f"numpy {env.get('numpy')}, scipy {env.get('scipy')}"
        ),
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    ok = all(entry["correct_all"] and entry["csv_digests_equal"] for entry in summary.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
