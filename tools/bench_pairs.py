"""Paired benchmark of two commits: alternating runs of perfbench/run.py from fresh copies.

Run from the repository root:

    python tools/bench_pairs.py --parent 0a94fae --change HEAD --out BENCH_21_0a94fae.json

For each workload, the script runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once per side and seed: one pair per seed, with the
side that runs first alternating from pair to pair. Each side runs from its
own fresh ``git archive`` copy, and a second copy of the parent gives an
A/A pair per seed of the first ``--aa-pairs`` seeds, so the offset that a
checkout alone puts on a metric (setup_s moves by about 10%) is reported
next to every parent/change comparison. perfbench/run.py runs unedited;
the script changes no workload and no bound.

The output JSON holds ``parent``, ``change``, ``command``, ``method``,
``host``, ``summary`` (per workload and end-to-end metric: each side's
median and quartiles, the relative change of the medians and the number of
pairs in which the change was better, and whether the change's median
is within the metric's bound; the same for the A/A pairs, the
second parent copy against the first; whether every run was correct and
whether the CSV digests matched) and ``runs`` (every run's side, seed,
position in the seed's run order, whether it ran first in its pair, env
line, result JSON and CSV digest). ``first_in_pair`` of the parent and
the change refers to the parent/change pair, that of the parent's second
copy to the A/A pair; the parent runs first in both or in neither.
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
WORKLOADS = ("compare", "sweep", "device_map")
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


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


def compare_sides(runs: list[dict], first: str, second: str) -> dict:
    """Per metric: both sides' median and quartiles, the relative change of
    the medians from first to second, the pairs in which second was
    better, and within_bound: false when second's median is worse than
    first's by more than the metric's bound in BENCHMARK.json. Runs pair
    up by seed."""
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
        entry[f"{second}_better_pairs"] = sum(y < x if lower else y > x for x, y in values)
        worse_by = entry["rel_change"] if lower else -entry["rel_change"]
        entry["within_bound"] = bool(worse_by <= spec["bound"])
        summary[metric] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", required=True, help="git ref of the change")
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    parser.add_argument("--seeds", default="21-30", help="first-last: one pair per seed")
    parser.add_argument("--aa-pairs", type=int, default=3,
                        help="A/A pairs per workload, on the first seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--toy", action="store_true", help="perfbench's tiny inputs")
    args = parser.parse_args(argv)
    first_seed, _, last_seed = args.seeds.partition("-")
    seeds = list(range(int(first_seed), int(last_seed or first_seed) + 1))
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
                pair = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                order = pair
                if k < args.aa_pairs:  # the copy runs first or last, by turns
                    order = pair + ["parent_copy"] if k % 2 == 0 else ["parent_copy"] + pair
                for position, side in enumerate(order):
                    run = run_once(trees[side], workload, seed, args.seconds, args.toy)
                    # the parent runs first in the A/A pair exactly when it
                    # runs first in the parent/change pair
                    first = side == pair[0] or (side == "parent_copy" and position == 0)
                    runs.append({"workload": workload, "side": side, "seed": seed,
                                 "seconds": args.seconds, "position": position,
                                 "first_in_pair": first, **run})
                    print(f"{workload} seed {seed} {side}: "
                          f"{run['result'].get('metrics', {}).get('wall_s', {}).get('value')}",
                          file=sys.stderr)

    summary = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        main_runs = [r for r in mine if r["side"] in ("parent", "change")]
        entry = compare_sides(main_runs, "parent", "change")
        entry["correct_all"] = all(r["result"]["correct"] for r in mine)
        entry["failed_total"] = {
            side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
            for side in ("parent", "change", "parent_copy")
        }
        entry["csv_digests_equal"] = all(
            len({r["csv_digest"] for r in mine if r["seed"] == seed}) == 1 for seed in seeds
        )
        aa = [r for r in mine if r["seed"] in seeds[: args.aa_pairs]
              and r["side"] in ("parent", "parent_copy")]
        entry["aa"] = compare_sides(aa, "parent", "parent_copy")
        summary[workload] = entry

    env = next((r["env"] for r in runs if r["env"]), {})
    record = {
        "parent": shas["parent"],
        "change": shas["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0" + (" --toy" if args.toy else ""),
        "method": (
            f"tools/bench_pairs.py: fresh git-archive copies of the parent, the change and a "
            f"second copy of the parent; one pair per seed {args.seeds}, one run at a time, "
            f"alternating which side runs first; the parent's second copy runs last or first, "
            f"by turns, with each of the first {args.aa_pairs} pairs per workload "
            f"(summary.<workload>.aa, second copy against first); quartiles by "
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
