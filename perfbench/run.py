"""spinsyn benchmark: one workload, untraced (end-to-end) or traced (per layer).

Run from the repository root:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload call (at parallelism 1, with the same
inputs) until the next call would overrun ``--seconds`` (at least one
call), and reports medians: setup_s, wall_s, sim_steps_per_s, peak_rss_mb.
``--trace 1`` runs the call once with only ``harness.run_trials`` wrapped
(the reference), once with every hook of ``spantrace.HOOKS`` wrapped, and
for ``sweep`` once more at parallelism 2 with only ``run_trials`` and the
Pool timed; it reports the per-layer metrics. Every call's CSVs are checked;
the CSV digest must be equal across all calls of one invocation. The last
stdout line is one JSON object; the exit code is 0 only if every check
passed, and 2 for a usage error or a missing ``src/spinsyn``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "env.next.calls": "count",
    "env.next.self_us": "us",
    "critic.forward.calls": "count",
    "critic.forward.self_us": "us",
    "critic.update.calls": "count",
    "critic.update.self_us": "us",
    "actor.forward.calls": "count",
    "actor.forward.self_us": "us",
    "actor.accumulate.calls": "count",
    "actor.accumulate.self_us": "us",
    "actor.apply_batch_update.calls": "count",
    "actor.apply_batch_update.self_us": "us",
    "actor.fire_frac.w_hidden": "fraction",
    "actor.fire_frac.w_out": "fraction",
    "harness.run_epoch.calls": "count",
    "harness.run_epoch.self_us": "us",
    "harness.run_epoch.ms_p50": "ms",
    "harness.run_epoch.ms_p99": "ms",
    "harness.run_trial.calls": "count",
    "harness.run_trial.setup_ms": "ms",
    "harness.pool_s": "s",
    "harness.parallel_eff": "fraction",
    "harness.epochs_total.powerlaw": "count",
    "harness.epochs_total.linear": "count",
    "harness.converged.powerlaw": "count",
    "harness.converged.linear": "count",
    "harness.mean_epochs.powerlaw": "epochs",
    "harness.mean_epochs.linear": "epochs",
    "device.pulse_map_sweep.s": "s",
    "device.apply_pulse.calls": "count",
    "device.apply_pulse.self_us": "us",
    "device.max_rel_err": "fraction",
    "cli.parse_config.ms": "ms",
    "cli.write_csv.ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}

SETUP_REPEATS = 5
# a fresh interpreter importing the CLI and parsing the workload config
SETUP_PROBE = "import sys; import spinsyn.cli as cli; cli.parse_config(sys.argv[1])"

# The speed of a shared host flips between two levels about 1.8x apart, for
# anything from under a second to minutes: identical device_map calls took
# 0.8 s in one run and 1.5 s in the next. Call timings are therefore scaled
# to a reference host speed. A fixed calibration loop is timed in this
# process before and after each call and, from a SIGALRM handler, every
# SAMPLE_EVERY_S during it (the handler's time is left out of the call). The
# call's time is multiplied by CALIBRATION_REF_S x the mean of 1 / loop time,
# so it reads as seconds on a host where the loop takes CALIBRATION_REF_S.
# A change to spinsyn does not touch the loop, so it shows in full; raw
# timings are printed as well. setup_s runs in fresh interpreters, whose
# speed the loop in this process does not predict, so it stays raw.
CALIBRATION_REF_S = 0.008
SAMPLE_EVERY_S = 0.5


def git_sha() -> str:
    """HEAD commit read from .git files, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def calibration_loop_s() -> float:
    """Time of a fixed loop of interpreter arithmetic and 10-element numpy updates."""
    import numpy as np

    x = np.zeros(10)
    acc = 0.0
    start = time.perf_counter()
    for i in range(10000):
        acc += (i * 0.5) % 7.0
        x += 1.0
    return time.perf_counter() - start


class HostSampler:
    """Context manager sampling host speed around and during one timed call."""

    def __enter__(self):
        self.samples = [calibration_loop_s()]
        self.paused = 0.0  # seconds the handler took inside the call
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibration_loop_s())
        self.paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibration_loop_s())

    def scale(self, raw_s: float) -> float:
        """``raw_s`` in seconds of a host on which the loop takes CALIBRATION_REF_S."""
        return raw_s * CALIBRATION_REF_S * statistics.fmean(1.0 / t for t in self.samples)


def setup_probe(config_path: Path) -> float:
    """Wall seconds of one fresh interpreter running SETUP_PROBE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config_path)],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Calls:
    """Runs and checks workload calls; counts attempts, failures and digests."""

    def __init__(self, prep):
        self.prep = prep
        self.attempted = 0
        self.failed = 0
        self.digests = set()  # of the result CSVs
        self.trial_digests = set()  # of the TrialResults, where run_trials was wrapped
        self.problems = []

    def run(self, parallelism: int, tracer=None, hooks=(), sampler=None):
        """One timed call, with ``hooks`` wrapped for ``tracer`` and ``sampler``
        sampling host speed around it; returns (wall s, Checked)."""
        from spantrace import install

        workload = self.prep.workload
        workload.fresh_out(self.prep)
        self.attempted += 1
        with install(tracer, hooks) if tracer else contextlib.nullcontext():
            with sampler or contextlib.nullcontext():
                start = time.perf_counter()
                code = workload.run(self.prep, parallelism)
                wall = time.perf_counter() - start
        checked = workload.check(self.prep)
        if code != 0:
            checked.problems.insert(0, f"{workload.name} exited with code {code}")
        if checked.problems:
            self.failed += 1
            self.problems.extend(checked.problems)
        self.digests.add(checked.digest)
        if tracer is not None and tracer.trial_digest is not None:
            self.trial_digests.add(tracer.trial_digest)
        return wall, checked

    def deterministic(self) -> bool:
        return len(self.digests) == 1 and len(self.trial_digests) <= 1


def end_to_end(calls: Calls, seconds: float, setup_repeats: int) -> dict:
    setup_probe(calls.prep.config_path)  # warm-up: bytecode caches, file cache
    setup = [setup_probe(calls.prep.config_path) for _ in range(setup_repeats)]
    walls_raw, walls = [], []
    steps = 0
    budget_start = time.perf_counter()
    while True:
        host = HostSampler()
        wall, checked = calls.run(1, sampler=host)
        walls_raw.append(wall - host.paused)
        walls.append(host.scale(walls_raw[-1]))
        steps = checked.units
        elapsed = time.perf_counter() - budget_start
        if elapsed + statistics.median(walls_raw) > seconds:
            break
    wall_s = statistics.median(walls)
    print(f"calls: {len(walls)} raw walls_s: {[round(w, 4) for w in walls_raw]}")
    print(f"raw wall_s: {statistics.median(walls_raw)}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "sim_steps_per_s": steps / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(calls: Calls) -> dict:
    import numpy as np

    from spantrace import HOOKS, Tracer

    workload = calls.prep.workload
    ref = Tracer()
    ref_wall, _ = calls.run(1, ref, ["harness.run_trials"])
    tr = Tracer(keep_raw=("harness.run_epoch",))
    traced_wall, checked = calls.run(1, tr, HOOKS)
    pool_s = parallel_eff = 0.0
    if workload.pool_workers:
        par = Tracer()
        calls.run(workload.pool_workers, par, ["harness.run_trials", "harness.pool"])
        arms, arm_ns = par.totals("harness.run_trials")[:2]
        pool_ns = par.totals("harness.pool_start")[1] + par.totals("harness.pool_stop")[1]
        pool_s = pool_ns / arms / 1e9
        parallel_eff = ref.totals("harness.run_trials")[1] / (workload.pool_workers * arm_ns)
    for line in tr.table():
        print(line)

    def count_self(name):
        count, _total, self_ns, _lead = tr.totals(name)
        return count, (self_ns / count / 1e3 if count else 0.0)

    metrics = {}
    for name in ("env.next", "critic.forward", "critic.update", "actor.forward",
                 "actor.accumulate", "actor.apply_batch_update", "harness.run_epoch",
                 "device.apply_pulse"):
        metrics[f"{name}.calls"], metrics[f"{name}.self_us"] = count_self(name)
    for layer in ("w_hidden", "w_out"):
        fired, seen = tr.fired[layer]
        metrics[f"actor.fire_frac.{layer}"] = fired / seen if seen else 0.0
    epochs_ms = np.asarray(tr.raw["harness.run_epoch"], dtype=float) / 1e6
    metrics["harness.run_epoch.ms_p50"] = float(np.percentile(epochs_ms, 50)) if epochs_ms.size else 0.0
    metrics["harness.run_epoch.ms_p99"] = float(np.percentile(epochs_ms, 99)) if epochs_ms.size else 0.0
    trials, _total, _self, lead_ns = tr.totals("harness.run_trial")
    metrics["harness.run_trial.calls"] = trials
    metrics["harness.run_trial.setup_ms"] = lead_ns / trials / 1e6 if trials else 0.0
    metrics["harness.pool_s"] = pool_s
    metrics["harness.parallel_eff"] = parallel_eff
    for rule in ("powerlaw", "linear"):
        n_trials, converged, epochs_total, conv_epochs = checked.rules.get(rule, (0, 0, 0, 0))
        metrics[f"harness.epochs_total.{rule}"] = epochs_total
        metrics[f"harness.converged.{rule}"] = converged
        metrics[f"harness.mean_epochs.{rule}"] = conv_epochs / converged if converged else 0.0
    metrics["device.pulse_map_sweep.s"] = tr.totals("device.pulse_map_sweep")[1] / 1e9
    metrics["device.max_rel_err"] = checked.max_rel_err
    parses = tr.totals("cli.parse_config")
    metrics["cli.parse_config.ms"] = parses[1] / parses[0] / 1e6 if parses[0] else 0.0
    metrics["cli.write_csv.ms"] = sum(
        tr.totals(name)[1] for name in {span for span, _parent in tr.agg}
        if name.startswith("cli.write_")
    ) / 1e6
    metrics["cli.csv_bytes"] = checked.csv_bytes
    metrics["trace.overhead_frac"] = traced_wall / ref_wall - 1.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "spinsyn" / "__init__.py").is_file():
        print(f"perfbench: no spinsyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinsyn.cli  # noqa: F401  (import cost belongs to setup_s, not to the first call)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        prep = WORKLOADS[args.workload].prepare(args.seed, workdir, toy=args.toy)
        print("env:", json.dumps(environment(args.seed)))
        calls = Calls(prep)
        if args.trace:
            metrics, units = per_layer(calls), PER_LAYER_UNITS
        else:
            setup_repeats = 1 if args.toy else SETUP_REPEATS
            metrics, units = end_to_end(calls, args.seconds, setup_repeats), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in calls.problems:
        print("check failed:", problem)
    deterministic = calls.deterministic()
    if not deterministic:
        print("check failed: digests differ between calls")
    print("csv digest:", ",".join(sorted(calls.digests)))
    if calls.trial_digests:
        print("trial digest:", ",".join(sorted(calls.trial_digests)))
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    correct = calls.failed == 0 and deterministic
    result = {
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
