"""The three benchmark workloads: inputs from a seed, one call, output checks.

Each workload writes its config file into a work directory, runs one
call into spinsyn, and checks the CSVs the call wrote. The seed reaches
the program only as ``--seed`` (training workloads) or as the generated
pulse grid (``device_map``).

* ``compare``: ``spinsyn compare`` at parallelism 1 on the default config,
  except ``harness.n_trials`` = 10 and ``harness.max_epochs`` = 1500. Trial
  lengths stay uneven (converged trials stop anywhere from about 500
  epochs, about 30% of power-law trials run to the cap), so a trial-batched
  engine meets masked lanes here. The cap replaces the default 10000: with
  it one non-converged trial can take half of a call, and the call's length
  would swing several-fold from one master seed to the next.
* ``sweep``: ``spinsyn sweep``, both rules over the full 18-point grid, 2
  trials per point and ``harness.max_epochs`` = 20. That cap is below the
  fewest epochs the reward filter needs to reach the goal (about 300), so
  every trial runs exactly 20 epochs. The timed calls run at parallelism 1;
  the traced invocation adds one call at parallelism 2, where each of the
  36 arms opens its own Pool. Timed at parallelism 2 on a shared two-core
  host, the call's spread between runs was 25-40%, too wide to bound.
* ``device_map``: ``pulse_map_sweep`` over a 100 x 100 (voltage, duration)
  grid drawn from the seed, 50 pulses per cell, written through the CLI's
  CSV writer and checked against the closed form of the pulse recursion.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RULES = ("powerlaw", "linear")

# relative tolerance of the pulse-map closed-form check: 50 iterated steps
# accumulate rounding of order 1e-14, far below this
PULSE_MAP_RTOL = 1e-9


@dataclass
class Checked:
    """What the output check found in one call's result CSVs."""

    problems: list[str] = field(default_factory=list)
    units: int = 0  # simulated presentations or pulses the call performed
    digest: str = ""
    csv_bytes: int = 0
    # per rule: trials, converged, epochs_total, converged epochs summed
    rules: dict = field(default_factory=dict)
    max_rel_err: float = 0.0


@dataclass
class Prepared:
    """Inputs of one workload, ready to be run any number of times."""

    workload: "Workload"
    seed: int
    workdir: Path
    config_path: Path
    grid: tuple | None = None  # (voltages, durations, n_pulses) for device_map

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"


def _write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))


def digest_csvs(out_dir: Path) -> tuple[str, int]:
    """sha256 over the result CSVs (name and bytes, sorted by name) and their size."""
    sha = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return sha.hexdigest(), size


def _read_rows(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        problems.append(f"{path.name}: {exc}")
        return []
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]} != {header!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _rule_counts(n_trials: int, max_epochs: int, mean: float, n_conv: int) -> list[int]:
    """[trials, converged, epochs_total, converged epochs] of one arm's CSV row."""
    conv_epochs = round(mean * n_conv) if n_conv else 0
    return [n_trials, n_conv, conv_epochs + (n_trials - n_conv) * max_epochs, conv_epochs]


def _check_arm(where: str, mean: float, n_conv: int, n_trials: int, max_epochs: int,
               problems: list[str]) -> None:
    if not 0 <= n_conv <= n_trials:
        problems.append(f"{where}: n_converged {n_conv} outside [0, {n_trials}]")
    if n_conv and not 1.0 <= mean <= max_epochs:
        problems.append(f"{where}: converged mean {mean} outside [1, {max_epochs}]")
    if not n_conv and not math.isnan(mean):
        problems.append(f"{where}: mean {mean} with no converged trial")


class Workload:
    """Base: a named workload with its config settings.

    ``pool_workers`` > 0 adds a call at that parallelism to the traced
    invocation, for the Pool metrics and the worker-count digest check.
    """

    name = ""
    why = ""
    pool_workers = 0
    settings: dict = {}
    toy_settings: dict = {}

    def prepare(self, seed: int, workdir: Path, toy: bool = False) -> Prepared:
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / f"{self.name}.cfg"
        _write_config(config_path, self.toy_settings if toy else self.settings)
        return Prepared(self, seed, workdir, config_path)

    def run(self, prep: Prepared, parallelism: int) -> int:
        """One call into spinsyn; returns its exit code (0 on success)."""
        raise NotImplementedError

    def check(self, prep: Prepared) -> Checked:
        raise NotImplementedError

    def fresh_out(self, prep: Prepared) -> None:
        shutil.rmtree(prep.out_dir, ignore_errors=True)
        prep.out_dir.mkdir(parents=True)


class _Training(Workload):
    subcommand = ""

    def run(self, prep: Prepared, parallelism: int) -> int:
        import spinsyn.cli as cli

        return cli.main([
            self.subcommand,
            "--config", str(prep.config_path),
            "--out", str(prep.out_dir),
            "--seed", str(prep.seed),
            "--parallelism", str(parallelism),
        ])

    def _experiment(self, prep: Prepared):
        import spinsyn.cli as cli

        return cli.parse_config(prep.config_path).experiment


class Compare(_Training):
    name = "compare"
    why = ("spinsyn compare, 2 x 10 trials at parallelism 1: the headline run, "
           "uneven trial lengths, all time in the per-presentation loop")
    subcommand = "compare"
    settings = {"harness.n_trials": 10, "harness.max_epochs": 1500}
    # a fast reward filter and a low goal let toy trials converge in a few epochs
    toy_settings = {
        "harness.n_trials": 3,
        "harness.max_epochs": 200,
        "harness.goal": 0.6,
        "harness.filter_keep": 0.95,
        "harness.filter_gain": 0.05,
    }

    def check(self, prep: Prepared) -> Checked:
        exp = self._experiment(prep)
        n_trials, max_epochs, batch = exp.n_trials, exp.max_epochs, exp.actor.batch_size
        out = Checked()
        problems = out.problems
        rows = _read_rows(prep.out_dir / "comparison.csv", "rule,mean,std,n_converged", problems)
        if rows and [row[0] for row in rows] != list(RULES):
            problems.append(f"comparison.csv: rules {[row[0] for row in rows]} != {list(RULES)}")
        for row in rows:
            try:
                mean, std, n_conv = float(row[1]), float(row[2]), int(row[3])
            except (ValueError, IndexError):
                problems.append(f"comparison.csv: malformed row {row}")
                continue
            _check_arm(f"comparison.csv {row[0]}", mean, n_conv, n_trials, max_epochs, problems)
            if n_conv > 1 and not std >= 0.0:
                problems.append(f"comparison.csv {row[0]}: std {std}")
            out.rules[row[0]] = _rule_counts(n_trials, max_epochs, mean, n_conv)
        stats = _read_rows(prep.out_dir / "stats.csv", "t,nu,p_one_sided,p_two_sided", problems)
        if stats:
            try:
                t, nu, p1, p2 = (float(v) for v in stats[0])
            except ValueError:
                problems.append(f"stats.csv: malformed row {stats[0]}")
            else:
                if not (math.isfinite(t) and nu > 0.0):
                    problems.append(f"stats.csv: t={t}, nu={nu}")
                if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
                    problems.append(f"stats.csv: p-values {p1}, {p2} outside [0, 1]")
        out.units = batch * sum(counts[2] for counts in out.rules.values())
        out.digest, out.csv_bytes = digest_csvs(prep.out_dir)
        return out


class Sweep(_Training):
    name = "sweep"
    why = ("spinsyn sweep, both rules x 18 rates x 2 trials x 20 epochs: equal trial "
           "lengths, 36 arms; the traced run adds parallelism 2 for Pool overhead")
    pool_workers = 2
    subcommand = "sweep"
    settings = {"harness.n_trials": 2, "harness.max_epochs": 20}
    toy_settings = {"harness.n_trials": 1, "harness.max_epochs": 3, "harness.lr_sweep_to": 0.45}

    def check(self, prep: Prepared) -> Checked:
        exp = self._experiment(prep)
        n_trials, max_epochs, batch = exp.n_trials, exp.max_epochs, exp.actor.batch_size
        n_points = int(math.floor((exp.lr_sweep_to - exp.lr_sweep_from) / exp.lr_sweep_step + 1e-9)) + 1
        grid = [exp.lr_sweep_from + k * exp.lr_sweep_step for k in range(n_points)]
        out = Checked()
        problems = out.problems
        rows = _read_rows(
            prep.out_dir / "sweep.csv", "rule,lr_hidden,mean_epochs,std_epochs,n_converged", problems
        )
        seen = []
        for row in rows:
            try:
                rule, lr, mean, n_conv = row[0], float(row[1]), float(row[2]), int(row[4])
            except (ValueError, IndexError):
                problems.append(f"sweep.csv: malformed row {row}")
                continue
            seen.append((rule, lr))
            _check_arm(f"sweep.csv {rule} {lr}", mean, n_conv, n_trials, max_epochs, problems)
            counts = _rule_counts(n_trials, max_epochs, mean, n_conv)
            total = out.rules.setdefault(rule, [0, 0, 0, 0])
            out.rules[rule] = [a + b for a, b in zip(total, counts)]
        expected = sorted((rule, round(lr, 9)) for rule in RULES for lr in grid)
        if sorted((rule, round(lr, 9)) for rule, lr in seen) != expected:
            problems.append(f"sweep.csv: (rule, lr) rows {sorted(seen)} are not "
                            f"{RULES} x the {n_points}-point grid")
        out.units = batch * sum(counts[2] for counts in out.rules.values())
        out.digest, out.csv_bytes = digest_csvs(prep.out_dir)
        return out


class DeviceMap(Workload):
    name = "device_map"
    why = ("pulse_map_sweep over a seeded 100 x 100 voltage x duration grid, 50 "
           "pulses per cell: the only workload that calls device")
    n_voltages = 100
    n_durations = 100
    n_pulses = 50

    def prepare(self, seed: int, workdir: Path, toy: bool = False) -> Prepared:
        prep = super().prepare(seed, workdir, toy)
        n_v, n_d = (6, 5) if toy else (self.n_voltages, self.n_durations)
        rng = np.random.default_rng(seed)
        # one uniform draw per stratum keeps the share of sub-threshold
        # voltages (which cost less per pulse) the same for every seed
        v_edges = np.linspace(-4.0, 4.0, n_v + 1)
        voltages = v_edges[:-1] + rng.random(n_v) * (v_edges[1] - v_edges[0])
        d_edges = np.linspace(math.log10(5e-4), math.log10(5e-2), n_d + 1)
        durations = 10.0 ** (d_edges[:-1] + rng.random(n_d) * (d_edges[1] - d_edges[0]))
        prep.grid = ([float(v) for v in voltages], [float(d) for d in durations], self.n_pulses)
        return prep

    def run(self, prep: Prepared, parallelism: int) -> int:
        import spinsyn.cli as cli
        import spinsyn.device as device

        voltages, durations, n_pulses = prep.grid
        loaded = cli.parse_config(prep.config_path)
        ratios = device.pulse_map_sweep(voltages, durations, n_pulses, loaded.device)
        cli.write_pulse_map_csv(prep.out_dir / "pulse_map.csv", voltages, durations, ratios)
        return 0

    def check(self, prep: Prepared) -> Checked:
        import spinsyn.cli as cli

        params = cli.parse_config(prep.config_path).device
        voltages, durations, n_pulses = prep.grid
        out = Checked()
        rows = _read_rows(prep.out_dir / "pulse_map.csv", "voltage_v,duration_s,onoff_ratio",
                          out.problems)
        expected_cells = [(v, t) for v in voltages for t in durations]
        if len(rows) != len(expected_cells):
            out.problems.append(f"pulse_map.csv: {len(rows)} cells, expected {len(expected_cells)}")
        for row, (v, t) in zip(rows, expected_cells):
            cv, ct, ratio = (float(x) for x in row)
            if cv != v or ct != t:
                out.problems.append(f"pulse_map.csv: cell ({cv}, {ct}) != ({v}, {t})")
                break
            err = abs(ratio - pulse_ratio_closed_form(v, t, n_pulses, params)) / abs(ratio)
            out.max_rel_err = max(out.max_rel_err, err)
        if out.max_rel_err > PULSE_MAP_RTOL:
            out.problems.append(
                f"pulse_map.csv: max relative error {out.max_rel_err:.3g} > {PULSE_MAP_RTOL}"
            )
        out.units = len(rows) * n_pulses
        out.digest, out.csv_bytes = digest_csvs(prep.out_dir)
        return out


def pulse_ratio_closed_form(voltage: float, duration: float, n_pulses: int, params) -> float:
    """final/initial conductance after n identical pulses, g_n = T + (g_0 - T)(1 - lam)^n."""
    g0 = params.g_min if voltage >= 0.0 else params.g_max
    excess = abs(voltage) - params.pulse_threshold_v
    if excess <= 0.0 or duration == 0.0:
        return 1.0
    lam = 1.0 - math.exp(-excess * duration / params.pulse_time_constant_tau)
    target = params.g_max if voltage > 0.0 else params.g_min
    return (target + (g0 - target) * (1.0 - lam) ** n_pulses) / g0


WORKLOADS = {w.name: w for w in (Compare(), Sweep(), DeviceMap())}
