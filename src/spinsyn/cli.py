"""Command-line front end: config files, experiment subcommands, CSV output.

Subcommands:

* ``train``      run one rule's trials, write learning_curve.csv
* ``sweep``      learning-rate sweep per rule, write sweep.csv
* ``compare``    linear vs power-law comparison, write comparison.csv + stats.csv
* ``device-map`` pulse-train on/off ratio grid, write pulse_map.csv

Config files are flat ``section.key = value`` lines with ``#`` comments;
sections are device, actor, critic, harness, and each section's keys are
the int and float fields of SpinValveParams, ActorConfig, CriticConfig and
ExperimentConfig. Unknown and repeated keys are rejected with the
offending line number. Exit codes: 0 success, 1 runtime failure, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .actor import ActorConfig, UpdateRule
from .critic import CriticConfig
from .device import SpinValveParams, pulse_map_sweep
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    SweepResult,
    TrialResult,
    compare_rules,
    lr_sweep,
    run_trials,
)


class ConfigError(Exception):
    """Invalid config file or invalid option combination (exit code 2)."""


@dataclass
class LoadedConfig:
    """Everything a config file describes: experiment plus device constants."""

    experiment: ExperimentConfig
    device: SpinValveParams


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# section -> the config dataclass it sets: each int or float field is a key
# section.field. Other fields (update_rule, the nested configs) have none,
# and XOR fixes the layer input and output sizes, which are not fields.
_SECTIONS = {
    "device": SpinValveParams,
    "actor": ActorConfig,
    "critic": CriticConfig,
    "harness": ExperimentConfig,
}
# The config modules postpone annotations, so a field's type is its text.
_PARSERS = {"int": int, "float": _parse_float}
# section.field -> parser. A parser is called on the raw text and raises
# ValueError on bad input, NaN and infinities included.
_SCHEMA = {
    f"{section}.{f.name}": _PARSERS[f.type]
    for section, target in _SECTIONS.items()
    for f in fields(target)
    if f.type in _PARSERS
}

_LINE_RE = re.compile(r"^([a-z_]+)\.([a-z_0-9]+)\s*=\s*(.*)$")


def parse_config(path: str | Path | None) -> LoadedConfig:
    """Load a config file; every omitted key keeps its default.

    path=None behaves like an empty file. Raises ConfigError for a missing
    file, a malformed line, an unknown or repeated key, an unparsable
    value, or any violated parameter invariant.
    """
    buckets: dict[str, dict] = {section: {} for section in _SECTIONS}
    first_line: dict[str, int] = {}  # key -> the line that set it
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, rawline in enumerate(text.splitlines(), start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            m = _LINE_RE.match(line)
            if m is None:
                raise ConfigError(
                    f"line {lineno}: expected 'section.key = value', got {rawline.strip()!r}"
                )
            section, name, raw = m.groups()
            key = f"{section}.{name}"
            if key not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in first_line:
                raise ConfigError(
                    f"line {lineno}: key {key!r} repeats line {first_line[key]}"
                )
            first_line[key] = lineno
            try:
                buckets[section][name] = _SCHEMA[key](raw)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: invalid value {raw!r} for {key}"
                ) from None
    try:
        device = SpinValveParams(**buckets["device"])
        actor = ActorConfig(**buckets["actor"])
        critic = CriticConfig(**buckets["critic"])
        experiment = ExperimentConfig(actor=actor, critic=critic, **buckets["harness"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedConfig(experiment=experiment, device=device)


# Every number in every CSV: 17 significant digits, so each value
# round-trips exactly. fmt and the row templates below both read it.
FLOAT_FORMAT = "%.17g"


def fmt(x: float) -> str:
    """Render a float as FLOAT_FORMAT (17 significant digits, round-trip exact)."""
    return FLOAT_FORMAT % float(x)


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_learning_curve_csv(path: Path, results: list[TrialResult]) -> None:
    """One row per (trial, epoch), trials and epochs 1-indexed.

    Each trial is rendered by one %-template over its interleaved
    (epoch, raw, filtered) values and written as one block."""
    for t_idx, res in enumerate(results, start=1):
        if len(res.raw_curve) != len(res.filtered_curve):
            raise ValueError(
                f"trial {t_idx}: raw curve has {len(res.raw_curve)} epochs, "
                f"filtered curve {len(res.filtered_curve)}"
            )
    with path.open("w") as f:
        f.write("trial,epoch,raw_reward,filtered_reward\n")
        for t_idx, res in enumerate(results, start=1):
            n = len(res.raw_curve)
            # float epoch numbers are exact integers, which %d renders as ints
            cells = np.column_stack((np.arange(1, n + 1), res.raw_curve, res.filtered_curve))
            row = f"{t_idx},%d,{FLOAT_FORMAT},{FLOAT_FORMAT}\n"
            f.write((row * n) % tuple(cells.ravel().tolist()))


def write_sweep_csv(path: Path, sweeps: list[SweepResult]) -> None:
    lines = ["rule,lr_hidden,mean_epochs,std_epochs,n_converged"]
    for sweep in sweeps:
        for p in sweep.points:
            lines.append(
                f"{p.rule.value},{fmt(p.lr_hidden)},{fmt(p.mean_epochs)},"
                f"{fmt(p.std_epochs)},{p.n_converged}"
            )
    _write_text(path, lines)


def write_comparison_csv(path: Path, report: ComparisonReport) -> None:
    lines = ["rule,mean,std,n_converged"]
    for summary in (report.powerlaw, report.linear):
        lines.append(
            f"{summary.rule.value},{fmt(summary.mean)},{fmt(summary.std)},"
            f"{summary.n_converged}"
        )
    _write_text(path, lines)


def write_stats_csv(path: Path, report: ComparisonReport) -> None:
    _write_text(
        path,
        [
            "t,nu,p_one_sided,p_two_sided",
            f"{fmt(report.t)},{fmt(report.nu)},{fmt(report.p_one_sided)},"
            f"{fmt(report.p_two_sided)}",
        ],
    )


def write_pulse_map_csv(
    path: Path, voltages: list[float], durations: list[float], ratios: np.ndarray
) -> None:
    """One row per (voltage, duration) cell, voltage-major.

    Each voltage row is rendered by one %-template, built from the
    pre-formatted durations, and written as one block."""
    expected = (len(voltages), len(durations))
    if ratios.shape != expected:
        raise ValueError(
            f"ratios has shape {ratios.shape}, expected {expected} (voltages, durations)"
        )
    suffixes = [f",{fmt(t)},{FLOAT_FORMAT}\n" for t in durations]
    with path.open("w") as f:
        f.write("voltage_v,duration_s,onoff_ratio\n")
        if not suffixes:  # an empty template would render the bare voltage
            return
        for v, row in zip(voltages, ratios.tolist()):
            v_text = fmt(v)
            f.write((v_text + v_text.join(suffixes)) % tuple(row))


# Default device-map protocol: both polarities around the measured pulse
# parameters, 50 pulses per cell (sub-threshold rows stay at ratio 1).
DEVICE_MAP_VOLTAGES = [round(-4.0 + 0.5 * k, 10) for k in range(17)]
DEVICE_MAP_DURATIONS = [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05]
DEVICE_MAP_PULSES = 50


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsyn",
        description="Spin-valve synapse simulator and XOR learning benchmark",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("train", "sweep", "compare", "device-map"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        if name == "device-map":  # runs no trials: no seed, one process
            p.set_defaults(seed=None, parallelism=1)
            continue
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--parallelism", type=int, default=1, help="trial worker count"
        )
        if name in ("train", "sweep"):
            p.add_argument(
                "--rule",
                choices=[r.value for r in UpdateRule],
                default=UpdateRule.POWER_LAW.value if name == "train" else None,
                help="update rule (train default: powerlaw, sweep default: both)",
            )
        if name == "train":
            p.add_argument(
                "--lr", type=float, default=None, help="hidden-layer learning rate"
            )
    return parser


def run_cli(args: argparse.Namespace) -> int:
    loaded = parse_config(args.config)
    config = loaded.experiment
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config.master_seed = args.seed
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {args.parallelism}")

    if args.subcommand == "compare" and config.n_trials < 2:
        raise ConfigError(f"compare needs harness.n_trials >= 2, got {config.n_trials}")
    if args.subcommand == "train":
        rule = UpdateRule(args.rule)
        lr = args.lr if args.lr is not None else config.lr_for(rule)
        if not 0 < lr < math.inf:
            raise ConfigError(f"--lr must be finite and > 0, got {lr}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.subcommand == "train":
        results = run_trials(config, [(rule, lr)], parallelism=args.parallelism)
        write_learning_curve_csv(out / "learning_curve.csv", results)
    elif args.subcommand == "sweep":
        rules = [UpdateRule(args.rule)] if args.rule else list(UpdateRule)
        sweeps = lr_sweep(config, rules, parallelism=args.parallelism)
        write_sweep_csv(out / "sweep.csv", sweeps)
        for sweep in sweeps:
            if sweep.best_on_edge:
                print(
                    f"spinsyn: warning: {sweep.rule.value} best_lr {sweep.best_lr:g} lies on "
                    f"an edge of the grid {sweep.points[0].lr_hidden:g}.."
                    f"{sweep.points[-1].lr_hidden:g}; the best rate may lie outside it",
                    file=sys.stderr,
                )
    elif args.subcommand == "compare":
        report = compare_rules(config, parallelism=args.parallelism)
        write_comparison_csv(out / "comparison.csv", report)
        write_stats_csv(out / "stats.csv", report)
    else:  # device-map
        ratios = pulse_map_sweep(
            DEVICE_MAP_VOLTAGES, DEVICE_MAP_DURATIONS, DEVICE_MAP_PULSES, loaded.device
        )
        write_pulse_map_csv(
            out / "pulse_map.csv", DEVICE_MAP_VOLTAGES, DEVICE_MAP_DURATIONS, ratios
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return run_cli(args)
    except ConfigError as exc:
        print(f"spinsyn: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: I/O, statistics, ...
        print(f"spinsyn: failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
