"""Command-line front end: config files, experiment subcommands, CSV output.

Subcommands:

* ``train``      run one rule's trials, write learning_curve.csv
* ``sweep``      learning-rate sweep per rule, write sweep.csv
* ``compare``    linear vs power-law comparison, write comparison.csv + stats.csv
* ``device-map`` pulse-train on/off ratio grid, write pulse_map.csv

Every CSV is written as ASCII bytes to a file opened in binary mode, from
row templates filled with bytes %, so its lines end in a bare LF on every
platform.

Config files are flat ``section.key = value`` lines with ``#`` comments;
sections are device, actor, critic, harness, and each section's keys are
the int and float fields of SpinValveParams, ActorConfig, CriticConfig and
ExperimentConfig. Unknown and repeated keys are rejected with the
offending line number, and so is a key the subcommand does not read:
train, sweep and compare read actor, critic and harness, and device-map
reads device. Exit codes: 0 success, 1 runtime failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
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
    goal_floor_epoch,
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

# subcommand -> the sections it reads; parse_config rejects a key of any other
_TRAINING = ("actor", "critic", "harness")
_READS = {"train": _TRAINING, "sweep": _TRAINING, "compare": _TRAINING, "device-map": ("device",)}


def parse_config(path: str | Path | None, subcommand: str | None = None) -> LoadedConfig:
    """Load a config file; every omitted key keeps its default.

    path=None behaves like an empty file. Raises ConfigError for a missing
    file, a malformed line, an unknown or repeated key, a key of a section
    that subcommand (if given) does not read, an unparsable value, or any
    violated parameter invariant.
    """
    reads = _READS.get(subcommand, _SECTIONS)
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
            if section not in reads:
                raise ConfigError(f"line {lineno}: {subcommand} does not read key {key!r}")
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
# round-trips exactly. fmt and the writers' row templates all read it; the
# templates are encoded to ASCII bytes once and filled with bytes %, which
# renders the same digits as the str form.
FLOAT_FORMAT = "%.17g"


def fmt(x: float) -> str:
    """Render a float as FLOAT_FORMAT (17 significant digits, round-trip exact)."""
    return FLOAT_FORMAT % float(x)


def _write_csv(path: Path, header: str, blocks: Iterable[bytes]) -> None:
    """Write the header line, then each rendered block, as ASCII bytes to a
    file opened in binary mode: no text encoder and no newline translation,
    so every line ends in a bare LF on every platform."""
    # blocks run to a few KiB (a trial, a voltage row): a 64 KiB buffer
    # passes them to the OS in a few large writes rather than one per block
    with path.open("wb", buffering=1 << 16) as f:
        f.write(header.encode("ascii") + b"\n")
        f.writelines(blocks)


def _curve_block(t_idx: int, res: TrialResult) -> bytes:
    """One trial's rows, rendered by one template over its interleaved
    (epoch, raw, filtered) values."""
    n = len(res.raw_curve)
    # float epoch numbers are exact integers, which %d renders as ints
    cells = np.column_stack((np.arange(1, n + 1), res.raw_curve, res.filtered_curve))
    row = f"{t_idx},%d,{FLOAT_FORMAT},{FLOAT_FORMAT}\n".encode("ascii")
    return (row * n) % tuple(cells.ravel().tolist())


def write_learning_curve_csv(path: Path, results: list[TrialResult]) -> None:
    """One row per (trial, epoch), trials and epochs 1-indexed, written one
    block per trial."""
    for t_idx, res in enumerate(results, start=1):
        if len(res.raw_curve) != len(res.filtered_curve):
            raise ValueError(
                f"trial {t_idx}: raw curve has {len(res.raw_curve)} epochs, "
                f"filtered curve {len(res.filtered_curve)}"
            )
    _write_csv(
        path,
        "trial,epoch,raw_reward,filtered_reward",
        (_curve_block(t_idx, res) for t_idx, res in enumerate(results, start=1)),
    )


def write_sweep_csv(path: Path, sweeps: list[SweepResult]) -> None:
    row = f"%b,{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%d\n".encode("ascii")
    _write_csv(
        path,
        "rule,lr_hidden,mean_epochs,std_epochs,n_converged",
        (
            row % (p.rule.value.encode("ascii"), p.lr_hidden, p.mean, p.std, p.n_converged)
            for sweep in sweeps
            for p in sweep.points
        ),
    )


def write_comparison_csv(path: Path, report: ComparisonReport) -> None:
    row = f"%b,{FLOAT_FORMAT},{FLOAT_FORMAT},%d\n".encode("ascii")
    _write_csv(
        path,
        "rule,mean,std,n_converged",
        (
            row % (summary.rule.value.encode("ascii"), summary.mean, summary.std,
                   summary.n_converged)
            for summary in (report.powerlaw, report.linear)
        ),
    )


def write_stats_csv(path: Path, report: ComparisonReport) -> None:
    welch = report.welch
    row = ",".join([FLOAT_FORMAT] * 4).encode("ascii") + b"\n"
    _write_csv(
        path,
        "t,nu,p_one_sided,p_two_sided",
        [row % (welch.t, welch.nu, welch.p_one_sided, welch.p_two_sided)],
    )


def write_pulse_map_csv(
    path: Path, voltages: list[float], durations: list[float], ratios: np.ndarray
) -> None:
    """One row per (voltage, duration) cell, voltage-major, written one
    block per voltage row.

    A row's template is built from the pre-formatted durations. A row whose
    ratios are all exactly 1.0 (every sub-threshold voltage) is joined from
    duration suffixes rendered once with its ratio, so it formats no float."""
    expected = (len(voltages), len(durations))
    if ratios.shape != expected:
        raise ValueError(
            f"ratios has shape {ratios.shape}, expected {expected} (voltages, durations)"
        )
    suffixes = [f",{fmt(t)},{FLOAT_FORMAT}\n".encode("ascii") for t in durations]
    ones = [f",{fmt(t)},{fmt(1.0)}\n".encode("ascii") for t in durations]

    def blocks() -> Iterator[bytes]:
        if not durations:  # an empty template would render the bare voltage
            return
        all_ones = (ratios == 1.0).all(axis=1).tolist()
        for v, row, row_all_ones in zip(voltages, ratios.tolist(), all_ones):
            v_text = fmt(v).encode("ascii")
            if row_all_ones:
                yield v_text + v_text.join(ones)
            else:
                yield (v_text + v_text.join(suffixes)) % tuple(row)

    _write_csv(path, "voltage_v,duration_s,onoff_ratio", blocks())


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
    for name in _READS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        if name == "device-map":  # runs no trials: no seed, one process
            p.set_defaults(seed=None, parallelism=1)
            continue
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--parallelism", type=int, default=1, help="trial worker count, at most one per CPU"
        )
        if name in ("train", "sweep"):
            p.add_argument(
                "--rule",
                choices=[r.value for r in UpdateRule],
                default=UpdateRule.POWER_LAW.value if name == "train" else None,
                help="update rule (train default: powerlaw, sweep default: both)",
            )
    return parser


def run_cli(args: argparse.Namespace) -> int:
    loaded = parse_config(args.config, args.subcommand)
    # --seed replaces a config field, so ExperimentConfig checks it
    overrides = {} if args.seed is None else {"master_seed": args.seed}
    try:
        config = replace(loaded.experiment, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {args.parallelism}")

    if args.subcommand == "compare" and config.n_trials < 2:
        raise ConfigError(f"compare needs harness.n_trials >= 2, got {config.n_trials}")
    # a reward filter that cannot reach the goal by max_epochs, even when
    # every presentation is rewarded, leaves compare no converged trial
    if args.subcommand == "compare" and goal_floor_epoch(config) is None:
        raise ConfigError(
            f"compare needs harness.max_epochs >= the first epoch at which the reward "
            f"filter can reach harness.goal = {config.goal:g}; no trial can reach it "
            f"within {config.max_epochs}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.subcommand == "train":
        rule = UpdateRule(args.rule)
        results = run_trials(config, [(rule, config.lr_for(rule))], parallelism=args.parallelism)
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
