"""Command-line front end: config files, experiment subcommands, CSV output.

Subcommands:

* ``train``      run one rule's trials, write learning_curve.csv
* ``sweep``      learning-rate sweep per rule, write sweep.csv
* ``compare``    linear vs power-law comparison, write comparison.csv + stats.csv
* ``device-map`` pulse-train on/off ratio grid, write pulse_map.csv

Config files are flat ``section.key = value`` lines with ``#`` comments;
sections are device, actor, critic, env, harness. Unknown keys are
rejected with the offending line number. Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actor import ActorConfig, BiasUpdate, GradientProbability, UpdateRule
from .critic import CriticConfig
from .device import SpinValveParams, pulse_map_sweep
from .env import Presentation
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


def _parse_bool(raw: str) -> bool:
    try:
        return {"true": True, "false": False}[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


# section.key -> (target dataclass kwargs bucket, field name, parser kind).
# The parser kind is called on the raw text and raises ValueError on bad
# input, NaN and infinities included; enum classes parse their .value strings. Layer input and output
# sizes have no key: XOR fixes them. Each arm's rate lives under harness.
_SCHEMA = {
    "device.g_min": ("device", "g_min", _parse_float),
    "device.g_max": ("device", "g_max", _parse_float),
    "device.g_th": ("device", "g_th", _parse_float),
    "device.mg_max": ("device", "mg_max", _parse_float),
    "device.mg_exponent": ("device", "mg_exponent", _parse_float),
    "device.pulse_threshold_v": ("device", "pulse_threshold_v", _parse_float),
    "device.pulse_time_constant_tau": ("device", "pulse_time_constant_tau", _parse_float),
    "actor.n_hidden": ("actor", "n_hidden", int),
    "actor.alpha_flip": ("actor", "alpha_flip", _parse_float),
    "actor.batch_size": ("actor", "batch_size", int),
    "actor.dw_min": ("actor", "dw_min", _parse_float),
    "actor.power_exponent": ("actor", "power_exponent", _parse_float),
    "actor.gradient_probability": ("actor", "gradient_probability", GradientProbability),
    "actor.bias_update": ("actor", "bias_update", BiasUpdate),
    "actor.carry_subthreshold": ("actor", "carry_subthreshold", _parse_bool),
    "critic.n_hidden": ("critic", "n_hidden", int),
    "critic.lr": ("critic", "lr", _parse_float),
    "critic.l1_coeff": ("critic", "l1_coeff", _parse_float),
    "env.presentation": ("harness", "presentation", Presentation),
    "harness.n_trials": ("harness", "n_trials", int),
    "harness.max_epochs": ("harness", "max_epochs", int),
    "harness.goal": ("harness", "goal", _parse_float),
    "harness.filter_keep": ("harness", "filter_keep", _parse_float),
    "harness.filter_gain": ("harness", "filter_gain", _parse_float),
    "harness.filter_init": ("harness", "filter_init", _parse_float),
    "harness.lr_sweep_from": ("harness", "lr_sweep_from", _parse_float),
    "harness.lr_sweep_to": ("harness", "lr_sweep_to", _parse_float),
    "harness.lr_sweep_step": ("harness", "lr_sweep_step", _parse_float),
    "harness.lr_powerlaw": ("harness", "lr_powerlaw", _parse_float),
    "harness.lr_linear": ("harness", "lr_linear", _parse_float),
    "harness.master_seed": ("harness", "master_seed", int),
}

_LINE_RE = re.compile(r"^([a-z_]+)\.([a-z_0-9]+)\s*=\s*(.*)$")


def parse_config(path: str | Path | None) -> LoadedConfig:
    """Load a config file; every omitted key keeps its default.

    path=None behaves like an empty file. Raises ConfigError for a missing
    file, a malformed line, an unknown key, an unparsable value, or any
    violated parameter invariant.
    """
    buckets: dict[str, dict] = {"device": {}, "actor": {}, "critic": {}, "harness": {}}
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
            key = f"{m.group(1)}.{m.group(2)}"
            if key not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            bucket, field, kind = _SCHEMA[key]
            raw = m.group(3).strip()
            try:
                buckets[bucket][field] = kind(raw)
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


def fmt(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_learning_curve_csv(path: Path, results: list[TrialResult]) -> None:
    """One row per (trial, epoch), trials and epochs 1-indexed."""
    lines = ["trial,epoch,raw_reward,filtered_reward"]
    for t_idx, res in enumerate(results, start=1):
        for e_idx, (raw, filt) in enumerate(
            zip(res.raw_curve, res.filtered_curve), start=1
        ):
            lines.append(f"{t_idx},{e_idx},{fmt(raw)},{fmt(filt)}")
    _write_text(path, lines)


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
    lines = ["voltage_v,duration_s,onoff_ratio"]
    for i, v in enumerate(voltages):
        for j, t in enumerate(durations):
            lines.append(f"{fmt(v)},{fmt(t)},{fmt(ratios[i, j])}")
    _write_text(path, lines)


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

    if args.subcommand == "train":
        rule = UpdateRule(args.rule)
        lr = args.lr if args.lr is not None else config.lr_for(rule)
        if not 0 < lr < math.inf:
            raise ConfigError(f"--lr must be finite and > 0, got {lr}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.subcommand == "train":
        results = run_trials(config, rule, lr, parallelism=args.parallelism)
        write_learning_curve_csv(out / "learning_curve.csv", results)
    elif args.subcommand == "sweep":
        rules = [UpdateRule(args.rule)] if args.rule else list(UpdateRule)
        sweeps = [
            lr_sweep(config, rule, parallelism=args.parallelism) for rule in rules
        ]
        write_sweep_csv(out / "sweep.csv", sweeps)
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
