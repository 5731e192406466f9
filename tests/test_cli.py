import hashlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from spinsyn import cli, harness
from spinsyn.actor import ActorConfig, UpdateRule
from spinsyn.cli import (
    _SCHEMA,
    ConfigError,
    fmt,
    main,
    parse_config,
    write_comparison_csv,
    write_learning_curve_csv,
    write_pulse_map_csv,
    write_stats_csv,
    write_sweep_csv,
)
from spinsyn.critic import CriticConfig
from spinsyn.device import SpinValveParams
from spinsyn.harness import (
    ComparisonReport,
    ExperimentConfig,
    RuleSummary,
    SweepResult,
    TrialResult,
    WelchResult,
)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def per_cell_csv(header, rows):
    """The bytes of a CSV rendered cell by cell: the oracle of the writers,
    which render whole rows or blocks from templates."""
    return ("\n".join([header] + [",".join(row) for row in rows]) + "\n").encode()


def summary_cells(rule, lr_hidden, mean, std, n_converged):
    """A stand-in for a RuleSummary with the cells a writer reads, which may
    hold values that no list of epochs gives (a subnormal mean, np.float64)."""
    return SimpleNamespace(rule=rule, lr_hidden=lr_hidden, mean=mean, std=std,
                           n_converged=n_converged)


SMALL_EXPERIMENT = """
harness.n_trials = 2
harness.max_epochs = 30
harness.master_seed = 7
"""


class TestParseConfig:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        loaded = parse_config(write_config(tmp_path, ""))
        cfg = loaded.experiment
        assert cfg.actor.n_hidden == 10
        assert cfg.critic.n_hidden == 20
        assert cfg.goal == 0.975
        assert cfg.actor.alpha_flip == 0.1
        assert cfg.actor.dw_min == 0.4
        assert cfg.actor.power_exponent == 1.75
        assert cfg.actor.batch_size == 10
        assert cfg.n_trials == 50
        assert cfg.max_epochs == 10000
        assert (cfg.lr_powerlaw, cfg.lr_linear) == (1.1, 0.75)
        assert loaded.device.g_max == 8.9e-5

    def test_no_path_behaves_like_empty_file(self):
        assert parse_config(None).experiment.goal == 0.975

    def test_values_parsed_and_applied(self, tmp_path):
        loaded = parse_config(
            write_config(
                tmp_path,
                """
# comment line
actor.alpha_flip = 0.2   # inline comment
harness.master_seed = 31
device.g_th = 2e-6
""",
            )
        )
        cfg = loaded.experiment
        assert cfg.actor.alpha_flip == 0.2
        assert cfg.master_seed == 31
        assert loaded.device.g_th == 2e-6

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config(write_config(tmp_path, "\nactor.bogus = 1\n"))

    def test_repeated_key_rejected_with_both_line_numbers(self, tmp_path):
        cfg = write_config(tmp_path, "harness.n_trials = 2\n# comment\nharness.n_trials = 3\n")
        with pytest.raises(ConfigError, match="line 3: key 'harness.n_trials' repeats line 1"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write_config(tmp_path, "just some words\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1.*invalid value"):
            parse_config(write_config(tmp_path, "actor.n_hidden = ten\n"))

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha_flip"):
            parse_config(write_config(tmp_path, "actor.alpha_flip = 1.5\n"))

    def test_device_invariant_violation_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="g_min"):
            parse_config(write_config(tmp_path, "device.g_min = 1.0\n"))

    # NaN compares false against every bound, so a range check written as
    # "x <= 0" would let it through; the parser rejects it first
    @pytest.mark.parametrize(
        "line",
        [
            "critic.lr = nan",
            "critic.l1_coeff = inf",
            "actor.dw_min = nan",
            "actor.power_exponent = inf",
            "harness.lr_linear = nan",
            "harness.filter_keep = nan",
            "device.pulse_threshold_v = nan",
            "device.mg_max = nan",
            "harness.lr_sweep_step = nan",
            "harness.lr_sweep_to = inf",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, line):
        cfg = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match="line 1.*invalid value"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    # XOR fixes these sizes, the run derives or takes elsewhere these values
    # (harness.lr_*, --rule), the actor's update semantics are fixed, and
    # inputs are always drawn at random, so each key fails at load time
    @pytest.mark.parametrize(
        "line",
        [
            "actor.lr_hidden = 0.3",
            "actor.lr_out = 0.01",
            "actor.update_rule = linear",
            "critic.batch_size = 1",
            "actor.n_in = 3",
            "critic.n_in = 3",
            "actor.n_out = 2",
            "actor.gradient_probability = sigmoid",
            "actor.bias_update = thresholded",
            "actor.carry_subthreshold = true",
            "env.presentation = cyclic",
            "env.presentation = uniform",
        ],
    )
    def test_removed_key_rejected(self, tmp_path, line):
        cfg = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


class TestSchema:
    # every int and float field of the four config dataclasses is a key; a
    # new field changes the file format, so it must be added here
    KEYS = {
        "device.g_min": float,
        "device.g_max": float,
        "device.g_th": float,
        "device.mg_max": float,
        "device.mg_exponent": float,
        "device.pulse_threshold_v": float,
        "device.pulse_time_constant_tau": float,
        "actor.n_hidden": int,
        "actor.alpha_flip": float,
        "actor.batch_size": int,
        "actor.dw_min": float,
        "actor.power_exponent": float,
        "critic.n_hidden": int,
        "critic.lr": float,
        "critic.l1_coeff": float,
        "harness.n_trials": int,
        "harness.max_epochs": int,
        "harness.goal": float,
        "harness.filter_keep": float,
        "harness.filter_gain": float,
        "harness.filter_init": float,
        "harness.lr_sweep_from": float,
        "harness.lr_sweep_to": float,
        "harness.lr_sweep_step": float,
        "harness.lr_powerlaw": float,
        "harness.lr_linear": float,
        "harness.master_seed": int,
    }

    def test_key_set_and_parsers_are_pinned(self):
        parsers = {int: int, float: cli._parse_float}
        assert _SCHEMA == {key: parsers[kind] for key, kind in self.KEYS.items()}

    @pytest.mark.parametrize("subcommand", [None, "train", "sweep", "compare", "device-map"])
    def test_each_subcommand_accepts_every_key_it_reads(self, tmp_path, subcommand):
        # every key of the sections read, each set to its default: all 27
        # without a subcommand (as perfbench calls parse_config), the 20
        # actor, critic and harness keys for training, the 7 device keys
        # for device-map
        defaults = {"device": SpinValveParams(), "actor": ActorConfig(),
                    "critic": CriticConfig(), "harness": ExperimentConfig()}
        sections = {None: defaults, "device-map": ["device"]}.get(
            subcommand, ["actor", "critic", "harness"])
        keys = [key.split(".") for key in self.KEYS if key.split(".")[0] in sections]
        assert len(keys) == {None: 27, "device-map": 7}.get(subcommand, 20)
        text = "".join(f"{section}.{name} = {getattr(defaults[section], name)!r}\n"
                       for section, name in keys)
        assert parse_config(write_config(tmp_path, text), subcommand) == parse_config(None)


class TestNumberFormat:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(0)
        for x in list(rng.uniform(-1e6, 1e6, 200)) + [0.1, 1 / 3, 1e-300, math.pi]:
            assert float(fmt(x)) == x

    def test_locale_independent_forms(self):
        assert "," not in fmt(1234567.89)
        assert fmt(0.5) == "0.5"
        assert fmt(float("nan")) == "nan"

    @pytest.mark.parametrize(
        "x",
        [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
         0.1, 1 / 3, np.float64(0.1), np.float64(-0.0), np.float64(5e-324)],
    )
    def test_fmt_matches_the_row_templates(self, x):
        # fmt and the templates of the large writers share one format
        assert cli.FLOAT_FORMAT == "%.17g"
        assert fmt(x) == cli.FLOAT_FORMAT % x == format(float(x), ".17g")


class TestCsvWriters:
    def test_learning_curve_row_count_and_round_trip(self, tmp_path):
        results = [
            TrialResult(
                filtered_curve=np.array([0.5, 0.6, 0.7]),
                raw_curve=np.array([0.4, 0.9, 1.0]),
                epochs_to_goal=None,
                seed=1,
            ),
            TrialResult(
                filtered_curve=np.array([0.51, 0.52, 0.99]),
                raw_curve=np.array([0.5, 0.5, 1.0]),
                epochs_to_goal=3,
                seed=2,
            ),
        ]
        path = tmp_path / "learning_curve.csv"
        write_learning_curve_csv(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,epoch,raw_reward,filtered_reward"
        assert len(lines) == 1 + 2 * 3
        # round trip: parsed floats equal the in-memory values exactly
        for line in lines[1:]:
            trial, epoch, raw, filt = line.split(",")
            res = results[int(trial) - 1]
            assert float(raw) == res.raw_curve[int(epoch) - 1]
            assert float(filt) == res.filtered_curve[int(epoch) - 1]

    @pytest.mark.parametrize("ones_rows", ["none", "one", "all"])
    def test_pulse_map_bytes_match_per_cell_rendering(self, tmp_path, ones_rows):
        rng = np.random.default_rng(3)
        voltages = [0.0] + list(rng.uniform(-4.0, 4.0, 12))
        durations = [0.0] + list(10.0 ** rng.uniform(-4.0, -1.0, 10))
        ratios = rng.uniform(0.0, 140.0, (13, 11))
        # rows whose ratios are all 1.0 are written from a cached line
        if ones_rows == "none":
            ratios[0, :-1] = 1.0  # all ones but the last cell
        elif ones_rows == "one":
            ratios[0] = 1.0
        else:
            ratios[:] = 1.0
        # per-cell rendering of the writer before it formatted row by row
        lines = ["voltage_v,duration_s,onoff_ratio"]
        for i, v in enumerate(voltages):
            for j, t in enumerate(durations):
                lines.append(f"{fmt(v)},{fmt(t)},{fmt(ratios[i, j])}")
        path = tmp_path / "pulse_map.csv"
        write_pulse_map_csv(path, voltages, durations, ratios)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["missing_row", "missing_column"])
    def test_pulse_map_shape_mismatch_raises_before_writing(self, tmp_path, shape):
        path = tmp_path / "pulse_map.csv"
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (3, 3)")):
            write_pulse_map_csv(path, [-1.0, 0.0, 1.0], [1e-3, 1e-2, 1e-1], np.ones(shape))
        assert not path.exists()

    @pytest.mark.parametrize("voltages, durations", [([1.0], []), ([], [1e-3])])
    def test_pulse_map_of_an_empty_axis_is_the_header(self, tmp_path, voltages, durations):
        path = tmp_path / "pulse_map.csv"
        write_pulse_map_csv(path, voltages, durations, np.ones((len(voltages), len(durations))))
        assert path.read_text() == "voltage_v,duration_s,onoff_ratio\n"

    def test_learning_curve_bytes_match_per_cell_rendering(self, tmp_path):
        rng = np.random.default_rng(5)
        specials = [0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3]
        results = []
        for seed, n in enumerate([7, 1, 0, 40], start=1):
            raw, filt = rng.random(n), rng.random(n)
            raw[: len(specials)] = specials[:n]
            filt[::-1][: len(specials)] = specials[:n]
            results.append(TrialResult(filt, raw, None, seed))
        # per-cell rendering of the writer before it formatted trial by trial
        lines = ["trial,epoch,raw_reward,filtered_reward"]
        for t_idx, res in enumerate(results, start=1):
            for e_idx in range(len(res.raw_curve)):
                raw, filt = res.raw_curve[e_idx], res.filtered_curve[e_idx]
                lines.append(f"{t_idx},{e_idx + 1},{fmt(raw)},{fmt(filt)}")
        path = tmp_path / "learning_curve.csv"
        write_learning_curve_csv(path, results)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_unequal_learning_curves_raise_before_writing(self, tmp_path):
        good = TrialResult(np.array([0.5, 0.6]), np.array([0.4, 0.9]), None, 1)
        short = TrialResult(np.array([0.5, 0.6, 0.7]), np.array([0.4, 0.9]), None, 2)
        path = tmp_path / "learning_curve.csv"
        with pytest.raises(ValueError, match="trial 2"):
            write_learning_curve_csv(path, [good, short])
        assert not path.exists()


    def test_sweep_bytes_match_per_cell_rendering(self, tmp_path):
        nan = math.nan
        # a sweep where no trial converged has NaN mean and std on every row
        stalled = [RuleSummary(UpdateRule.LINEAR, lr, [None, None]) for lr in (0.4, 0.45)]
        mixed = [
            RuleSummary(UpdateRule.POWER_LAW, 0.1 + 0.2, [300, 325]),
            summary_cells(UpdateRule.POWER_LAW, np.float64(1 / 3), np.float64(40.0), nan, 1),
            summary_cells(UpdateRule.POWER_LAW, 1.25, 5e-324, 0.0, 3),
        ]
        sweeps = [SweepResult(UpdateRule.LINEAR, stalled, 0.4),
                  SweepResult(UpdateRule.POWER_LAW, mixed, 1.25)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweeps)
        rows = [
            [p.rule.value, fmt(p.lr_hidden), fmt(p.mean), fmt(p.std), str(p.n_converged)]
            for sweep in sweeps
            for p in sweep.points
        ]
        assert path.read_bytes() == per_cell_csv(
            "rule,lr_hidden,mean_epochs,std_epochs,n_converged", rows
        )
        assert path.read_bytes().count(b"nan,nan,0\n") == 2

    def comparison_report(self):
        powerlaw = RuleSummary(UpdateRule.POWER_LAW, 1.1, [900, 1200, None])
        linear = summary_cells(UpdateRule.LINEAR, 0.75, np.float64(1300.0), np.float64(300.0), 3)
        welch = WelchResult(t=-1.1180339887498949, nu=np.float64(2.9411764705882355),
                            p_two_sided=0.343, p_one_sided=0.1715)
        return ComparisonReport(powerlaw=powerlaw, linear=linear, welch=welch)

    def test_comparison_bytes_match_per_cell_rendering(self, tmp_path):
        report = self.comparison_report()
        path = tmp_path / "comparison.csv"
        write_comparison_csv(path, report)
        rows = [
            [s.rule.value, fmt(s.mean), fmt(s.std), str(s.n_converged)]
            for s in (report.powerlaw, report.linear)
        ]
        assert path.read_bytes() == per_cell_csv("rule,mean,std,n_converged", rows)

    def test_stats_bytes_match_per_cell_rendering(self, tmp_path):
        report = self.comparison_report()
        path = tmp_path / "stats.csv"
        write_stats_csv(path, report)
        welch = report.welch
        row = [fmt(welch.t), fmt(welch.nu), fmt(welch.p_one_sided), fmt(welch.p_two_sided)]
        assert path.read_bytes() == per_cell_csv("t,nu,p_one_sided,p_two_sided", [row])


class TestCliCommands:
    def test_train_writes_learning_curve(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "out"
        code = main(
            ["train", "--config", str(cfg), "--out", str(out), "--rule", "linear"]
        )
        assert code == 0
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "trial,epoch,raw_reward,filtered_reward"
        filtered = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in filtered)

    def test_train_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "learning_curve.csv").read_bytes() == (
            out_b / "learning_curve.csv"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(cfg), "--out", str(out_a), "--seed", "1"])
        main(["train", "--config", str(cfg), "--out", str(out_b), "--seed", "2"])
        assert (out_a / "learning_curve.csv").read_bytes() != (
            out_b / "learning_curve.csv"
        ).read_bytes()

    @pytest.mark.parametrize("rule", [r.value for r in UpdateRule])
    def test_lr_flag_sets_the_rules_config_rate(self, tmp_path, rule):
        # harness.lr_<rule> alone sets the trained arm's rate. The rate
        # enters every trial's seed, so a run at any other rate (the other
        # rule's, or the default) would give other curves than the arm
        # (rule, 0.9) run through the library
        cfg = write_config(tmp_path, SMALL_EXPERIMENT + f"harness.lr_{rule} = 0.9\n")
        out = tmp_path / "out"
        assert main(["train", "--rule", rule, "--config", str(cfg), "--out", str(out)]) == 0
        config = ExperimentConfig(n_trials=2, max_epochs=30, master_seed=7)
        arm = harness.run_trials(config, [(UpdateRule(rule), 0.9)])
        write_learning_curve_csv(tmp_path / "arm.csv", arm)
        assert (out / "learning_curve.csv").read_bytes() == (tmp_path / "arm.csv").read_bytes()

    def test_sweep_writes_rows_for_both_rules(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMALL_EXPERIMENT
            + "harness.lr_sweep_from = 0.7\nharness.lr_sweep_to = 0.75\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "rule,lr_hidden,mean_epochs,std_epochs,n_converged"
        rules = {l.split(",")[0] for l in lines[1:]}
        assert rules == {"powerlaw", "linear"}
        assert len(lines) == 1 + 2 * 2

    def test_sweep_of_both_rules_is_one_batch_in_one_pool(self, tmp_path, monkeypatch):
        # a fast filter and a low goal let some trials converge, so the rows
        # carry per-rule numbers
        cfg = write_config(
            tmp_path,
            SMALL_EXPERIMENT
            + "harness.goal = 0.6\nharness.filter_keep = 0.95\nharness.filter_gain = 0.05\n"
            + "harness.lr_sweep_from = 0.7\nharness.lr_sweep_to = 0.75\n",
        )
        calls, pools = [], []
        run_trials, pool = harness.run_trials, harness.Pool

        def recording_run_trials(*args, **kwargs):
            calls.append(args)
            return run_trials(*args, **kwargs)

        def recording_pool(processes):
            pools.append(processes)
            return pool(processes=processes)

        monkeypatch.setattr(harness, "run_trials", recording_run_trials)
        monkeypatch.setattr(cli, "run_trials", recording_run_trials)
        monkeypatch.setattr(harness, "Pool", recording_pool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        both = tmp_path / "both"
        argv = ["sweep", "--config", str(cfg), "--out", str(both), "--parallelism", "2"]
        assert main(argv) == 0
        assert len(calls) == 1 and pools == [2]
        rows = []
        for rule in ("linear", "powerlaw"):
            out = tmp_path / rule
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--rule", rule]) == 0
            header, *lines = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
            rows += lines
        assert (both / "sweep.csv").read_bytes() == b"".join([header, *rows])
        assert any(int(line.split(b",")[4]) for line in rows)

    def test_sweep_warns_when_best_lr_is_on_a_grid_edge(self, tmp_path, capsys):
        # no trial reaches the goal in 30 epochs, so every point ties and the
        # tie-break picks the grid's first rate
        cfg = write_config(
            tmp_path,
            SMALL_EXPERIMENT + "harness.lr_sweep_from = 0.7\nharness.lr_sweep_to = 0.8\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--rule", "linear"]) == 0
        assert capsys.readouterr().err == (
            "spinsyn: warning: linear best_lr 0.7 lies on an edge of the grid 0.7..0.8; "
            "the best rate may lie outside it\n"
        )

    def test_sweep_csv_identical_with_and_without_the_edge_warning(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(
            tmp_path,
            SMALL_EXPERIMENT + "harness.lr_sweep_from = 0.7\nharness.lr_sweep_to = 0.8\n",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert "warning" in capsys.readouterr().err
        monkeypatch.setattr(SweepResult, "best_on_edge", property(lambda self: False))
        assert main(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert capsys.readouterr().err == ""
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_compare_writes_comparison_and_stats(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "harness.n_trials = 4\nharness.max_epochs = 150\n"
            "harness.goal = 0.52\nharness.master_seed = 99\n",
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "rule,mean,std,n_converged"
        assert [l.split(",")[0] for l in comparison[1:]] == ["powerlaw", "linear"]
        stats = (out / "stats.csv").read_text().splitlines()
        assert stats[0] == "t,nu,p_one_sided,p_two_sided"
        t, nu, p1, p2 = (float(v) for v in stats[1].split(","))
        assert p1 == pytest.approx(p2 / 2, rel=1e-12)

    def test_device_map_contains_calibrated_cell(self, tmp_path):
        out = tmp_path / "out"
        assert main(["device-map", "--out", str(out)]) == 0
        rows = (out / "pulse_map.csv").read_text().splitlines()[1:]
        cells = {}
        for row in rows:
            v, t, r = (float(c) for c in row.split(","))
            cells[(v, t)] = r
        assert cells[(2.5, 0.005)] == pytest.approx(47.0, abs=0.5)
        subthreshold = [r for (v, _), r in cells.items() if abs(v) <= 1.2]
        assert subthreshold and all(r == 1.0 for r in subthreshold)


# sha256 of the result CSVs of compare and sweep at RESULT_PIN_CONFIG and
# --seed 7, recorded on x86-64 with AVX-512 and numpy 2.4. The trials go
# through numpy's float64 exp, so a platform whose exp rounds differently
# gives other digests. Some trials stop at max_epochs, so the summaries
# skip them and the sweep's ranking penalizes them.
RESULT_PIN_CONFIG = """
harness.n_trials = 4
harness.max_epochs = 20
harness.goal = 0.6
harness.filter_keep = 0.95
harness.filter_gain = 0.05
harness.lr_sweep_from = 0.7
harness.lr_sweep_to = 0.8
"""
RESULT_DIGESTS = {
    "comparison.csv": "6a2bb08d61404d61e532f566a1c38670c60c5192cb55323e3c36945d755f5832",
    "stats.csv": "44134fa3af0dc372aa2cae883e3661f1ff91f92f955cadd20f715e6b246d82b3",
    "sweep.csv": "516dbb7d332fc4397a50cd51f2a1695a2fdaa54bebb92acfbca35bb55133a4b0",
}


def test_result_csvs_are_pinned(tmp_path, capsys):
    cfg = write_config(tmp_path, RESULT_PIN_CONFIG)
    out = tmp_path / "out"
    for subcommand in ("compare", "sweep"):
        assert main([subcommand, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RESULT_DIGESTS
    }
    assert digests == RESULT_DIGESTS
    # the ranking picks linear 0.7, an edge, and powerlaw 0.75, inside the grid
    warnings = capsys.readouterr().err.splitlines()
    assert [w.split(" best_lr ")[0] for w in warnings] == ["spinsyn: warning: linear"]
    assert "best_lr 0.7 " in warnings[0]


# sha256 of train's learning_curve.csv at RESULT_PIN_CONFIG and --seed 7,
# per rule, recorded on the same platform as RESULT_DIGESTS with the engine
# that kept every run's curves. The trials run 4 to 20 epochs, and each rule
# has one that stops at max_epochs without reaching the goal.
LEARNING_CURVE_DIGESTS = {
    "powerlaw": "9e664f1b4b4bcf2ca428a0ad7d6bc937db9c67fb64eab7e81e2011b1aded96ef",
    "linear": "560ffc5ace6cac2cdb453c8b4b103f9520cef11d176c9bcbf2993d642501b5dc",
}


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("rule", LEARNING_CURVE_DIGESTS)
def test_learning_curve_csv_is_pinned(tmp_path, monkeypatch, rule, parallelism):
    # two CPUs, so that parallelism 2 starts a Pool of two workers on any host
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, RESULT_PIN_CONFIG)
    out = tmp_path / "out"
    argv = ["train", "--config", str(cfg), "--seed", "7", "--rule", rule,
            "--parallelism", parallelism, "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "learning_curve.csv").read_bytes()).hexdigest()
    assert digest == LEARNING_CURVE_DIGESTS[rule]


class TestExitCodes:
    def test_missing_config_exits_2(self, tmp_path):
        code = main(
            ["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_bad_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "actor.bogus = 3\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_invariant_violation_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "actor.alpha_flip = 1.5\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_usage_error_exits_2(self):
        assert main(["no-such-subcommand"]) == 2

    def test_unwritable_output_dir_exits_1(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub"  # parent is a file: mkdir raises OSError
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["train"], "harness.lr_powerlaw = -1\n"),
            (["train", "--seed", "-1"], None),
            (["sweep"], "harness.lr_sweep_step = 1e-11\n"),
            (["sweep"], "harness.lr_sweep_step = 1e-9\n"),  # 8.5e8 rates
            # sums to 1, but the filtered reward leaves [0, 1] and every
            # trial would report the goal at epoch 1
            (["train"], "harness.filter_keep = 1.5\nharness.filter_gain = -0.5\n"),
            # the reward filter reaches the goal at epoch 300 at the earliest
            (["compare"], "harness.max_epochs = 299\n"),
            # the all-rewarded filter stalls below this goal, so no cap is enough
            (["compare"], "harness.goal = 0.9999999999999999\nharness.max_epochs = 1000000000\n"),
        ],
        ids=[
            "train-negative-lr", "train-negative-seed", "sweep-sub-resolution-step", "sweep-oversized-grid",
            "train-negative-filter-gain", "compare-cap-below-goal-floor", "compare-goal-above-fixed-point",
        ],
    )
    def test_rejected_arguments_leave_no_output_dir(self, tmp_path, argv, config):
        out = tmp_path / "o"
        if config is not None:
            argv = argv + ["--config", str(write_config(tmp_path, config))]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_lr_flag_is_a_usage_error(self, tmp_path, capsys):
        # a train run's rate comes only from harness.lr_<rule>
        out = tmp_path / "o"
        assert main(["train", "--lr", "0.9", "--out", str(out)]) == 2
        assert not out.exists()
        assert "unrecognized arguments: --lr 0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["train", "sweep"])
    def test_only_compare_needs_a_cap_at_the_goal_floor(self, tmp_path, subcommand):
        # train and sweep report trials that stop at max_epochs, so a cap
        # that no trial can converge by is fine there
        cfg = write_config(
            tmp_path, "harness.n_trials = 1\nharness.max_epochs = 3\nharness.lr_sweep_to = 0.45\n"
        )
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_compare_with_no_converged_trial_exits_1(self, tmp_path, capsys):
        # at the goal floor (300 at the defaults) trials train, but none converges
        cfg = write_config(tmp_path, "harness.max_epochs = 300\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "spinsyn: failure: need >= 2 converged" in capsys.readouterr().err

    def test_compare_with_one_trial_exits_2_before_training(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("compare trained")

        monkeypatch.setattr(cli, "compare_rules", no_training)
        cfg = write_config(tmp_path, "harness.n_trials = 1\n")
        out = tmp_path / "o"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @staticmethod
    def _assert_rejects_unread_key(tmp_path, capsys, subcommand, key):
        # line 1 holds a key the subcommand reads, line 2 one it would ignore
        read = "device.mg_max = 0.1" if subcommand == "device-map" else "harness.n_trials = 3"
        cfg = write_config(tmp_path, f"{read}\n{key}\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        name = key.split(" ")[0]
        assert f"line 2: {subcommand} does not read key '{name}'" in capsys.readouterr().err
        # a subcommand that reads the key accepts it
        reader = "train" if subcommand == "device-map" else "device-map"
        only_key = write_config(tmp_path, key + "\n")
        assert parse_config(only_key, reader) != parse_config(None, reader)

    @pytest.mark.parametrize(
        "key", ["actor.dw_min = 0.3", "critic.lr = 0.5", "harness.n_trials = 4"]
    )
    def test_device_map_rejects_training_keys(self, tmp_path, capsys, key):
        # device-map reads only device.* keys; any other would be ignored
        self._assert_rejects_unread_key(tmp_path, capsys, "device-map", key)

    @pytest.mark.parametrize(
        "subcommand, key",
        [(name, key)
         for name in ("train", "sweep", "compare")
         for key in ("device.g_th = 2e-6", "device.mg_max = 0.1")],
    )
    def test_subcommand_rejects_a_key_it_does_not_read(self, tmp_path, capsys, subcommand, key):
        # the training subcommands read no device.* key; one would be ignored
        self._assert_rejects_unread_key(tmp_path, capsys, subcommand, key)

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--parallelism", "2"]])
    def test_device_map_rejects_trial_flags(self, tmp_path, flag):
        # device-map runs no trials, so it takes neither flag
        out = tmp_path / "o"
        assert main(["device-map", "--out", str(out)] + flag) == 2
        assert not out.exists()

    def test_bad_parallelism_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        assert (
            main(
                ["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--parallelism", "0"]
            )
            == 2
        )
