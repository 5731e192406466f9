import math
import re

import numpy as np
import pytest

from spinsyn import cli, harness
from spinsyn.cli import (
    _SCHEMA,
    ConfigError,
    fmt,
    main,
    parse_config,
    write_learning_curve_csv,
    write_pulse_map_csv,
)
from spinsyn.harness import ExperimentConfig, SweepResult, TrialResult


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


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

    def test_pulse_map_bytes_match_per_cell_rendering(self, tmp_path):
        rng = np.random.default_rng(3)
        voltages = [0.0] + list(rng.uniform(-4.0, 4.0, 12))
        durations = [0.0] + list(10.0 ** rng.uniform(-4.0, -1.0, 10))
        ratios = rng.uniform(0.0, 140.0, (13, 11))
        ratios[0] = 1.0
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
            (["train", "--lr", "-1"], None),
            (["sweep"], "harness.lr_sweep_step = 1e-11\n"),
            (["sweep"], "harness.lr_sweep_step = 1e-9\n"),  # 8.5e8 rates
            # sums to 1, but the filtered reward leaves [0, 1] and every
            # trial would report the goal at epoch 1
            (["train"], "harness.filter_keep = 1.5\nharness.filter_gain = -0.5\n"),
        ],
        ids=[
            "train-negative-lr", "sweep-sub-resolution-step", "sweep-oversized-grid",
            "train-negative-filter-gain",
        ],
    )
    def test_rejected_arguments_leave_no_output_dir(self, tmp_path, argv, config):
        out = tmp_path / "o"
        if config is not None:
            argv = argv + ["--config", str(write_config(tmp_path, config))]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2(self, tmp_path, lr):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "o"
        argv = ["train", "--config", str(cfg), "--out", str(out), "--lr", lr]
        assert main(argv) == 2
        assert not out.exists()

    def test_compare_with_one_trial_exits_2_before_training(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("compare trained")

        monkeypatch.setattr(cli, "compare_rules", no_training)
        cfg = write_config(tmp_path, "harness.n_trials = 1\n")
        out = tmp_path / "o"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

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
