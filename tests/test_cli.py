import dataclasses
import enum
import math

import numpy as np
import pytest

from spinsyn.actor import ActorConfig, BiasUpdate, GradientProbability
from spinsyn.cli import (
    _SCHEMA,
    ConfigError,
    fmt,
    main,
    parse_config,
    write_learning_curve_csv,
)
from spinsyn.critic import CriticConfig
from spinsyn.device import SpinValveParams
from spinsyn.env import Presentation
from spinsyn.harness import ExperimentConfig, TrialResult


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
actor.gradient_probability = sigmoid
actor.bias_update = thresholded
actor.carry_subthreshold = false
env.presentation = cyclic
harness.master_seed = 31
device.g_th = 2e-6
""",
            )
        )
        cfg = loaded.experiment
        assert cfg.actor.alpha_flip == 0.2
        assert cfg.actor.gradient_probability is GradientProbability.SIGMOID
        assert cfg.actor.bias_update is BiasUpdate.THRESHOLDED
        assert cfg.actor.carry_subthreshold is False
        assert cfg.presentation is Presentation.CYCLIC
        assert cfg.master_seed == 31
        assert loaded.device.g_th == 2e-6

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config(write_config(tmp_path, "\nactor.bogus = 1\n"))

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

    # XOR fixes these sizes and the run derives or takes elsewhere these
    # values (harness.lr_*, --rule), so each key fails at load time
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
    TARGETS = {
        "device": SpinValveParams,
        "actor": ActorConfig,
        "critic": CriticConfig,
        "harness": ExperimentConfig,
    }

    def test_every_key_names_a_field_of_its_target(self):
        for key, (bucket, field, _) in _SCHEMA.items():
            names = {f.name for f in dataclasses.fields(self.TARGETS[bucket])}
            assert field in names, key

    def test_every_enum_key_parses_each_value(self, tmp_path):
        enum_keys = [
            (key, kind)
            for key, (_, _, kind) in _SCHEMA.items()
            if isinstance(kind, type) and issubclass(kind, enum.Enum)
        ]
        assert {kind for _, kind in enum_keys} == {
            GradientProbability,
            BiasUpdate,
            Presentation,
        }
        for key, kind in enum_keys:
            bucket, field, _ = _SCHEMA[key]
            for member in kind:
                loaded = parse_config(write_config(tmp_path, f"{key} = {member.value}\n"))
                target = loaded.experiment
                if bucket in ("actor", "critic"):
                    target = getattr(target, bucket)
                assert getattr(target, field) is member, (key, member)


class TestNumberFormat:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(0)
        for x in list(rng.uniform(-1e6, 1e6, 200)) + [0.1, 1 / 3, 1e-300, math.pi]:
            assert float(fmt(x)) == x

    def test_locale_independent_forms(self):
        assert "," not in fmt(1234567.89)
        assert fmt(0.5) == "0.5"
        assert fmt(float("nan")) == "nan"


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
        "argv", [["train", "--lr", "-1"]], ids=["train-negative-lr"]
    )
    def test_rejected_arguments_leave_no_output_dir(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2(self, tmp_path, lr):
        cfg = write_config(tmp_path, SMALL_EXPERIMENT)
        out = tmp_path / "o"
        argv = ["train", "--config", str(cfg), "--out", str(out), "--lr", lr]
        assert main(argv) == 2
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
