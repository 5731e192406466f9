import math

import numpy as np
import pytest

from spinsyn import harness
from spinsyn.actor import ActorConfig, ActorNetwork, UpdateRule
from spinsyn.critic import CriticConfig, CriticNetwork
from spinsyn.env import InputSchedule, Presentation
from spinsyn.harness import (
    ExperimentConfig,
    StatisticsUnavailableError,
    compare_rules,
    epochs_to_goal,
    filter_reward,
    lr_sweep,
    run_epoch,
    run_trial,
    run_trials,
    summarize_rule,
    sweep_grid,
    trial_seed,
    welch_t_test,
)


def small_config(**overrides):
    defaults = dict(n_trials=3, max_epochs=40, master_seed=99)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestFilterReward:
    def test_fixed_point(self):
        assert filter_reward(1.0, 1.0) == 1.0
        assert filter_reward(0.0, 0.0) == 0.0

    def test_reference_step(self):
        assert filter_reward(0.5, 1.0) == pytest.approx(0.5005, abs=1e-15)

    def test_first_crossing_at_presentation_2995(self):
        value, n = 0.5, 0
        while value < 0.975:
            value = filter_reward(value, 1.0)
            n += 1
        assert n == 2995


class TestEpochsToGoal:
    def test_first_crossing(self):
        assert epochs_to_goal([0.9, 0.98, 0.99], 0.975) == 2

    def test_no_crossing(self):
        assert epochs_to_goal([0.9, 0.95, 0.97], 0.975) is None

    def test_constant_reward_floor_is_epoch_300(self):
        value = 0.5
        curve = []
        for _ in range(400):
            for _ in range(10):
                value = filter_reward(value, 1.0)
            curve.append(value)
        assert epochs_to_goal(curve, 0.975) == 300


def make_xor_actor(alpha_flip=0.0):
    """Hand-built actor computing XOR exactly (verified by enumeration)."""
    config = ActorConfig(n_hidden=2, alpha_flip=alpha_flip)
    net = ActorNetwork.initialize(config, np.random.default_rng(0))
    net.w_hidden[:] = [[40.0, 40.0], [40.0, 40.0]]
    net.b_hidden[:] = [-20.0, -60.0]  # unit 0: OR, unit 1: AND
    net.w_out[:] = [[40.0, -80.0]]
    net.b_out[:] = [-20.0]
    return net


def test_xor_actor_is_exact_on_all_patterns():
    net = make_xor_actor()
    rng = np.random.default_rng(1)
    for x0, x1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        y, _ = net.forward(np.array([float(x0), float(x1)]), 1.0, rng)
        assert y == x0 ^ x1


class CountingSchedule(InputSchedule):
    def __init__(self):
        super().__init__(Presentation.UNIFORM)
        self.count = 0

    def next(self, rng):
        self.count += 1
        return super().next(rng)


class TestRunEpoch:
    def test_perfect_actor_scores_full_batch(self):
        config = small_config()
        actor = make_xor_actor()
        critic = CriticNetwork.initialize(config.critic, np.random.default_rng(2))
        mean, filt = run_epoch(
            actor, critic, InputSchedule(), np.random.default_rng(3), 0.5, config
        )
        assert mean == 1.0

    def test_filter_fixed_point_through_epoch(self):
        config = small_config()
        actor = make_xor_actor()
        critic = CriticNetwork.initialize(config.critic, np.random.default_rng(2))
        _, filt = run_epoch(
            actor, critic, InputSchedule(), np.random.default_rng(3), 1.0, config
        )
        assert filt == 1.0

    def test_exactly_batch_size_presentations_and_one_update(self):
        config = small_config()
        actor = ActorNetwork.initialize(config.actor, np.random.default_rng(4))
        critic = CriticNetwork.initialize(config.critic, np.random.default_rng(5))
        schedule = CountingSchedule()
        run_epoch(actor, critic, schedule, np.random.default_rng(6), 0.5, config)
        assert schedule.count == config.actor.batch_size == 10
        # the single batch update zeroed every fired/linear accumulator;
        # under the default linear bias rule, bias accumulators are empty
        assert np.all(actor.acc_b_hidden == 0.0)
        assert np.all(actor.acc_b_out == 0.0)

    def test_linear_rule_accumulators_zero_after_epoch(self):
        actor_cfg = ActorConfig(update_rule=UpdateRule.LINEAR)
        config = small_config(actor=actor_cfg)
        actor = ActorNetwork.initialize(config.actor, np.random.default_rng(4))
        critic = CriticNetwork.initialize(config.critic, np.random.default_rng(5))
        run_epoch(actor, critic, InputSchedule(), np.random.default_rng(6), 0.5, config)
        for acc in (actor.acc_w_hidden, actor.acc_b_hidden, actor.acc_w_out, actor.acc_b_out):
            assert np.all(acc == 0.0)


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        s = trial_seed(1, UpdateRule.LINEAR, 0.75, 0)
        assert s == trial_seed(1, UpdateRule.LINEAR, 0.75, 0)
        assert s != trial_seed(1, UpdateRule.LINEAR, 0.75, 1)
        assert s != trial_seed(1, UpdateRule.POWER_LAW, 0.75, 0)
        assert s != trial_seed(1, UpdateRule.LINEAR, 0.8, 0)
        assert s != trial_seed(2, UpdateRule.LINEAR, 0.75, 0)


class TestRunTrial:
    def test_bit_identical_reruns(self):
        config = small_config()
        a = run_trial(config, UpdateRule.POWER_LAW, 1.1, 0)
        b = run_trial(config, UpdateRule.POWER_LAW, 1.1, 0)
        assert a.seed == b.seed
        assert np.array_equal(a.filtered_curve, b.filtered_curve)
        assert np.array_equal(a.raw_curve, b.raw_curve)
        assert a.epochs_to_goal == b.epochs_to_goal

    def test_different_trials_differ(self):
        config = small_config()
        a = run_trial(config, UpdateRule.POWER_LAW, 1.1, 0)
        b = run_trial(config, UpdateRule.POWER_LAW, 1.1, 1)
        assert not np.array_equal(a.filtered_curve, b.filtered_curve)

    def test_curves_have_equal_length_bounded_by_max_epochs(self):
        config = small_config(max_epochs=25)
        res = run_trial(config, UpdateRule.LINEAR, 0.75, 2)
        assert len(res.filtered_curve) == len(res.raw_curve) <= 25
        assert np.all((res.filtered_curve >= 0.0) & (res.filtered_curve <= 1.0))

    def test_cyclic_presentation_supported(self):
        config = small_config(presentation=Presentation.CYCLIC)
        res = run_trial(config, UpdateRule.LINEAR, 0.75, 0)
        assert len(res.raw_curve) > 0


class TestRunTrialsParallel:
    def test_worker_count_does_not_change_results(self):
        config = small_config(n_trials=6)
        serial = run_trials(config, UpdateRule.POWER_LAW, 1.1, parallelism=1)
        parallel = run_trials(config, UpdateRule.POWER_LAW, 1.1, parallelism=3)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert np.array_equal(a.filtered_curve, b.filtered_curve)
            assert np.array_equal(a.raw_curve, b.raw_curve)

    def test_no_more_workers_than_trials(self, monkeypatch):
        started = []

        class FakePool:  # runs tasks in-process, records the worker count
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return [fn(args) for args in iterable]

        monkeypatch.setattr(harness, "Pool", FakePool)
        config = small_config(n_trials=2, max_epochs=2)
        results = run_trials(config, UpdateRule.LINEAR, 0.75, parallelism=64)
        assert started == [2]
        assert len(results) == 2


class TestWelch:
    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_textbook_example(self):
        res = welch_t_test([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert res.t == pytest.approx(-1.5492, abs=1e-4)
        assert res.nu == pytest.approx(2.941, abs=1e-3)

    def test_cauchy_closed_form(self):
        # nu = 1, t = 1: two-sided p = 1 - 2*arctan(1)/pi = 0.5
        from scipy.special import betainc

        p = float(betainc(0.5, 0.5, 1.0 / (1.0 + 1.0)))
        assert p == pytest.approx(1.0 - 2.0 * math.atan(1.0) / math.pi, abs=1e-12)
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_antisymmetry(self):
        a = [5.0, 7.0, 9.0, 4.0]
        b = [6.0, 6.5, 8.0]
        ab = welch_t_test(a, b)
        ba = welch_t_test(b, a)
        assert ab.t == pytest.approx(-ba.t, rel=1e-12)
        assert ab.p_two_sided == pytest.approx(ba.p_two_sided, rel=1e-12)
        assert ab.p_one_sided == pytest.approx(ba.p_one_sided, rel=1e-12)

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=12)
        b = rng.normal(loc=0.4, size=9)
        base = welch_t_test(a, b)
        scaled = welch_t_test(3.5 * a, 3.5 * b)
        shifted = welch_t_test(a + 11.0, b + 11.0)
        assert scaled.t == pytest.approx(base.t, rel=1e-9)
        assert shifted.t == pytest.approx(base.t, rel=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_one_sided_is_half_two_sided(self):
        res = welch_t_test([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert res.p_one_sided == pytest.approx(res.p_two_sided / 2.0, rel=1e-12)


class TestSummaries:
    def test_mean_std_match_two_pass_oracle(self):
        config = small_config(n_trials=5, max_epochs=30, goal=0.52)
        results = run_trials(config, UpdateRule.LINEAR, 0.75)
        summary = summarize_rule(UpdateRule.LINEAR, 0.75, results)
        converged = [r.epochs_to_goal for r in results if r.epochs_to_goal is not None]
        assert summary.n_converged == len(converged)
        if len(converged) >= 2:
            mean = sum(converged) / len(converged)
            var = sum((e - mean) ** 2 for e in converged) / (len(converged) - 1)
            assert summary.mean == pytest.approx(mean, rel=1e-12)
            assert summary.std == pytest.approx(math.sqrt(var), rel=1e-12)


class TestSweep:
    def test_grid_has_18_points_with_defaults(self):
        grid = sweep_grid(ExperimentConfig())
        assert len(grid) == 18
        assert grid[0] == 0.40
        assert grid[-1] == 1.25
        assert np.allclose(np.diff(grid), 0.05)

    def test_small_sweep_returns_best_lr(self):
        config = small_config(
            n_trials=2,
            max_epochs=15,
            lr_sweep_from=0.7,
            lr_sweep_to=0.8,
            lr_sweep_step=0.05,
        )
        result = lr_sweep(config, UpdateRule.LINEAR)
        assert [p.lr_hidden for p in result.points] == [0.7, 0.75, 0.8]
        assert result.best_lr in (0.7, 0.75, 0.8)
        penalized = [p.penalized_mean for p in result.points]
        winners = [
            p.lr_hidden for p in result.points if p.penalized_mean == min(penalized)
        ]
        assert result.best_lr == min(winners)  # ties break toward smaller lr


def test_lr_for_maps_each_rule_to_its_rate():
    config = ExperimentConfig(lr_powerlaw=0.9, lr_linear=0.6)
    assert config.lr_for(UpdateRule.POWER_LAW) == 0.9
    assert config.lr_for(UpdateRule.LINEAR) == 0.6


class TestCompareRules:
    def test_report_structure_on_reachable_goal(self):
        config = small_config(n_trials=4, max_epochs=150, goal=0.52)
        report = compare_rules(config)
        assert report.powerlaw.n_trials == report.linear.n_trials == 4
        assert report.powerlaw.lr_hidden == config.lr_powerlaw
        assert report.linear.lr_hidden == config.lr_linear
        assert 0.0 <= report.p_two_sided <= 1.0
        assert report.p_one_sided == pytest.approx(report.p_two_sided / 2.0)

    def test_statistics_unavailable_when_nothing_converges(self):
        config = small_config(n_trials=3, max_epochs=5, goal=0.99)
        with pytest.raises(StatisticsUnavailableError):
            compare_rules(config)


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"goal": 0.0},
            {"goal": 1.0},
            {"filter_keep": 0.9, "filter_gain": 0.0011},
            {"filter_init": 1.5},
            {"lr_sweep_step": 0.0},
            {"lr_sweep_from": 2.0, "lr_sweep_to": 1.0},
            {"lr_sweep_from": math.nan},
            {"lr_sweep_to": math.inf},
            {"lr_sweep_step": math.nan},
            {"master_seed": -1},
            {"n_trials": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)
