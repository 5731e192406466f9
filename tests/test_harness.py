import copy
import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from spinsyn import harness
from spinsyn.actor import ActorConfig, ActorNetwork, UpdateRule, threshold_power_update
from spinsyn.critic import CriticConfig, CriticNetwork
from spinsyn.env import InputSchedule
from spinsyn.harness import (
    ConfigError,
    ExperimentConfig,
    RuleSummary,
    StatisticsUnavailableError,
    SweepResult,
    compare_rules,
    goal_floor_epoch,
    lr_sweep,
    run_epoch,
    run_trial,
    run_trials,
    sweep_grid,
    trial_seed,
    welch_t_test,
)
from oracles import epochs_to_goal, filter_reward


def small_config(**overrides):
    defaults = dict(n_trials=3, max_epochs=40, master_seed=99)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


DEFAULTS = ExperimentConfig()
KEEP, GAIN = DEFAULTS.filter_keep, DEFAULTS.filter_gain


class TestFilterReward:
    def test_fixed_point(self):
        assert filter_reward(1.0, 1.0, KEEP, GAIN) == 1.0
        assert filter_reward(0.0, 0.0, KEEP, GAIN) == 0.0

    def test_reference_step(self):
        assert filter_reward(0.5, 1.0, KEEP, GAIN) == pytest.approx(0.5005, abs=1e-15)

    def test_first_crossing_at_presentation_2995(self):
        value, n = 0.5, 0
        while value < 0.975:
            value = filter_reward(value, 1.0, KEEP, GAIN)
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
                value = filter_reward(value, 1.0, KEEP, GAIN)
            curve.append(value)
        assert epochs_to_goal(curve, 0.975) == 300


def make_xor_actor(alpha_flip=0.0, **config):
    """Hand-built one-lane actor computing XOR exactly (verified by enumeration)."""
    config = ActorConfig(n_hidden=2, alpha_flip=alpha_flip, **config)
    net = ActorNetwork.initialize(config, [np.random.default_rng(0)], [1.1])
    net.w_hidden[:] = [[[40.0, 40.0], [40.0, 40.0]]]
    net.b_hidden[:] = [[-20.0, -60.0]]  # unit 0: OR, unit 1: AND
    net.w_out[:] = [[40.0, -80.0]]
    net.b_out[:] = [-20.0]
    return net


def test_xor_actor_is_exact_on_all_patterns():
    net = make_xor_actor()
    rng = np.random.default_rng(1)
    patterns = ((0, 0), (0, 1), (1, 0), (1, 1))
    net.propose(np.array(patterns, dtype=float)[:, None], rng.random((4, 1, 6)))
    net.r_bar[...] = 1.0
    for t, (x0, x1) in enumerate(patterns):
        assert net.forward(t)[0] == x0 ^ x1


class CountingSchedule(InputSchedule):
    def __init__(self):
        self.count = 0  # presentations served

    def next(self, u):
        self.count += len(u)
        return super().next(u)


def one_lane_epoch(actor, config, schedule, filter_state):
    critic = CriticNetwork.initialize(config.critic, [np.random.default_rng(2)])
    cfg = config.actor
    u = np.random.default_rng(3).random((cfg.batch_size, 1, 2 + 2 * cfg.n_hidden + 2))
    return run_epoch(actor, critic, schedule, u, np.array([filter_state]), config)


class TestRunEpoch:
    def test_perfect_actor_scores_full_batch(self):
        config = small_config()
        mean, filt = one_lane_epoch(make_xor_actor(), config, InputSchedule(), 0.5)
        assert mean[0] == 1.0

    def test_filter_fixed_point_through_epoch(self):
        config = small_config()
        _, filt = one_lane_epoch(make_xor_actor(), config, InputSchedule(), 1.0)
        assert filt[0] == 1.0

    def test_exactly_batch_size_presentations_and_one_update(self):
        config = small_config()
        actor = ActorNetwork.initialize(config.actor, [np.random.default_rng(4)], [1.1])
        before = copy.deepcopy(actor)
        schedule = CountingSchedule()
        one_lane_epoch(actor, config, schedule, 0.5)
        assert schedule.count == config.actor.batch_size == 10
        # the parameters moved by the epoch's batch sums, applied once:
        # power-law weights through the threshold, biases verbatim
        cfg = config.actor
        for name in ("w_hidden", "w_out"):
            step = threshold_power_update(
                getattr(actor, "acc_" + name), cfg.dw_min, cfg.power_exponent
            )
            assert np.array_equal(getattr(actor, name), getattr(before, name) + step)
        for name in ("b_hidden", "b_out"):
            expected = getattr(before, name) + getattr(actor, "acc_" + name)
            assert np.array_equal(getattr(actor, name), expected)
        assert not np.array_equal(actor.b_hidden, before.b_hidden)

    def test_linear_rule_applies_batch_sums_after_epoch(self):
        actor_cfg = ActorConfig(update_rule=UpdateRule.LINEAR)
        config = small_config(actor=actor_cfg)
        actor = ActorNetwork.initialize(config.actor, [np.random.default_rng(4)], [1.1])
        before = copy.deepcopy(actor)
        one_lane_epoch(actor, config, InputSchedule(), 0.5)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            expected = getattr(before, name) + getattr(actor, "acc_" + name)
            assert np.array_equal(getattr(actor, name), expected)
        assert not np.array_equal(actor.w_hidden, before.w_hidden)

    def test_layout_of_the_uniforms_does_not_change_the_bits(self):
        # the engine passes C-contiguous (batch, lanes, ...) uniforms; a
        # transposed view of lane-major memory must give the same rewards,
        # filter states and parameters
        config = small_config()
        # lane-major: (epochs, lanes, batch, ...)
        draws = np.random.default_rng(9).random((5, 5, 10, 2 + 2 * 10 + 2))
        runs = []
        for layout in ("contiguous", "lane-major view"):
            rngs = [np.random.default_rng(s) for s in range(5)]
            actor = ActorNetwork.initialize(config.actor, rngs, [1.1, 0.75, 0.5, 1.2, 0.9])
            critic = CriticNetwork.initialize(config.critic, rngs)
            schedule, filter_state, seen = InputSchedule(), np.full(5, 0.5), []
            for epoch in draws:
                u = epoch.transpose(1, 0, 2)  # a view of lane-major memory
                if layout == "contiguous":
                    u = np.ascontiguousarray(u)
                mean, filter_state = run_epoch(actor, critic, schedule, u, filter_state, config)
                seen += [mean.tobytes(), filter_state.tobytes()]
            runs.append(seen + [actor.w_hidden.tobytes(), critic.w_hidden.tobytes()])
        assert runs[0] == runs[1]

    def test_critic_reads_reach_the_actor_through_its_r_bar_rows(self):
        # run_epoch has the critic write each read into the actor's r_bar
        # row t, which actor.forward(t) turns into p_flip[t]
        config = small_config()
        lanes, cfg = 5, config.actor
        rngs = [np.random.default_rng(s) for s in range(lanes)]
        actor = ActorNetwork.initialize(cfg, rngs, [1.1, 0.75, 0.5, 1.2, 0.9])
        critic = CriticNetwork.initialize(config.critic, rngs)
        reads = []
        forward = critic.forward

        def recorded(neg_x, out):
            prediction = forward(neg_x, out)
            reads.append(prediction.copy())
            return prediction

        critic.forward = recorded
        u = np.random.default_rng(4).random((cfg.batch_size, lanes, 2 + 2 * cfg.n_hidden + 2))
        run_epoch(actor, critic, InputSchedule(), u, np.full(lanes, 0.5), config)
        # the critic learns after every presentation, so every read differs
        assert len({read.tobytes() for read in reads}) == cfg.batch_size
        assert actor.r_bar.tobytes() == np.array(reads).tobytes()
        for t, read in enumerate(reads):
            assert actor.p_flip[t].tobytes() == (cfg.alpha_flip * (1 - read)).tobytes()

    @staticmethod
    def presentation_peak(lanes: int) -> int:
        """The largest traced peak of one presentation of warmed-up
        run_epoch calls, above the memory at its critic read."""
        config = ExperimentConfig()
        rngs = [np.random.default_rng(s) for s in range(lanes)]
        rules = [UpdateRule.POWER_LAW, UpdateRule.LINEAR] * (lanes // 2)
        actor = ActorNetwork.initialize(config.actor, rngs, [1.1] * lanes, rules)
        critic = CriticNetwork.initialize(config.critic, rngs)
        schedule, filter_state = InputSchedule(), np.full(lanes, 0.5)
        draws = np.random.default_rng(7).random((8, config.actor.batch_size, lanes, 24))
        for u in draws[:3]:  # warm-up: scratch arrays sized to the lanes and the batch
            _, filter_state = run_epoch(actor, critic, schedule, u, filter_state, config)
        marks = [None] * 5 * config.actor.batch_size  # (current, peak) at each read
        calls = [0]
        forward = critic.forward

        def marked(*args, **kwargs):
            marks[calls[0]] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            calls[0] += 1
            return forward(*args, **kwargs)

        critic.forward = marked
        tracemalloc.start()
        try:
            for u in draws[3:]:
                _, filter_state = run_epoch(actor, critic, schedule, u, filter_state, config)
        finally:
            tracemalloc.stop()
        # the presentation after read k: its last one in an epoch runs on
        # into the end-of-batch update, which allocates per batch
        spans = [
            marks[k + 1][1] - marks[k][0]
            for k in range(len(marks) - 1)
            if (k + 1) % config.actor.batch_size
        ]
        assert len(spans) == 5 * (config.actor.batch_size - 1)
        return max(spans)

    def test_presentations_allocate_no_array(self):
        # Every broadcast, cast and strided gather of the presentation loop
        # runs once per batch, and the critic reads into the actor's r_bar
        # row, so a presentation allocates no array. tracemalloc sees array
        # buffers and the buffers of numpy's iterator, which a ufunc over
        # broadcast, strided or cast operands allocates; both grow with the
        # lanes. It also sees array views and Python objects, whose bytes
        # depend on the numpy and Python versions but not on the lanes. So
        # from 20 to 1020 lanes a presentation's peak may grow by at most
        # 512 B, less than one more bool per lane.
        narrow, wide = 20, 1020
        growth = self.presentation_peak(wide) - self.presentation_peak(narrow)
        assert growth <= 512, growth

    def test_epochs_reuse_the_arrays_of_their_lane_set(self):
        # the networks allocate their batch arrays, sums and row tuples once
        # per lane set, and run_epoch reads them; select resizes them
        config = small_config()
        lanes, cfg = 4, config.actor
        rngs = [np.random.default_rng(s) for s in range(lanes)]
        actor = ActorNetwork.initialize(cfg, rngs, [1.1, 0.75, 0.5, 1.2])
        critic = CriticNetwork.initialize(config.critic, rngs)
        schedule, filter_state = InputSchedule(), np.full(lanes, 0.5)
        u = np.random.default_rng(5).random((3, cfg.batch_size, lanes, 2 + 2 * cfg.n_hidden + 2))
        names = ("p_hidden", "proposed_hidden", "y_hidden", "r_bar", "p_flip", "p_out", "rewards")

        def owned():
            return [getattr(actor, name) for name in names] + [
                actor._sums, actor.acc_w_hidden, actor.acc_b_out, actor._rows,
                actor.critic_rows, critic.neg_input_rows,
            ]

        _, state = run_epoch(actor, critic, schedule, u[0], filter_state, config)
        assert state is filter_state  # the filter runs in place
        first, first_y_out = owned(), actor.y_out
        run_epoch(actor, critic, schedule, u[1], filter_state, config)
        assert all(now is then for now, then in zip(owned(), first))
        assert actor.y_out is not first_y_out  # the returned bits keep their values

        kept = np.array([2, 0])
        actor.select(kept)
        critic.select(kept)
        run_epoch(actor, critic, schedule, u[2][:, kept], filter_state[kept], config)
        assert not any(now is then for now, then in zip(owned(), first))
        for name in names:
            assert getattr(actor, name).shape[:2] == (cfg.batch_size, 2), name
        assert actor.acc_w_hidden.shape == (2, 2, cfg.n_hidden)
        assert actor.acc_b_out.shape == (2,)
        for rows in (actor._rows, actor.critic_rows):
            assert len(rows) == cfg.batch_size
            assert all(len(row) == 2 for row in rows[0])
        assert len(critic.neg_input_rows) == cfg.batch_size
        assert critic.neg_input_rows[0].shape[0] == 2

    @staticmethod
    def lane_set(config, lanes, epochs=4):
        """A fresh actor and critic of lanes lanes of both rules, their
        filter state and epochs epochs of uniforms."""
        cfg = config.actor
        rngs = [np.random.default_rng([lanes, k]) for k in range(lanes)]
        rules = [(UpdateRule.POWER_LAW, UpdateRule.LINEAR)[k % 2] for k in range(lanes)]
        actor = ActorNetwork.initialize(cfg, rngs, [0.5 + 0.1 * k for k in range(lanes)], rules)
        critic = CriticNetwork.initialize(config.critic, rngs)
        width = 2 + 2 * cfg.n_hidden + 2
        draws = np.random.default_rng(lanes).random((epochs, cfg.batch_size, lanes, width))
        return actor, critic, np.full(lanes, config.filter_init), draws

    @staticmethod
    def trained_bits(actor, critic, filter_state, draws, config):
        """Yields each run_epoch's means and filter state over draws, then
        both networks' lane arrays, as bytes."""
        for u in draws:
            mean, filter_state = run_epoch(actor, critic, InputSchedule(), u, filter_state, config)
            yield mean.tobytes() + filter_state.tobytes()
        yield b"".join(getattr(net, name).tobytes() for net in (actor, critic) for name in net.LANE_ARRAYS)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_between_epochs_continues_with_the_originals_bits(self, how):
        # a copy keeps config and the lane arrays and derives its scratch,
        # views and rows anew, so it trains on with the original's bits
        config = small_config()
        actor, critic, filter_state, draws = self.lane_set(config, 3)
        for u in draws[:2]:
            run_epoch(actor, critic, InputSchedule(), u, filter_state, config)
        if how == "deepcopy":
            twin = copy.deepcopy((actor, critic))
        else:
            twin = pickle.loads(pickle.dumps((actor, critic)))
        original = list(self.trained_bits(actor, critic, filter_state.copy(), draws[2:], config))
        assert list(self.trained_bits(*twin, filter_state.copy(), draws[2:], config)) == original

    def test_lane_sets_run_by_turns_keep_the_bits_they_have_alone(self):
        # run_epoch keeps nothing outside the networks: the epochs of two
        # lane sets of other widths and filters, run by turns, give each
        # set the bits it has when run alone
        configs = [small_config(), small_config(filter_keep=0.99, filter_gain=0.01)]

        def runs():
            return [self.trained_bits(*self.lane_set(config, lanes), config)
                    for config, lanes in zip(configs, (3, 5))]

        alone = [list(bits) for bits in runs()]
        by_turns = list(zip(*runs()))  # zip runs one epoch of each set in turn
        assert [list(bits) for bits in zip(*by_turns)] == alone


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


class TestRunTrialsParallel:
    def test_worker_count_does_not_change_results(self):
        config = small_config(n_trials=6)
        serial = run_trials(config, [(UpdateRule.POWER_LAW, 1.1)], parallelism=1)
        parallel = run_trials(config, [(UpdateRule.POWER_LAW, 1.1)], parallelism=3)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert np.array_equal(a.filtered_curve, b.filtered_curve)
            assert np.array_equal(a.raw_curve, b.raw_curve)

    def test_no_more_workers_than_trials(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
        started = []

        class FakePool:  # runs tasks in-process, records the worker count
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, iterable):
                return [fn(*args) for args in iterable]

        monkeypatch.setattr(harness, "Pool", FakePool)
        config = small_config(n_trials=2, max_epochs=2)
        results = run_trials(config, [(UpdateRule.LINEAR, 0.75)], parallelism=64)
        assert started == [2]
        assert len(results) == 2

    def test_every_worker_gets_lanes_of_both_rules(self, monkeypatch):
        # lane k goes to worker k mod 2; the results come back in lane
        # order and equal one worker's, with a real Pool and a recording one
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        config = uneven_config(n_trials=3, max_epochs=40)
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]
        serial = [fingerprint(r) for r in run_trials(config, arms)]
        assert [fingerprint(r) for r in run_trials(config, arms, parallelism=2)] == serial
        shards = []

        class RecordingPool:  # runs tasks in-process, records each worker's lanes
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, iterable):
                tasks = list(iterable)
                shards.extend(lanes for _, lanes in tasks)
                return [fn(*args) for args in tasks]

        monkeypatch.setattr(harness, "Pool", RecordingPool)
        assert [fingerprint(r) for r in run_trials(config, arms, parallelism=2)] == serial
        assert [[(rule.value, i) for _, rule, _, i in shard] for shard in shards] == [
            [("powerlaw", 0), ("powerlaw", 2), ("linear", 1)],
            [("powerlaw", 1), ("linear", 0), ("linear", 2)],
        ]

    def test_no_more_workers_than_cpus(self, monkeypatch):
        # 10 lanes at parallelism 64 on 3 CPUs: 3 workers, of 4, 3 and 3 lanes
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        config = uneven_config(n_trials=5)
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]
        serial = [fingerprint(r) for r in run_trials(config, arms)]
        started, shards = [], []

        class RecordingPool:  # runs tasks in-process, records the workers and their lanes
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, iterable):
                tasks = list(iterable)
                shards.extend(len(lanes) for _, lanes in tasks)
                return [fn(*args) for args in tasks]

        monkeypatch.setattr(harness, "Pool", RecordingPool)
        assert [fingerprint(r) for r in run_trials(config, arms, parallelism=64)] == serial
        assert started == [3] and shards == [4, 3, 3]

    def test_usable_cpus(self):
        cpus = harness._usable_cpus()
        assert cpus >= 1
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_no_arms_give_no_results(self, monkeypatch, parallelism):
        def started(*args, **kwargs):
            pytest.fail("a lane or Pool started")

        monkeypatch.setattr(harness, "_run_batch", started)
        monkeypatch.setattr(harness, "Pool", started)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        config = small_config()
        assert run_trials(config, [], parallelism=parallelism) == []
        assert lr_sweep(config, [], parallelism=parallelism) == []


BAD_RATES = [math.nan, math.inf, -math.inf, 0.0, -1.0]


class TestRateValidation:
    """A rate that is not finite and > 0, or a parallelism below 1, fails
    before any lane or Pool starts."""

    @pytest.fixture(autouse=True)
    def nothing_starts(self, monkeypatch):
        def started(*args, **kwargs):
            pytest.fail("a lane or Pool started")

        monkeypatch.setattr(harness, "_run_batch", started)
        monkeypatch.setattr(harness, "Pool", started)

    @pytest.mark.parametrize("lr", BAD_RATES)
    def test_run_trials_rejects_bad_rate(self, lr):
        arms = [(UpdateRule.LINEAR, 0.75), (UpdateRule.POWER_LAW, lr)]
        with pytest.raises(ValueError, match="finite and > 0"):
            run_trials(small_config(n_trials=2, max_epochs=5), arms, parallelism=2)

    @pytest.mark.parametrize("lr", BAD_RATES)
    def test_run_trial_rejects_bad_rate(self, lr):
        with pytest.raises(ValueError, match="finite and > 0"):
            run_trial(small_config(max_epochs=5), UpdateRule.LINEAR, lr, 0)

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_run_trials_rejects_parallelism_below_one(self, parallelism):
        # the CLI rejects --parallelism 0; the library must not run it serially
        arms = [(UpdateRule.LINEAR, 0.75)]
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_trials(small_config(n_trials=2, max_epochs=5), arms, parallelism=parallelism)


def fingerprint(result):
    return (
        result.seed,
        result.epochs_to_goal,
        result.raw_curve.tobytes(),
        result.filtered_curve.tobytes(),
    )


def uneven_config(**overrides):
    # a fast filter and a low goal: lanes finish anywhere from a few epochs
    # to the cap, so the batch is compacted many times
    defaults = dict(
        n_trials=50, max_epochs=60, goal=0.6, filter_keep=0.95, filter_gain=0.05,
        master_seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLaneInvariance:
    """A lane gives the same TrialResult whatever batch or shard it runs in."""

    def test_lane_in_a_50_lane_batch_equals_lane_alone(self):
        config = uneven_config()
        batch = run_trials(config, [(UpdateRule.POWER_LAW, 1.1)])
        lengths = {len(r.raw_curve) for r in batch}
        assert len(lengths) > 5 and max(lengths) == 60  # uneven, some lanes to the cap
        for k in (0, 1, 17, 33, 49):
            alone = run_trial(config, UpdateRule.POWER_LAW, 1.1, k)
            assert fingerprint(batch[k]) == fingerprint(alone)

    def test_lane_in_a_mixed_batch_equals_lane_alone(self):
        config = uneven_config(n_trials=3)
        arms = [
            (UpdateRule.POWER_LAW, 1.1),
            (UpdateRule.LINEAR, 0.75),
            (UpdateRule.POWER_LAW, 0.6),
            (UpdateRule.LINEAR, 1.2),
        ]
        batch = run_trials(config, arms)
        assert len(batch) == 12
        for a, (rule, lr) in enumerate(arms):
            for i in range(3):
                alone = run_trial(config, rule, lr, i)
                assert fingerprint(batch[3 * a + i]) == fingerprint(alone)

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_compare_and_sweep_lanes_equal_lanes_alone(self, monkeypatch, parallelism):
        recorded = []
        original = harness.run_trials

        def recording(config, arms, parallelism=1, curves=True):
            results = original(config, arms, parallelism, curves)
            recorded.append((config, arms, curves, results))
            return results

        monkeypatch.setattr(harness, "run_trials", recording)
        # as many CPUs as the largest parallelism, so that each case starts
        # a real Pool of that many workers on any host
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        # 10 lanes for compare, and one call of 2 rules x 3 rates x 3 trials
        # = 18 lanes for the sweep: 3 workers split the compare lanes unevenly
        compare_rules(uneven_config(n_trials=5), parallelism=parallelism)
        rules = [UpdateRule.LINEAR, UpdateRule.POWER_LAW]
        sweeps = lr_sweep(
            uneven_config(n_trials=3, lr_sweep_from=0.7, lr_sweep_to=0.8),
            rules,
            parallelism=parallelism,
        )
        assert [sweep.rule for sweep in sweeps] == rules
        assert [len(results) for *_, results in recorded] == [10, 18]
        assert recorded[1][1] == [(rule, lr) for rule in rules for lr in (0.7, 0.75, 0.8)]
        # compare and sweep keep no curves: each lane's seed and goal epoch
        # are those of the lane alone, and its curves are empty
        assert [curves for _, _, curves, _ in recorded] == [False, False]
        for config, arms, _, results in recorded:
            lanes = [(rule, lr, i) for rule, lr in arms for i in range(config.n_trials)]
            for (rule, lr, i), result in zip(lanes, results):
                alone = run_trial(config, rule, lr, i)
                assert (result.seed, result.epochs_to_goal) == (alone.seed, alone.epochs_to_goal)
                assert result.raw_curve.shape == result.filtered_curve.shape == (0,)
                assert result.raw_curve.dtype == result.filtered_curve.dtype == np.float64


class TestLaneKey:
    """A lane is trial_seed's key (master_seed, rule, lr, trial index): it
    alone sets the lane's trial, whatever config.master_seed says."""

    def test_lanes_of_two_master_seeds_in_one_batch(self):
        config = uneven_config(n_trials=2, master_seed=7)
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]
        # both seeds' lanes interleaved in one batch
        lanes = [(seed, rule, lr, i) for rule, lr in arms for i in range(2) for seed in (5, 99)]
        batch = dict(zip(lanes, map(fingerprint, harness._run_batch(config, lanes))))
        for seed in (5, 99):
            alone = run_trials(dataclasses.replace(config, master_seed=seed), arms)
            keys = [(seed, rule, lr, i) for rule, lr in arms for i in range(2)]
            assert [batch[key] for key in keys] == [fingerprint(r) for r in alone]
            assert [batch[key][0] for key in keys] == [trial_seed(*key) for key in keys]
        at_7 = {fingerprint(r) for r in run_trials(config, arms)}
        assert len(set(batch.values()) | at_7) == 12  # every trial differs


class TestGoalEpoch:
    """The batch engine takes a lane's goal epoch from where the lane left;
    epochs_to_goal's scan of the whole filtered curve is the oracle."""

    ARMS = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]

    def check(self, config):
        results = run_trials(config, self.ARMS)
        for result in results:
            expected = epochs_to_goal(result.filtered_curve, config.goal)
            assert result.epochs_to_goal == expected
            assert type(result.epochs_to_goal) is type(expected)
        return results

    def test_uneven_batch_with_capped_lanes(self):
        results = self.check(uneven_config(n_trials=10, max_epochs=25))
        capped = [r for r in results if r.epochs_to_goal is None]
        assert 0 < len(capped) < len(results)
        assert all(len(r.raw_curve) == 25 for r in capped)
        assert len({r.epochs_to_goal for r in results}) > 5

    def test_lane_reaching_the_goal_at_the_cap(self):
        # lanes run the same epochs at any cap: cap the batch at a goal epoch
        reached = sorted(
            r.epochs_to_goal for r in self.check(uneven_config(n_trials=10))
            if r.epochs_to_goal is not None
        )
        cap = reached[len(reached) // 2]
        results = self.check(uneven_config(n_trials=10, max_epochs=cap))
        at_cap = [r for r in results if len(r.raw_curve) == cap]
        assert any(r.epochs_to_goal == cap for r in at_cap)
        assert any(r.epochs_to_goal is None for r in at_cap)


class TestCurves:
    """A run keeps learning curves only when asked: without them its memory
    does not grow with max_epochs."""

    def test_memory_grows_with_max_epochs_only_with_curves(self):
        # compare-shaped: 2 rules x 10 trials, and a goal that no lane can
        # reach within 1000 epochs, so every lane runs to the cap
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]

        def traced_peak(max_epochs, curves):
            config = uneven_config(
                n_trials=10, max_epochs=max_epochs, goal=0.99999, filter_keep=0.999,
                filter_gain=0.001,
            )
            assert goal_floor_epoch(config) is None
            tracemalloc.start()
            try:
                results = run_trials(config, arms, curves=curves)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [r.epochs_to_goal for r in results] == [None] * 20
            assert {len(r.raw_curve) for r in results} == {max_epochs if curves else 0}
            return peak

        traced_peak(1, curves=True)  # the first run's one-time allocations
        # the two (lanes, max_epochs) float64 curve arrays of 20 lanes
        curve_bytes = 2 * 20 * (1000 - 100) * 8
        without = traced_peak(1000, curves=False) - traced_peak(100, curves=False)
        kept = traced_peak(1000, curves=True) - traced_peak(100, curves=True)
        assert without <= 4096, without
        assert kept >= curve_bytes, kept


class TestChunkedDraws:
    """Each lane fills several epochs' uniforms per generator call: the
    numbers, and so the results, are those of one call per epoch."""

    def test_chunk_epochs_cap_and_limit(self):
        epoch = 10 * (2 + 2 * 10 + 2)  # uniforms per lane and epoch at the defaults
        assert harness.chunk_epochs(1, epoch, 10_000) == 273  # 273 * 1920 B <= 512 KiB
        assert harness.chunk_epochs(1, epoch, 5) == 5  # never past max_epochs
        assert harness.chunk_epochs(20, epoch, 10_000) == 13  # 13 * 20 * 1920 B <= 512 KiB
        assert harness.chunk_epochs(72, epoch, 10_000) == 3
        assert harness.chunk_epochs(72, epoch, 2) == 2
        assert harness.chunk_epochs(10**6, epoch, 10_000) == 1  # one epoch even past the bound
        for lanes in range(1, 300):
            k = harness.chunk_epochs(lanes, epoch, 10_000)
            assert k >= 1
            assert k == 1 or 8 * lanes * k * epoch <= harness.CHUNK_BYTES
            assert 8 * lanes * (k + 1) * epoch > harness.CHUNK_BYTES

    @pytest.mark.parametrize("draw", ["one_epoch", "default", "byte_capped"])
    def test_lanes_leaving_mid_chunk_equal_lanes_alone(self, monkeypatch, draw):
        config = uneven_config(n_trials=6, max_epochs=31)
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]
        # one epoch per draw; the default; 5 epochs per draw at 12 lanes,
        # more as lanes leave
        bound = {"one_epoch": 0, "default": harness.CHUNK_BYTES,
                 "byte_capped": 5 * 12 * 8 * 10 * 24}[draw]
        # the reference: every lane alone, one generator call per epoch
        monkeypatch.setattr(harness, "CHUNK_BYTES", 0)
        alone = [run_trial(config, rule, lr, i) for rule, lr in arms for i in range(6)]
        monkeypatch.setattr(harness, "CHUNK_BYTES", bound)
        sizes = []  # epochs of every draw
        original = harness.chunk_epochs

        def recording(*args):
            sizes.append(original(*args))
            return sizes[-1]

        monkeypatch.setattr(harness, "chunk_epochs", recording)
        batch = run_trials(config, arms)
        assert sizes[0] == {"one_epoch": 1, "default": 22, "byte_capped": 5}[draw]
        # one lane runs to the cap, and the last draw stops there
        assert max(len(r.raw_curve) for r in batch) == sum(sizes) == 31
        if draw != "one_epoch":
            assert any(len(r.raw_curve) % sizes[0] for r in batch)  # lanes leave mid-draw
            assert 31 % sizes[0]
        for result, reference in zip(batch, alone):
            assert fingerprint(result) == fingerprint(reference)

    def test_lanes_all_leaving_mid_draw_end_the_run_after_one_draw(self, monkeypatch):
        # from filter_init 0.5, ten presentations leave the filter at least
        # 0.5 * 0.95**10 > 0.25, so every lane stops after epoch 1, early
        # in the first draw (27 epochs at 10 lanes)
        config = uneven_config(n_trials=5, goal=0.25)
        arms = [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)]
        alone = [run_trial(config, rule, lr, i) for rule, lr in arms for i in range(5)]
        sizes = []  # epochs of every draw
        draw_epochs = harness.draw_epochs

        def recording(rngs, n_epochs, block):
            sizes.append(n_epochs)
            return draw_epochs(rngs, n_epochs, block)

        monkeypatch.setattr(harness, "draw_epochs", recording)
        batch = run_trials(config, arms)
        assert len(sizes) == 1 and sizes[0] > 1
        assert [r.epochs_to_goal for r in batch] == [1] * 10
        for result, reference in zip(batch, alone):
            assert fingerprint(result) == fingerprint(reference)

    def test_a_draw_holds_its_uniforms_at_most_twice(self, monkeypatch):
        # Sweep-shaped: 72 lanes that all run 20 epochs, 3 epochs per draw.
        # From the start of a draw to the first epoch that reads it, the
        # traced memory may grow by at most two copies of the draw's
        # uniforms, each within CHUNK_BYTES, plus a little for Python
        # objects; draw_epochs itself holds one copy
        # (test_a_draw_holds_its_uniforms_once).
        config = uneven_config(
            n_trials=36, max_epochs=20, goal=0.975, filter_keep=0.999, filter_gain=0.001
        )
        marks = []  # per draw: traced memory at its start, peak up to its first epoch
        chunk_epochs, run_epoch = harness.chunk_epochs, harness.run_epoch

        def marked_chunk(*args):
            marks.append([tracemalloc.get_traced_memory()[0], None])
            tracemalloc.reset_peak()
            return chunk_epochs(*args)

        def marked_epoch(*args):
            if marks[-1][1] is None:
                marks[-1][1] = tracemalloc.get_traced_memory()[1]
            return run_epoch(*args)

        monkeypatch.setattr(harness, "chunk_epochs", marked_chunk)
        monkeypatch.setattr(harness, "run_epoch", marked_epoch)
        tracemalloc.start()
        try:
            results = run_trials(config, [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)])
        finally:
            tracemalloc.stop()
        assert len(results) == 72 and all(len(r.raw_curve) == 20 for r in results)
        assert len(marks) == 7  # 3 epochs per draw at 72 lanes
        growth = max(peak - start for start, peak in marks)
        assert growth <= 2 * harness.CHUNK_BYTES + 4096, growth

    def test_a_draw_holds_its_uniforms_once(self):
        # one lane at the defaults, 273 epochs of 10 x 24 uniforms: each
        # generator fills its own row of the draw, with no second buffer
        block = (10, 2 + 2 * 10 + 2)
        n_epochs = harness.chunk_epochs(1, block[0] * block[1], 10_000)
        assert n_epochs == 273
        rngs = [np.random.default_rng(0)]
        tracemalloc.start()
        try:
            draws = harness.draw_epochs(rngs, n_epochs, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws.nbytes + 4096, (peak, draws.nbytes)
        assert draws.shape == (1, n_epochs) + block


    def test_a_spent_draw_is_freed_before_the_next(self, monkeypatch):
        # compare-shaped, 13 epochs per draw at 20 lanes: when a draw starts,
        # no earlier draw may still be alive, through a view or otherwise
        config = uneven_config(n_trials=10, max_epochs=40, goal=0.99)
        alive = []  # weak references to every draw made
        draw_epochs = harness.draw_epochs

        def recording(*args):
            assert [ref() for ref in alive] == [None] * len(alive)
            draws = draw_epochs(*args)
            alive.append(weakref.ref(draws))
            return draws

        monkeypatch.setattr(harness, "draw_epochs", recording)
        run_trials(config, [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)])
        assert len(alive) > 1


def trials_digest(results):
    """sha256 over every result's seed, goal epoch and curves, in the form of
    the benchmark's trial digest."""
    sha = hashlib.sha256()
    for res in results:
        sha.update(f"{res.seed},{res.epochs_to_goal};".encode())
        sha.update(res.raw_curve.tobytes() + res.filtered_curve.tobytes())
    return sha.hexdigest()


# Recorded with the per-presentation engine, before the actor's hidden pass,
# accumulation and the reward filter moved out of the presentation loop, on
# x86-64 with AVX-512 and numpy 2.4. The bits go through numpy's float64 exp,
# so a platform whose exp rounds differently gives other digests.
# "sweep" was recorded the same way, before the presentation chain moved to
# preallocated rows and the batch update to one pass over the sums: a
# sweep-shaped batch of 72 lanes that all run 20 epochs, 3 epochs per draw.
PINNED_DIGESTS = {
    "default": ({}, "29ab59a9a4ef81b08c72320a42c834f55e026b666abfc574016ed439db9f0f67"),
    "sweep": (
        dict(n_trials=36, max_epochs=20, goal=0.975, filter_keep=0.999, filter_gain=0.001),
        "fa29f67f5d52530444ab4cd8cc0c3525e9c7bc91c23da6f88c960ac4443c060b",
    ),
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_engine_bits_are_pinned(name):
    # both rules, 4 trials each unless overridden; "default" has lanes
    # finishing at uneven epochs
    overrides, digest = PINNED_DIGESTS[name]
    config = uneven_config(**{"n_trials": 4, **overrides})
    results = run_trials(config, [(UpdateRule.POWER_LAW, 1.1), (UpdateRule.LINEAR, 0.75)])
    assert trials_digest(results) == digest


def epoch_state_digest(rule, lanes, epochs=5):
    """sha256 over both networks' parameters and the actor's batch sums
    after each of a few run_epoch calls, lanes of one rule at sweep-grid rates.

    The sums are hashed whether or not a power-law weight fires, so a
    change of one ulp in any sum moves the digest.
    """
    config = uneven_config()
    cfg = config.actor
    lrs = [0.4 + 0.05 * (k % 18) for k in range(lanes)]
    rngs = [np.random.default_rng([lanes, k]) for k in range(lanes)]
    actor = ActorNetwork.initialize(cfg, rngs, lrs, [rule] * lanes)
    critic = CriticNetwork.initialize(config.critic, rngs)
    schedule, filter_state = InputSchedule(), np.full(lanes, config.filter_init)
    sha = hashlib.sha256()
    for _ in range(epochs):
        draws = np.stack([rng.random((cfg.batch_size, 2 + 2 * cfg.n_hidden + 2)) for rng in rngs])
        u = draws.transpose(1, 0, 2)
        mean, filter_state = run_epoch(actor, critic, schedule, u, filter_state, config)
        for array in (
            mean, filter_state,
            actor.w_hidden, actor.b_hidden, actor.w_out, actor.b_out,
            actor.acc_w_hidden, actor.acc_w_out, actor.acc_b_hidden, actor.acc_b_out,
            critic.w_hidden, critic.b_hidden, critic.w_out, critic.b_out,
        ):
            sha.update(array.tobytes())
    return sha.hexdigest()


# Recorded on the same platform as PINNED_DIGESTS, before the batch API took
# presentation-major arrays.
PINNED_EPOCH_DIGESTS = {
    (UpdateRule.POWER_LAW, 1): "4a8bd45bf60cf15b00bd2ff5f5823acd8bafb273e75d44225a703e3c9127e39f",
    (UpdateRule.POWER_LAW, 4): "b3a571d0672a72709f65863bf18963f7d1eccbcd0f72bdd0823dba21ab7433a1",
    (UpdateRule.POWER_LAW, 72): "cc74f706dea74c03e092ead3470b5ac8a41fb44b2aa8eec3468591a34feb5326",
    (UpdateRule.LINEAR, 1): "f736c5237ee6a316c390d2d3b1b40d7bcf039fdfc801c8c64125c99e6dcb60e2",
    (UpdateRule.LINEAR, 4): "1fe2543d107d443c0b36f308e3dc012c9523e6c580dc38d8646d461bf7c5255f",
    (UpdateRule.LINEAR, 72): "6474185762cd1866845bdbd9ae1813974bf535f24073669d6a7b91b15857fc55",
}


@pytest.mark.parametrize(
    "rule, lanes", PINNED_EPOCH_DIGESTS, ids=[f"{r.value}-{n}" for r, n in PINNED_EPOCH_DIGESTS]
)
def test_parameters_after_each_epoch_are_pinned(rule, lanes):
    assert epoch_state_digest(rule, lanes) == PINNED_EPOCH_DIGESTS[rule, lanes]


class TestWelch:
    def test_compare_runs_without_scipy(self, tmp_path):
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(
            "harness.n_trials = 4\nharness.max_epochs = 150\n"
            "harness.goal = 0.52\nharness.master_seed = 99\n"
        )
        out = tmp_path / "out"
        code = (
            "import sys\n"
            "from spinsyn.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
            "sys.exit(status)\n"
        )
        # the interpreter imports the spinsyn these tests import
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code, "compare", "--config", str(cfg), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len((out / "stats.csv").read_text().splitlines()) == 2
        assert proc.stdout.strip() == "[]"

    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_textbook_example(self):
        res = welch_t_test([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert res.t == pytest.approx(-1.5492, abs=1e-4)
        assert res.nu == pytest.approx(2.941, abs=1e-3)

    def test_cauchy_closed_form(self):
        # nu = 1 is the Cauchy distribution; nu = 2 has a closed-form tail too
        for t in (1e-6, 0.01, 0.5, 1.0, 3.0, 40.0, 1e3):
            cauchy = 1.0 - 2.0 * math.atan(t) / math.pi
            nu2 = 1.0 - t / math.sqrt(2.0 + t * t)
            for signed in (t, -t):
                p1 = harness._student_t_two_sided(signed, 1.0)
                p2 = harness._student_t_two_sided(signed, 2.0)
                assert p1 == pytest.approx(cauchy, rel=1e-13)
                assert p2 == pytest.approx(nu2, rel=1e-13)

    def test_scipy_oracle_grid(self):
        from scipy.special import betainc

        rng = np.random.default_rng(15)
        nus = np.exp(rng.uniform(0.0, math.log(2000.0), 2000))
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 2000))
        ts *= rng.choice([-1.0, 1.0], size=ts.size)
        ours = np.array([harness._student_t_two_sided(t, nu) for t, nu in zip(ts, nus)])
        oracle = betainc(nus / 2.0, 0.5, nus / (nus + ts * ts))
        assert np.max(np.abs(ours - oracle) / oracle) <= 1e-10

    def test_tail_edges(self):
        assert harness._student_t_two_sided(0.0, 7.3) == 1.0
        # 1 - x is formed without subtraction: x rounds to 1 here
        assert harness._student_t_two_sided(1e-8, 377.0) < 1.0
        for t in (1e60, 1e200):
            assert 0.0 <= harness._student_t_two_sided(t, 5.0) <= 1e-100

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "_CF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            harness._student_t_two_sided(1.3, 900.0)

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
        # some trials stop at max_epochs, and mean and std skip them
        config = uneven_config(n_trials=5, max_epochs=20)
        results = run_trials(config, [(UpdateRule.LINEAR, 0.75)])
        summary = RuleSummary(UpdateRule.LINEAR, 0.75, [r.epochs_to_goal for r in results])
        converged = [r.epochs_to_goal for r in results if r.epochs_to_goal is not None]
        assert 2 <= summary.n_converged == len(converged) < summary.n_trials == 5
        mean = sum(converged) / len(converged)
        var = sum((e - mean) ** 2 for e in converged) / (len(converged) - 1)
        assert summary.mean == pytest.approx(mean, rel=1e-12)
        assert summary.std == pytest.approx(math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize(
        "epochs, mean, std, n_converged",
        [
            ([None, None], math.nan, math.nan, 0),
            ([40, None], 40.0, 0.0, 1),
            ([], math.nan, math.nan, 0),
        ],
    )
    def test_statistics_derive_from_the_epochs(self, epochs, mean, std, n_converged):
        summary = RuleSummary(UpdateRule.POWER_LAW, 1.1, epochs)
        assert summary.converged == [e for e in epochs if e is not None]
        assert (summary.n_converged, summary.n_trials) == (n_converged, len(epochs))
        assert summary.mean == mean or math.isnan(mean) and math.isnan(summary.mean)
        assert summary.std == std or math.isnan(std) and math.isnan(summary.std)
        assert type(summary.mean) is type(summary.std) is float


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
        (result,) = lr_sweep(config, [UpdateRule.LINEAR])
        assert result.rule is UpdateRule.LINEAR
        assert [p.lr_hidden for p in result.points] == [0.7, 0.75, 0.8]
        assert result.best_lr in (0.7, 0.75, 0.8)
        penalized = [p.penalized_mean(config.max_epochs) for p in result.points]
        winners = [p.lr_hidden for p, pm in zip(result.points, penalized) if pm == min(penalized)]
        assert result.best_lr == min(winners)  # ties break toward smaller lr

    def test_smallest_step_gives_distinct_rates(self):
        # a start off the 10-decimal grid is where rounding can merge rates
        start = 0.40000000005
        config = ExperimentConfig(
            lr_sweep_from=start, lr_sweep_to=start + 1e-6, lr_sweep_step=harness.SWEEP_SLACK
        )
        grid = sweep_grid(config)
        assert len(grid) == len(set(grid)) == 1001

    def test_grid_size_bound(self):
        # a binary step keeps every grid point exact, so the count is unambiguous
        step, n = 2.0**-10, harness.SWEEP_MAX_POINTS
        largest = ExperimentConfig(
            lr_sweep_from=1.0, lr_sweep_to=1.0 + (n - 1) * step, lr_sweep_step=step
        )
        assert len(sweep_grid(largest)) == n
        with pytest.raises(ValueError, match="more than"):
            ExperimentConfig(lr_sweep_from=1.0, lr_sweep_to=1.0 + n * step, lr_sweep_step=step)

    def test_penalized_mean_counts_stalled_trials_as_max_epochs(self):
        epochs = [10, None, 30, None]
        summary = RuleSummary(UpdateRule.LINEAR, 0.75, epochs)
        assert summary.penalized_mean(100) == (10 + 100 + 30 + 100) / 4

    @pytest.mark.parametrize("best, on_edge", [(0.7, True), (0.75, False), (0.8, True)])
    def test_best_on_edge(self, best, on_edge):
        points = [
            RuleSummary(UpdateRule.LINEAR, lr, [90, 100, 110])
            for lr in (0.7, 0.75, 0.8)
        ]
        assert SweepResult(UpdateRule.LINEAR, points, best).best_on_edge is on_edge


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
        assert 0.0 <= report.welch.p_two_sided <= 1.0
        assert report.welch.p_one_sided == pytest.approx(report.welch.p_two_sided / 2.0)

    def test_statistics_unavailable_when_nothing_converges(self):
        # below the goal floor compare_rules refuses the run before training;
        # at the floor every lane trains, and it fails after training, when
        # none converged
        floor = goal_floor_epoch(small_config(goal=0.99, max_epochs=10**6))
        assert floor == 392
        for max_epochs, error, message in [
            (5, ConfigError, "no trial can reach goal"),
            (floor, StatisticsUnavailableError, r"got 0 \(powerlaw\) and 0 \(linear\)"),
        ]:
            config = small_config(n_trials=3, max_epochs=max_epochs, goal=0.99)
            with pytest.raises(error, match=message):
                compare_rules(config)

    def test_single_trial_rejected_before_any_lane_starts(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a lane started")

        monkeypatch.setattr(harness, "_run_batch", no_training)
        with pytest.raises(ValueError, match="n_trials >= 2"):
            compare_rules(small_config(n_trials=1))

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_rejected_before_any_lane_starts(self, monkeypatch, parallelism):
        def no_training(*args, **kwargs):
            raise AssertionError("a lane started")

        monkeypatch.setattr(harness, "_run_batch", no_training)
        with pytest.raises(ConfigError, match="parallelism must be >= 1"):
            compare_rules(small_config(max_epochs=300), parallelism=parallelism)

    def test_cap_below_the_goal_floor_rejected_before_any_lane_starts(self, monkeypatch):
        class Started(Exception):
            pass

        def no_training(*args, **kwargs):
            raise Started

        monkeypatch.setattr(harness, "_run_batch", no_training)
        with pytest.raises(ConfigError, match="max_epochs 299"):
            compare_rules(small_config(max_epochs=299))
        with pytest.raises(Started):  # at the floor a trial could converge: it trains
            compare_rules(small_config(max_epochs=300))


class TestGoalFloorEpoch:
    """goal_floor_epoch is the goal epoch of a lane rewarded at every
    presentation, through run_epoch's own filter."""

    @pytest.mark.parametrize(
        "overrides, floor",
        [
            ({}, 300),  # test_constant_reward_floor_is_epoch_300
            (dict(filter_init=0.9), 139),
            (dict(goal=0.6, filter_keep=0.95, filter_gain=0.05), 1),
            (dict(goal=0.9, filter_keep=0.95, filter_gain=0.05, filter_init=0.0), 5),
            (dict(actor=ActorConfig(batch_size=7), filter_init=0.2), 495),
        ],
        ids=["defaults", "init-0.9", "fast-filter", "fast-filter-from-0", "batch-of-7"],
    )
    def test_a_lane_rewarded_at_every_presentation_reaches_the_goal_at_the_floor(
        self, overrides, floor
    ):
        config = ExperimentConfig(max_epochs=floor, **overrides)
        assert goal_floor_epoch(config) == floor
        if floor > 1:  # max_epochs is at least 1
            assert goal_floor_epoch(dataclasses.replace(config, max_epochs=floor - 1)) is None
        # the XOR actor is rewarded at every presentation
        actor = make_xor_actor(batch_size=config.actor.batch_size)
        state, epoch = config.filter_init, 0
        while state < config.goal and epoch <= floor:
            mean, filtered = one_lane_epoch(actor, config, InputSchedule(), state)
            assert mean[0] == 1.0
            state, epoch = filtered[0], epoch + 1
        assert epoch == floor


    def test_a_goal_above_the_filters_fixed_point_is_found_unreachable_at_once(self):
        # the all-rewarded filter stalls at 0.9999999999999446 after about
        # 2970 epochs, below this goal: the loop stops there, where a loop
        # to max_epochs would not end
        config = ExperimentConfig(goal=0.9999999999999999, max_epochs=10**12)
        assert goal_floor_epoch(config) is None

    def test_a_slow_filter_is_found_unable_to_reach_the_goal_in_time_at_once(self):
        # a filter that moves by about 1e-13 per presentation would reach the
        # default goal after about 3e12 epochs; stepping it to max_epochs would
        # take hours, so the call runs in a thread that must end within seconds
        config = ExperimentConfig(filter_keep=1 - 1e-13, filter_gain=1e-13, max_epochs=10**12)
        found = []
        worker = threading.Thread(target=lambda: found.append(goal_floor_epoch(config)), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert found == [None]

    def test_the_float_filter_reaching_the_goal_ahead_of_the_real_one_is_kept(self):
        # the float filter stalls at 0.9999999999999446, and reaches it at
        # epoch 2970; the real recursion reaches it only at epoch 2984, so a
        # bound from real arithmetic alone, not widened by the float
        # recursion's rounding, would return None at max_epochs = 2970
        config = ExperimentConfig(goal=0.9999999999999446, max_epochs=2970)
        assert goal_floor_epoch(config) == 2970
        assert goal_floor_epoch(dataclasses.replace(config, max_epochs=2969)) is None
        keep, gain, init = config.filter_keep, config.filter_gain, config.filter_init
        fix = gain / (1 - keep)
        real = math.log((fix - config.goal) / (fix - init)) / math.log(keep) / config.actor.batch_size
        assert math.ceil(real) == 2984


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"goal": 0.0},
            {"goal": 1.0},
            {"filter_keep": 0.9, "filter_gain": 0.0011},
            {"filter_keep": 1.5, "filter_gain": -0.5},  # sums to 1, but the filter leaves [0, 1]
            {"filter_keep": 1.0, "filter_gain": 0.0},  # the filter never moves
            {"filter_init": 1.5},
            {"lr_sweep_step": 0.0},
            {"lr_sweep_step": 1e-11},  # below the sweep grid's resolution
            {"lr_sweep_from": 2.0, "lr_sweep_to": 1.0},
            {"lr_sweep_from": math.nan},
            {"lr_sweep_to": math.inf},
            {"lr_sweep_step": math.nan},
            {"master_seed": -1},
            {"n_trials": 0},
            {"lr_sweep_step": 1e-9},  # a sweep grid of 8.5e8 rates
            {"lr_sweep_to": 1e308},
            # the sum is 1 only to within 1e-12, but the filter leaves [0, 1]
            {"filter_keep": 1.0000000000005, "filter_gain": 1e-13},
            {"filter_keep": -5e-13, "filter_gain": 1.0},
            {"filter_keep": 1 - 1e-14, "filter_gain": 1e-13},  # fixed point 10
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_every_complementary_three_decimal_filter_loads(self):
        # each such pair sums to exactly 1.0 in float, so the check that the
        # float sum is at most 1 refuses none of them
        for k in range(1, 1001):
            ExperimentConfig(filter_keep=float(f"{(1000 - k) / 1000:.3f}"),
                             filter_gain=float(f"{k / 1000:.3f}"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float"]
    )
    def test_non_finite_rejected(self, field, value):
        # every float field, by the finiteness check before any range check
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ExperimentConfig(**{field: value})
