import copy
import math

import numpy as np
import pytest

from spinsyn.actor import (
    ActorConfig,
    ActorNetwork,
    UpdateRule,
    sigmoid_of_negated,
    sum_rows,
    threshold_power_update,
)
from spinsyn.critic import CriticConfig, CriticNetwork
from oracles import sigmoid


# the power-law arm's default hidden-layer rate
LR = 1.1


def make_net(config=None, **overrides):
    config = config or ActorConfig(**overrides)
    return ActorNetwork.initialize(config, [np.random.default_rng(0)], [LR])


def one_input_net(alpha_flip, lr):
    """One lane of a single hidden unit on a single input, all parameters 0.

    initialize builds XOR's two inputs; the constructor takes the input
    width from w_hidden.
    """
    return ActorNetwork(
        ActorConfig(n_hidden=1, alpha_flip=alpha_flip),
        w_hidden=np.zeros((1, 1, 1)),
        b_hidden=np.zeros((1, 1)),
        w_out=np.zeros((1, 1)),
        b_out=np.zeros(1),
        update_rules=[UpdateRule.POWER_LAW],
        lr_hidden=[lr],
    )


def step_uniforms(rng, net, batch=1):
    """One lane's forward uniforms for a batch of presentations, (batch, 1,
    ...): per presentation, hidden proposals, hidden flips, output proposal
    and flip."""
    return rng.random((batch, 1, 2 * net.config.n_hidden + 2))


def forward_at(net, t, r_bar):
    """forward at presentation t of the batch after a critic read r_bar,
    written into row t of the actor's r_bar as run_epoch has the critic
    do; returns the output bits."""
    net.r_bar[t] = r_bar
    return net.forward(t)


def present(net, x, r_bar, u):
    """A batch of one presentation: inputs x (lanes, n_in), uniforms u
    (1, lanes, 2 * n_hidden + 2); returns the output bits."""
    net.propose(np.asarray(x, dtype=float)[None], u)
    return forward_at(net, 0, r_bar)


def zero_sums(net):
    """Zero batch sums in place of an accumulate call, for
    apply_batch_update, written through the acc_* views."""
    for name in ("acc_w_hidden", "acc_b_hidden", "acc_w_out", "acc_b_out"):
        getattr(net, name)[...] = 0.0


def copies(net, n):
    """The one-lane network net repeated as n lanes of one batch."""
    net.select(np.zeros(n, dtype=int))
    return net


def logistic(z):
    """sigmoid_of_negated of -z for a float z, as a float."""
    return float(sigmoid_of_negated(np.array(-z), out=np.empty(())))


class TestSigmoid:
    def test_zero(self):
        assert logistic(0.0) == 0.5

    def test_symmetry(self):
        for z in (-3.7, -1.0, 0.2, 5.5):
            assert logistic(z) + logistic(-z) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        # high-precision oracle: 1/(1+exp(-2))
        assert logistic(2.0) == pytest.approx(0.8807970779778823, rel=1e-15)

    def test_extreme_arguments_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert logistic(1e4) == 1.0
            assert 0.0 < logistic(-1e4) < 1e-300

    def test_vectorized(self):
        z = np.array([-1.0, 0.0, 1.0])
        out = np.empty(3)
        assert sigmoid_of_negated(-z, out=out) is out
        assert np.all(np.diff(out) > 0)
        assert out[0] == sigmoid(-1.0)


class TestThresholdPowerUpdate:
    def test_dead_zone_inclusive(self):
        assert threshold_power_update(0.4, 0.4, 1.75) == 0.0
        assert threshold_power_update(-0.4, 0.4, 1.75) == 0.0
        assert threshold_power_update(0.1, 0.4, 1.75) == 0.0

    def test_unit_magnitudes_pass_through(self):
        assert threshold_power_update(1.0, 0.4, 1.75) == 1.0
        assert threshold_power_update(-1.0, 0.4, 1.75) == -1.0

    def test_reference_value(self):
        # oracle: 0.5**1.75 evaluated in extended precision
        assert threshold_power_update(0.5, 0.4, 1.75) == pytest.approx(
            0.29730177875068026, abs=1e-12
        )

    def test_odd_symmetry_exact(self):
        grid = np.linspace(-3.0, 3.0, 20_001)
        f = threshold_power_update(grid, 0.4, 1.75)
        f_neg = threshold_power_update(-grid, 0.4, 1.75)
        assert np.array_equal(f_neg, -f)

    def test_monotone_and_contractive_below_one(self):
        grid = np.linspace(-3.0, 3.0, 100_001)
        f = threshold_power_update(grid, 0.4, 1.75)
        assert np.all(np.diff(f) >= 0)
        inside = np.abs(grid) <= 1.0
        assert np.all(np.abs(f[inside]) <= np.abs(grid[inside]))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_flip": -0.1},
            {"alpha_flip": 1.5},
            {"batch_size": 0},
            {"dw_min": -0.2},
            {"power_exponent": 0.0},
            {"n_hidden": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ActorConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["dw_min", "power_exponent", "alpha_flip"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            ActorConfig(**{field: value})


class TestInitialize:
    def test_bounds_and_zero_biases(self):
        net = make_net()
        assert np.all(np.abs(net.w_hidden) <= 1 / np.sqrt(2))
        assert np.all(np.abs(net.w_out) <= 1 / np.sqrt(10))
        assert np.all(net.b_hidden == 0.0)
        assert np.all(net.b_out == 0.0)
        # the batch sums are sized with the lanes and start at zero
        for name in ("acc_w_hidden", "acc_b_hidden", "acc_w_out", "acc_b_out"):
            param = getattr(net, name[len("acc_"):])
            assert getattr(net, name).shape == param.shape
            assert np.all(getattr(net, name) == 0.0)

    def test_hidden_weights_are_each_draw_transposed_and_contiguous(self):
        # each lane draws (n_hidden, 2) hidden weights, then its output
        # weights, and stores the hidden draw input-major
        config = ActorConfig()
        net = ActorNetwork.initialize(
            config, [np.random.default_rng(s) for s in (3, 4, 5)], [LR] * 3
        )
        for lane, seed in enumerate((3, 4, 5)):
            rng = np.random.default_rng(seed)
            bound = 1 / np.sqrt(2)
            expected = rng.uniform(-bound, bound, (config.n_hidden, 2)).T
            assert np.array_equal(net.w_hidden[lane], expected)
            bound = 1 / np.sqrt(config.n_hidden)
            assert np.array_equal(net.w_out[lane], rng.uniform(-bound, bound, config.n_hidden))
        assert net.w_hidden.shape == (3, 2, config.n_hidden)
        assert net.w_hidden.flags.c_contiguous
        net.select(np.array([2, 0]))
        assert net.w_hidden.flags.c_contiguous

    def test_uniform_symmetry_monte_carlo(self):
        # 1e5 hidden weights in one network; mean should vanish within 3 SE
        config = ActorConfig(n_hidden=50_000)
        net = ActorNetwork.initialize(config, [np.random.default_rng(42)], [LR])
        samples = net.w_hidden.ravel()
        bound = 1 / np.sqrt(2)
        se = bound / np.sqrt(3) / np.sqrt(samples.size)
        assert abs(samples.mean()) < 3 * se


class TestForward:
    def test_zero_net_gives_half_probabilities(self):
        net = make_net()
        net.w_hidden[:] = 0.0
        net.w_out[:] = 0.0
        rng = np.random.default_rng(1)
        present(net, [[1.0, 0.0]], [0.5], step_uniforms(rng, net))
        assert np.all(net.p_hidden == 0.5)
        assert np.all(net.p_out == 0.5)

    def test_full_reward_disables_flips(self):
        # the proposals follow from the uniforms, so the emitted bits must equal them
        net = make_net()
        rng = np.random.default_rng(2)
        n_hidden = net.config.n_hidden
        u = step_uniforms(rng, net, batch=200)
        net.propose(np.ones((200, 1, 2)), u)
        for t in range(200):
            forward_at(net, t, 1.0)
        assert np.all(net.p_flip == 0.0)
        proposed_hidden = u[..., :n_hidden] < net.p_hidden
        proposed_out = u[..., 2 * n_hidden] < net.p_out
        assert np.array_equal(proposed_hidden, net.y_hidden == 1.0)
        assert np.array_equal(proposed_out, net.y_out == 1.0)

    def test_critic_prediction_meets_the_rbar_contract(self):
        # forward takes r_bar in [0, 1] unclamped; the critic's prediction,
        # which run_epoch passes, stays there even at weights of +-1e6
        lanes = 64
        critic = CriticNetwork.initialize(
            CriticConfig(), [np.random.default_rng(s) for s in range(lanes)]
        )
        signs = np.random.default_rng(4)
        critic.w_hidden[:] = 1e6 * signs.choice([-1.0, 1.0], critic.w_hidden.shape)
        critic.w_out[:] = 1e6 * signs.choice([-1.0, 1.0], critic.w_out.shape)
        patterns = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with np.errstate(over="raise", invalid="raise"):
            for neg_x in critic.negate_inputs(np.repeat(patterns[:, None], lanes, axis=1)):
                r_bar = critic.forward(neg_x, np.empty(lanes))
                assert np.all((r_bar >= 0.0) & (r_bar <= 1.0))

    def test_p_flip_is_alpha_flip_times_one_minus_rbar(self):
        config = ActorConfig()
        net = ActorNetwork.initialize(config, [np.random.default_rng(s) for s in range(3)], [LR] * 3)
        r_bar = [0.0, 0.5, 1.0]
        u = np.random.default_rng(3).random((1, 3, 2 * config.n_hidden + 2))
        present(net, np.ones((3, 2)), r_bar, u)
        assert net.p_flip[0].tolist() == [config.alpha_flip * (1 - r) for r in r_bar]

    def test_single_neuron_flip_arithmetic(self):
        # P(y=1) = p*(1-f) + (1-p)*f with p = 0.9, f = alpha*(1-0) = 0.1
        net = one_input_net(alpha_flip=0.1, lr=LR)
        p = 0.9
        net.b_hidden[:] = np.log(p / (1 - p))
        rng = np.random.default_rng(123)
        n = 100_000
        net = copies(net, n)
        present(net, np.ones((n, 1)), np.zeros(n), rng.random((1, n, 4)))
        ones = net.y_hidden.sum()
        expected = 0.9 * 0.9 + 0.1 * 0.1  # 0.82
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(ones / n - expected) < 3.5 * se

    def test_no_flip_distribution_matches_bernoulli(self):
        # alpha_flip = 0: output bit is Bernoulli(p_out) exactly
        net = one_input_net(alpha_flip=0.0, lr=LR)
        net.b_hidden[:] = 50.0  # hidden always fires
        net.w_out[:] = 0.31
        net.b_out[:] = 0.4
        p = sigmoid(0.71)
        rng = np.random.default_rng(5)
        n = 100_000
        net = copies(net, n)
        ones = present(net, np.ones((n, 1)), np.full(n, 0.5), rng.random((1, n, 4))).sum()
        se = np.sqrt(p * (1 - p) / n)
        assert abs(ones / n - p) < 3.5 * se

    def test_lanes_are_independent(self):
        # lane k of a batch emits what the same lane emits alone
        config = ActorConfig()
        rngs = [np.random.default_rng(s) for s in range(5)]
        batch = ActorNetwork.initialize(config, rngs, [LR] * 5)
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
        r_bar = np.linspace(0.1, 0.9, 5)
        u = np.random.default_rng(9).random((1, 5, 2 * config.n_hidden + 2))
        y = present(batch, x, r_bar, u)
        for k in range(5):
            alone = ActorNetwork.initialize(config, [np.random.default_rng(k)], [LR])
            assert present(alone, x[k : k + 1], r_bar[k : k + 1], u[:, k : k + 1])[0] == y[k]
            assert alone.p_hidden[:, 0].tobytes() == batch.p_hidden[:, k].tobytes()
            assert alone.p_out[:, 0] == batch.p_out[:, k]

    def test_batch_of_presentations_equals_one_at_a_time(self):
        # a batch of 10 presentations gives the bits of 10 batches of one;
        # its sums are the per-presentation terms added from zero, in order
        config = ActorConfig()
        rngs = [np.random.default_rng(s) for s in (6, 7)]
        batched = ActorNetwork.initialize(config, rngs, lr_hidden=[1.1, 0.75])
        single = ActorNetwork.initialize(
            config, [np.random.default_rng(s) for s in (6, 7)], lr_hidden=[1.1, 0.75]
        )
        draws = np.random.default_rng(8)
        x = (draws.random((10, 2, 2)) < 0.5).astype(float)
        u = draws.random((10, 2, 2 * config.n_hidden + 2))
        r_bar = draws.random((10, 2))
        r = (draws.random((10, 2)) < 0.5).astype(float)
        names = ("w_hidden", "b_hidden", "w_out", "b_out")
        expected = {name: np.zeros_like(getattr(single, name)) for name in names}
        batched.propose(x, u)
        for t in range(10):
            y = forward_at(batched, t, r_bar[t])
            assert np.array_equal(y, present(single, x[t], r_bar[t], u[t : t + 1]))
            single.accumulate(r[t : t + 1])
            for name in names:
                expected[name] += getattr(single, "acc_" + name)
        batched.accumulate(r)
        for name in names:
            assert getattr(batched, "acc_" + name).tobytes() == expected[name].tobytes()

    def test_returned_bits_keep_their_values(self):
        # forward writes row t of the batch's arrays in place; the array it
        # returns must survive the next presentation and the next batch
        net = one_input_net(alpha_flip=0.0, lr=LR)
        u = np.zeros((2, 1, 4))
        u[1, 0, 2] = 1.0  # output proposal: 1 at presentation 0, 0 at presentation 1
        net.propose(np.ones((2, 1, 1)), u)
        first = forward_at(net, 0, 0.5)
        assert first[0] == 1.0
        assert forward_at(net, 1, 0.5)[0] == 0.0
        net.propose(np.ones((2, 1, 1)), u[::-1])
        assert forward_at(net, 0, 0.5)[0] == 0.0
        assert first[0] == 1.0

    def test_batch_arrays_are_presentation_major(self):
        # (batch, lanes, ...) arrays whose presentation slices are contiguous rows
        config = ActorConfig()
        net = ActorNetwork.initialize(config, [np.random.default_rng(s) for s in range(3)], [LR] * 3)
        draws = np.random.default_rng(1)
        net.propose(
            (draws.random((10, 3, 2)) < 0.5).astype(float),
            draws.random((10, 3, 2 * config.n_hidden + 2)),
        )
        forward_at(net, 0, 0.5)
        for name in ("p_hidden", "proposed_hidden", "y_hidden", "r_bar", "p_flip", "p_out", "y_out"):
            array = getattr(net, name)
            assert array.shape[:2] == (10, 3)
            assert array[4].flags.c_contiguous, name


class TestAccumulate:
    def test_zero_prediction_error_gives_zero(self):
        net = make_net()
        u = step_uniforms(np.random.default_rng(4), net)
        present(net, [[1.0, 1.0]], [0.5], u)
        net.accumulate(np.array([[0.5]]))
        assert np.all(net.acc_w_hidden == 0.0)
        assert np.all(net.acc_w_out == 0.0)

    def test_zero_presynaptic_value_gives_zero_weight_increment(self):
        net = make_net()
        u = step_uniforms(np.random.default_rng(4), net)
        present(net, [[0.0, 1.0]], [0.5], u)
        net.accumulate(np.array([[1.0]]))
        assert np.all(net.acc_w_hidden[0, 0] == 0.0)  # x_0 = 0
        assert np.any(net.acc_w_hidden[0, 1] != 0.0)

    def test_reference_increment(self):
        # eta=1, R=1, r_bar=0.5, y=1, p=0.8, y_j=1 -> +0.1 (no flips, so the
        # emission probability equals the sigmoid value)
        net = one_input_net(alpha_flip=0.0, lr=1.0)
        net.b_hidden[:] = np.log(0.8 / 0.2)
        rng = np.random.default_rng(9)
        while True:  # draw until the hidden proposal comes out 1
            present(net, [[1.0]], [0.5], step_uniforms(rng, net))
            if net.y_hidden[0, 0, 0] == 1.0:
                break
        net.accumulate(np.array([[1.0]]))
        assert net.acc_w_hidden[0, 0, 0] == pytest.approx(0.1, rel=1e-12)

    def test_emission_probability_is_flip_adjusted(self):
        net = one_input_net(alpha_flip=0.1, lr=1.0)
        net.b_hidden[:] = np.log(0.8 / 0.2)
        u = step_uniforms(np.random.default_rng(1), net)
        present(net, [[1.0]], [0.0], u)
        q = 0.8 * 0.9 + 0.2 * 0.1
        net.accumulate(np.array([[1.0]]))
        expected = (1.0 - 0.0) * (net.y_hidden[0, 0, 0] - q) * 1.0
        assert net.acc_w_hidden[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_no_carry_in_between_batches(self):
        # a second batch without apply_batch_update sums from zero: it gives
        # the bits of a fresh copy that sees only that batch
        config = ActorConfig()
        net = ActorNetwork.initialize(config, [np.random.default_rng(5)], [LR])
        fresh = copy.deepcopy(net)
        draws = np.random.default_rng(6)
        for r_value in (1.0, 0.0):
            x = (draws.random((10, 1, 2)) < 0.5).astype(float)
            u = draws.random((10, 1, 2 * config.n_hidden + 2))
            r_bar = draws.random((10, 1))
            r = np.full((10, 1), r_value)
            net.propose(x, u)
            for t in range(10):
                forward_at(net, t, r_bar[t])
            net.accumulate(r)
        fresh.propose(x, u)
        for t in range(10):
            forward_at(fresh, t, r_bar[t])
        fresh.accumulate(r)
        for name in ("acc_w_hidden", "acc_b_hidden", "acc_w_out", "acc_b_out"):
            assert getattr(net, name).tobytes() == getattr(fresh, name).tobytes()

    @pytest.mark.parametrize("lanes", [1, 4, 20, 72, 2000])
    def test_batch_reduction_is_the_ordered_row_sum(self, lanes):
        # accumulate sums its w_hidden, w_out and bias terms, (batch, lanes,
        # n_in, n_hidden), (batch, lanes, n_hidden) and (batch, lanes,
        # n_hidden + 1), with sum_rows over the batch axis; that must be the
        # sum from +0.0, one row at a time in presentation order, also for
        # rows of one entry (one lane of one input and one hidden unit).
        # Terms of mixed magnitude make the bits depend on the order; rows
        # of -0.0 must sum to +0.0.
        def row_sum(rows):
            total = np.zeros(rows.shape[1:])
            for row in rows:
                total += row
            return total

        rng = np.random.default_rng(lanes)
        for shape in ((10, lanes, 2, 10), (10, lanes, 10), (10, lanes, 11), (10, lanes, 1, 1)):
            mixed = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, shape)
            for terms in (mixed, np.full(shape, -0.0)):
                reduced = sum_rows(terms, out=np.empty(shape[1:]))
                assert reduced.tobytes() == row_sum(terms).tobytes()
            # the mixed terms can tell the orders apart
            assert row_sum(mixed[::-1]).tobytes() != row_sum(mixed).tobytes()

    def test_per_lane_learning_rate(self):
        # the same draws at two rates: every accumulator scales with the lane's rate
        config = ActorConfig(alpha_flip=0.1)
        rngs = [np.random.default_rng(3), np.random.default_rng(3)]
        net = ActorNetwork.initialize(config, rngs, lr_hidden=[0.5, 1.0])
        u = np.repeat(np.random.default_rng(4).random((1, 1, 2 * config.n_hidden + 2)), 2, axis=1)
        present(net, [[1.0, 1.0], [1.0, 1.0]], [0.3, 0.3], u)
        net.accumulate(np.array([[1.0, 1.0]]))
        for acc in (net.acc_w_hidden, net.acc_b_hidden, net.acc_w_out, net.acc_b_out):
            assert np.allclose(acc[1], 2.0 * acc[0], rtol=1e-15, atol=0.0)

    def test_policy_gradient_expectation(self):
        # single Bernoulli neuron, x=1, no flips, R=y, baseline 0.5, eta=1:
        # E[increment] = p(1-p); Monte-Carlo mean within 3 SE
        net = one_input_net(alpha_flip=0.0, lr=1.0)
        w = 0.8
        net.w_hidden[:] = w
        p = sigmoid(w)
        rng = np.random.default_rng(77)
        n = 100_000
        net = copies(net, n)  # one presentation per lane
        present(net, np.ones((n, 1)), np.full(n, 0.5), rng.random((1, n, 4)))
        net.accumulate(net.y_hidden[..., 0])
        increments = net.acc_w_hidden[:, 0, 0]
        expected = p * (1 - p)
        se = increments.std(ddof=1) / np.sqrt(n)
        assert abs(increments.mean() - expected) < 3 * se


class TestApplyBatchUpdate:
    def _loaded_net(self, acc_value, **overrides):
        """A one-lane network with zero hidden weights whose batch sums are
        zero except acc_value in hidden weight (0, 0)."""
        net = make_net(**overrides)
        net.w_hidden[:] = 0.0
        zero_sums(net)
        net.acc_w_hidden[0, 0, 0] = acc_value
        return net

    def test_powerlaw_at_threshold_leaves_weight_unchanged(self):
        net = self._loaded_net(0.4)
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == 0.0

    def test_powerlaw_unit_accumulator(self):
        net = self._loaded_net(1.0)
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == 1.0
        net = self._loaded_net(-1.0)
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == -1.0

    def test_powerlaw_reference_value(self):
        net = self._loaded_net(0.5)
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == pytest.approx(0.29730177875068026, abs=1e-10)
        assert np.all(net.w_hidden.ravel()[1:] == 0.0)  # only the fired weight moves

    def test_linear_applies_verbatim(self):
        net = self._loaded_net(0.3, update_rule=UpdateRule.LINEAR)
        before = copy.deepcopy(net)
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == pytest.approx(0.3)
        assert np.all(net.w_hidden.ravel()[1:] == 0.0)
        for name in ("b_hidden", "w_out", "b_out"):
            assert np.array_equal(getattr(net, name), getattr(before, name))

    def test_subthreshold_change_is_dropped(self):
        net = self._loaded_net(0.3)
        net.apply_batch_update()
        assert np.all(net.w_hidden == 0.0)

    def test_bias_update_linear_by_default(self):
        net = make_net()
        net.b_hidden[:] = 0.0
        zero_sums(net)
        net.acc_b_hidden[0, 0] = 0.3  # below dw_min, applied anyway
        net.apply_batch_update()
        assert net.b_hidden[0, 0] == pytest.approx(0.3)
        assert np.all(net.b_hidden[0, 1:] == 0.0)

    def test_mixed_rules_follow_each_lane(self):
        # one linear and one power-law lane with the same sub-threshold sum
        rngs = [np.random.default_rng(0), np.random.default_rng(0)]
        net = ActorNetwork.initialize(
            ActorConfig(), rngs, [LR, LR], update_rules=[UpdateRule.LINEAR, UpdateRule.POWER_LAW]
        )
        net.w_hidden[:] = 0.0
        zero_sums(net)
        net.acc_w_hidden[:, 0, 0] = [0.3, 0.3]
        net.acc_w_hidden[:, 0, 1] = [0.5, 0.5]
        net.apply_batch_update()
        assert net.w_hidden[0, 0, 0] == pytest.approx(0.3)
        assert net.w_hidden[1, 0, 0] == 0.0
        assert net.w_hidden[0, 0, 1] == pytest.approx(0.5)
        assert net.w_hidden[1, 0, 1] == pytest.approx(0.29730177875068026, abs=1e-10)
        assert np.all(net.w_hidden[:, 0, 2:] == 0.0)
        assert np.all(net.w_hidden[:, 1] == 0.0)

    @pytest.mark.parametrize("exponent", [1.75, 2.0, 0.5, 3.0])
    def test_masked_power_law_has_the_oracles_bits(self, exponent):
        # apply_batch_update evaluates the power law only on the power-law
        # entries that fire; it must add the bits threshold_power_update
        # gives over the whole block. numpy special-cases ** at 2.0 and 0.5.
        # Power-law and linear lanes interleave, and every weight-block
        # value below lands in lanes of both rules. Some weights are -0.0,
        # which a step of -0.0 in place of 0.0 would leave negative.
        config = ActorConfig(power_exponent=exponent)
        lanes, dw_min = 6, config.dw_min
        rules = [UpdateRule.POWER_LAW, UpdateRule.LINEAR] * (lanes // 2)
        rngs = [np.random.default_rng(seed) for seed in range(lanes)]
        net = ActorNetwork.initialize(config, rngs, [LR] * lanes, rules)
        net.w_hidden[:, 0, :3] = -0.0
        net.w_out[:, :2] = -0.0
        above = np.nextafter(dw_min, np.inf)
        special = [dw_min, -dw_min, above, -above, np.nextafter(dw_min, 0.0), 0.0, -0.0,
                   -0.7, -2.5, 1e3, -1e3, 0.5, 1.0, -1.0]
        n_weights = net.w_hidden.size + net.w_out.size
        n_sums = n_weights + net.b_hidden.size + net.b_out.size
        sums = np.random.default_rng(7).uniform(-3.0, 3.0, n_sums)
        # runs of the special values, one random sum between runs
        for start in range(0, n_weights - len(special), len(special) + 1):
            sums[start : start + len(special)] = special
        # into the sums' blocks: w_hidden, w_out, then each lane's hidden
        # and output biases
        n_w = net.w_hidden.size
        net.acc_w_hidden[...] = sums[:n_w].reshape(net.w_hidden.shape)
        net.acc_w_out[...] = sums[n_w:n_weights].reshape(net.w_out.shape)
        biases = sums[n_weights:].reshape(lanes, config.n_hidden + 1)
        net.acc_b_hidden[...], net.acc_b_out[...] = biases[:, :-1], biases[:, -1]
        acc = {name: getattr(net, "acc_" + name).copy() for name in ActorNetwork.LANE_ARRAYS[:4]}
        before = {name: getattr(net, name).copy() for name in acc}
        net.apply_batch_update()
        powerlaw = np.array([rule is UpdateRule.POWER_LAW for rule in rules])
        for name in ("w_hidden", "w_out"):
            mask = powerlaw.reshape((lanes,) + (1,) * (acc[name].ndim - 1))
            step = np.where(mask, threshold_power_update(acc[name], dw_min, exponent), acc[name])
            assert (before[name] + step).tobytes() == getattr(net, name).tobytes(), name
        for name in ("b_hidden", "b_out"):
            assert (before[name] + acc[name]).tobytes() == getattr(net, name).tobytes(), name
