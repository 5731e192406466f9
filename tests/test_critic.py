import copy
import math

import numpy as np
import pytest

from spinsyn.critic import CriticConfig, CriticNetwork
from oracles import sigmoid


def make_critic(seed=0, **overrides):
    return CriticNetwork.initialize(
        CriticConfig(**overrides), [np.random.default_rng(seed)]
    )


def predict(critic, x):
    """Every lane's prediction for inputs x (lanes, n_in), one pattern per
    lane, through negate_inputs as run_epoch does."""
    return critic.forward(critic.negate_inputs([x])[0])


def read(critic, x):
    """Prediction of a one-lane critic for one input pattern."""
    return float(predict(critic, [x])[0])


def train(critic, x, r):
    """One read-and-update step of a one-lane critic toward reward r."""
    read(critic, x)
    critic.update(np.array([r]))


class TestConfig:
    def test_defaults(self):
        cfg = CriticConfig()
        assert (cfg.n_hidden, cfg.lr, cfg.l1_coeff) == (20, 1.0, 0.001)

    @pytest.mark.parametrize(
        "kwargs", [{"lr": 0.0}, {"l1_coeff": -1e-4}, {"n_hidden": 0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CriticConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lr", "l1_coeff"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            CriticConfig(**{field: value})


class TestInitialize:
    def test_ranges_and_fixed_output_values(self):
        critic = make_critic()
        assert np.all(np.abs(critic.w_hidden) <= 1 / np.sqrt(2))
        assert np.all(critic.b_hidden == 0.0)
        assert np.all(np.abs(critic.w_out) <= 1.25)
        assert np.all(critic.b_out == 0.5)

    def test_hidden_weights_are_each_draw_transposed_and_contiguous(self):
        # each lane draws (n_hidden, 2) hidden weights, then its output
        # weights, and stores the hidden draw input-major
        cfg = CriticConfig()
        critic = CriticNetwork.initialize(cfg, [np.random.default_rng(s) for s in (3, 4, 5)])
        for lane, seed in enumerate((3, 4, 5)):
            rng = np.random.default_rng(seed)
            bound = 1 / np.sqrt(2)
            expected = rng.uniform(-bound, bound, (cfg.n_hidden, 2)).T
            assert np.array_equal(critic.w_hidden[lane], expected)
            assert np.array_equal(critic.w_out[lane], rng.uniform(-1.25, 1.25, cfg.n_hidden))
        assert critic.w_hidden.shape == (3, 2, cfg.n_hidden)
        assert critic.w_hidden.flags.c_contiguous
        critic.select(np.array([2, 0]))
        assert critic.w_hidden.flags.c_contiguous

    def test_output_weight_symmetry_monte_carlo(self):
        cfg = CriticConfig(n_hidden=100_000)
        critic = CriticNetwork.initialize(cfg, [np.random.default_rng(21)])
        se = 1.25 / np.sqrt(3) / np.sqrt(cfg.n_hidden)
        assert abs(critic.w_out.mean()) < 3 * se


class TestForward:
    def test_reference_value(self):
        critic = make_critic()
        critic.w_hidden[:] = 0.0
        critic.w_out[:] = 0.0
        # output = sigmoid(b_out) = sigmoid(0.5)
        assert read(critic, [1.0, 0.0]) == pytest.approx(
            sigmoid(0.5), rel=1e-12
        )

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        critic = make_critic()
        for _ in range(50):
            critic.w_hidden[:] = rng.normal(scale=5.0, size=critic.w_hidden.shape)
            critic.b_hidden[:] = rng.normal(scale=5.0, size=critic.b_hidden.shape)
            for x in ([0, 0], [0, 1], [1, 0], [1, 1]):
                out = read(critic, x)
                assert 0.0 < out < 1.0

    def test_returned_prediction_keeps_its_values(self):
        # forward chains its steps in place; the array it returns must
        # survive the update and the next presentation's read
        critic = CriticNetwork.initialize(
            CriticConfig(), [np.random.default_rng(s) for s in (1, 2)]
        )
        first = predict(critic, [[0.0, 1.0], [1.0, 1.0]])
        saved = first.copy()
        critic.update(np.array([1.0, 0.0]))
        second = predict(critic, [[1.0, 0.0], [0.0, 0.0]])
        assert not np.array_equal(second, saved)
        assert first.tobytes() == saved.tobytes()

    def test_pure_function(self):
        critic = make_critic(seed=5)
        x = [1.0, 1.0]
        assert read(critic, x) == read(critic, x)

    def test_lanes_are_independent(self):
        # lane k of a batch predicts what the same lane predicts alone
        cfg = CriticConfig()
        batch = CriticNetwork.initialize(cfg, [np.random.default_rng(s) for s in range(4)])
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        predicted = predict(batch, x)
        for k in range(4):
            alone = make_critic(seed=k)
            assert read(alone, x[k]) == predicted[k]


class TestUpdate:
    def test_output_layer_bit_identical_after_training(self):
        critic = make_critic(seed=7)
        w_out_before = critic.w_out.copy()
        b_out_before = critic.b_out.copy()
        rng = np.random.default_rng(8)
        for _ in range(500):
            x = rng.integers(0, 2, size=2).astype(float)
            train(critic, x, float(rng.integers(0, 2)))
        assert np.array_equal(critic.w_out, w_out_before)
        assert np.array_equal(critic.b_out, b_out_before)

    def test_reference_update_component(self):
        # R=0.8, y_out=0.5, w_out=1.0, y_j=1, w=0.2 -> 0.299; the hidden
        # unit's y_i=0.6 is part of its dropped derivative and does not enter
        y_out = 0.5
        delta = (0.8 - y_out) * 1.0 * 1.0 - 0.001 * np.sign(0.2)
        assert delta == pytest.approx(0.299, abs=1e-12)
        # the implementation produces the same number through its own path
        # one input, so built by the constructor (initialize builds XOR's two);
        # the hidden bias makes the hidden output 0.6 at x=1, and
        # w_out*y_i + b_out = 0 makes y_out = 0.5
        net = CriticNetwork(
            CriticConfig(n_hidden=1),
            w_hidden=[[[0.2]]],
            b_hidden=[[np.log(0.6 / 0.4) - 0.2]],
            w_out=[[1.0]],
            b_out=[-0.6],
        )
        before = net.w_hidden[0, 0, 0]
        train(net, [1.0], 0.8)
        assert net.w_hidden[0, 0, 0] - before == pytest.approx(0.299, abs=1e-12)

    def test_pure_l1_shrinkage_when_input_is_zero(self):
        critic = make_critic(seed=9)
        critic.w_hidden[0, 0] = 0.3
        before = critic.w_hidden.copy()
        train(critic, [0.0, 0.0], 1.0)
        # input 0's weights see y_j = 0: pure L1 pull of exactly lr*l1
        assert np.allclose(critic.w_hidden[0, 0], before[0, 0] - 0.001)

    def test_l1_moves_weights_strictly_toward_zero(self):
        critic = make_critic(seed=10)
        critic.w_hidden[0, 1] = -0.25
        before = critic.w_hidden[0, 1].copy()
        train(critic, [0.0, 0.0], 0.3)
        after = critic.w_hidden[0, 1]
        assert np.all(np.abs(after) < np.abs(before))
        assert np.allclose(after, before + 0.001)

    def test_sign_zero_injects_no_drift(self):
        critic = make_critic(seed=11)
        critic.w_hidden[:] = 0.0
        critic.b_hidden[:] = 0.0
        # y_j = 0 on both inputs: data term vanishes, sign(0) = 0
        train(critic, [0.0, 0.0], 1.0)
        assert np.all(critic.w_hidden == 0.0)

    def test_zero_error_zero_weight_no_change(self):
        cfg = CriticConfig(n_hidden=4)
        critic = CriticNetwork.initialize(cfg, [np.random.default_rng(1)])
        critic.w_hidden[:] = 0.0
        r = predict(critic, [[1.0, 1.0]])  # R = y_out exactly
        critic.update(r)
        assert np.all(critic.w_hidden == 0.0)

    def test_sign_alignment_with_finite_difference_gradient(self):
        # with l1 = 0 every sizable update component matches the sign of the
        # negative central difference of the squared error (step 1e-6)
        rng = np.random.default_rng(12)
        cfg = CriticConfig(l1_coeff=0.0)
        for _ in range(100):
            critic = CriticNetwork.initialize(cfg, [rng])
            critic.w_hidden[:] = rng.normal(scale=1.0, size=critic.w_hidden.shape)
            critic.b_hidden[:] = rng.normal(scale=1.0, size=critic.b_hidden.shape)
            x = rng.integers(0, 2, size=2).astype(float)
            r = float(rng.random())
            reference = copy.deepcopy(critic)
            train(critic, x, r)
            update = critic.w_hidden[0] - reference.w_hidden[0]
            h = 1e-6
            for i in range(cfg.n_hidden):
                for j in range(len(x)):
                    if abs(update[j, i]) <= 1e-9:
                        continue
                    w0 = reference.w_hidden[0, j, i]
                    reference.w_hidden[0, j, i] = w0 + h
                    up = (r - read(reference, x)) ** 2
                    reference.w_hidden[0, j, i] = w0 - h
                    down = (r - read(reference, x)) ** 2
                    reference.w_hidden[0, j, i] = w0
                    fd = (up - down) / (2 * h)
                    if abs(fd) <= 1e-9:
                        continue
                    assert np.sign(update[j, i]) == np.sign(-fd)


class TestFixedTableFit:
    # the critic's view of a 3-of-4 XOR policy: three patterns rewarded
    # almost always, the failing one almost never
    PATTERNS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    TARGETS = np.array([0.97, 0.97, 0.97, 0.05])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_critic_fits_every_pattern(self, seed):
        # keeping the hidden unit's y_i factor in the rule freezes units near
        # y_i = 0 and lets the rest saturate; such a critic misses its worst
        # pattern by about 0.2-0.3 after the same training
        critic = make_critic(seed=seed)
        for n in range(20_000):
            k = n % 4
            train(critic, self.PATTERNS[k], self.TARGETS[k])
        predicted = np.array([read(critic, x) for x in self.PATTERNS])
        assert np.all(np.abs(predicted - self.TARGETS) < 0.1)
