"""The lane core that the actor and the critic share (LaneNetwork): the
constructor's shape check, select and negate_inputs, each checked on both
networks."""

import numpy as np
import pytest

from spinsyn.actor import ActorConfig, ActorNetwork, LaneNetwork, UpdateRule
from spinsyn.critic import CriticConfig, CriticNetwork

# every lane's own rate and rule, by its seed
RATES = [1.1, 0.75, 0.9]
RULES = [UpdateRule.POWER_LAW, UpdateRule.POWER_LAW, UpdateRule.LINEAR]


def make(kind, seeds=(0, 1, 2)):
    """A fresh network of kind "actor" or "critic", one lane per seed."""
    rngs = [np.random.default_rng(s) for s in seeds]
    if kind == "actor":
        return ActorNetwork.initialize(
            ActorConfig(), rngs, [RATES[s] for s in seeds], [RULES[s] for s in seeds]
        )
    return CriticNetwork.initialize(CriticConfig(), rngs)


def run_batch(net, x, u):
    """One batch of presentations of inputs x (batch, lanes, n_in) with
    uniforms u (batch, lanes, 2 * n_hidden + 2), rewarded where u[..., 0] <
    0.5; the actor reads r_bar 0.5 and applies its batch update."""
    r = u[..., 0] < 0.5
    if isinstance(net, ActorNetwork):
        net.propose(x, u)
        for t in range(len(x)):
            net.forward(t, np.full(x.shape[1], 0.5))
        net.accumulate(r)
        net.apply_batch_update()
    else:
        for neg_x, r_t in zip(net.negate_inputs(x), r):
            net.forward(neg_x)
            net.update(r_t)


def misshaped(value):
    """value with one more entry along its last axis."""
    if isinstance(value, list):
        return value + value[:1]
    return np.concatenate([value, value[..., :1]], axis=-1)


@pytest.mark.parametrize(
    "kind, name",
    [("actor", name) for name in ActorNetwork.LANE_ARRAYS]
    + [("critic", name) for name in CriticNetwork.LANE_ARRAYS],
)
def test_constructor_rejects_a_misshaped_lane_array(kind, name):
    net = make(kind)
    args = {key: getattr(net, key) for key in LaneNetwork.LANE_ARRAYS}
    if kind == "actor":
        args["update_rules"] = [RULES[s] for s in (0, 1, 2)]
        args["lr_hidden"] = net.lr_hidden
    type(net)(net.config, **args)  # the arguments as they are pass
    argument = "update_rules" if name == "powerlaw" else name
    args[argument] = misshaped(args[argument])
    with pytest.raises(ValueError, match=f"^{name} shape"):
        type(net)(net.config, **args)


@pytest.mark.parametrize("kind", ["actor", "critic"])
def test_select_keeps_every_lane_array_in_order(kind):
    # the selected lanes hold their arrays in the given order, and a batch
    # then gives the bits of a network built from those lanes alone
    net, alone = make(kind), make(kind, seeds=(2, 0))
    before = {name: getattr(net, name).copy() for name in net.LANE_ARRAYS}
    net.select(np.array([2, 0]))
    for name in net.LANE_ARRAYS:
        assert getattr(net, name).tobytes() == before[name][[2, 0]].tobytes(), name
        assert getattr(net, name).tobytes() == getattr(alone, name).tobytes(), name
    draws = np.random.default_rng(5)
    x = (draws.random((10, 2, 2)) < 0.5).astype(float)
    u = draws.random((10, 2, 2 * ActorConfig().n_hidden + 2))
    run_batch(net, x, u)
    run_batch(alone, x, u)
    for name in net.LANE_ARRAYS:
        assert getattr(net, name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("kind", ["actor", "critic"])
def test_negate_inputs_checks_the_batch_shape(kind):
    net = make(kind)
    n_hidden = net.config.n_hidden
    x = (np.random.default_rng(6).random((4, 3, 2)) < 0.5).astype(float)
    neg_x = net.negate_inputs(x)
    assert neg_x.shape == (4, 3, 2, n_hidden) and neg_x.flags.c_contiguous
    assert np.array_equal(neg_x, np.repeat(-x[..., None], n_hidden, axis=-1))
    for bad in (x[0], x[:, :2], np.ones((4, 3, 3))):  # 2-d, lane count, input width
        with pytest.raises(ValueError, match="input shape"):
            net.negate_inputs(bad)
        if kind == "actor":  # propose checks its inputs through negate_inputs
            with pytest.raises(ValueError, match="input shape"):
                net.propose(bad, np.zeros((4, 3, 2 * n_hidden + 2)))
