"""The lane core that the actor and the critic share (LaneNetwork): the
constructor's shape check, select, negate_inputs and the batch sizing it
triggers, each checked on both networks."""

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
    0.5; the actor reads r_bar 0.5 and applies its batch update. Returns
    the outputs (batch, lanes): the actor's bits or the critic's reads."""
    r = u[..., 0] < 0.5
    if isinstance(net, ActorNetwork):
        net.propose(x, u)
        net.r_bar[...] = 0.5
        for t in range(len(x)):
            net.forward(t)
        net.accumulate(r)
        net.apply_batch_update()
        return net.y_out
    reads = np.empty(r.shape)
    for neg_x, r_t, read in zip(net.negate_inputs(x), r, reads):
        net.forward(neg_x, read)
        net.update(r_t)
    return reads


def misshaped(value):
    """value with one more entry along its last axis."""
    if isinstance(value, list):
        return value + value[:1]
    return np.concatenate([value, value[..., :1]], axis=-1)


@pytest.mark.parametrize(
    "kind, name, change",
    [pytest.param(kind, name, misshaped, id=f"{kind}-{name}")
     for kind, net in (("actor", ActorNetwork), ("critic", CriticNetwork))
     for name in net.LANE_ARRAYS]
    # a w_hidden of too few or too many axes: one lane's first input row,
    # and the array with a trailing axis of one
    + [pytest.param(kind, "w_hidden", change, id=f"{kind}-w_hidden-{ndim}")
       for kind in ("actor", "critic")
       for ndim, change in (("1d", lambda w: w[0, 0]), ("4d", lambda w: w[..., None]))],
)
def test_constructor_rejects_a_misshaped_lane_array(kind, name, change):
    net = make(kind)
    args = {key: getattr(net, key) for key in LaneNetwork.LANE_ARRAYS}
    if kind == "actor":
        args["update_rules"] = [RULES[s] for s in (0, 1, 2)]
        args["lr_hidden"] = net.lr_hidden
    type(net)(net.config, **args)  # the arguments as they are pass
    argument = "update_rules" if name == "powerlaw" else name
    args[argument] = change(args[argument])
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


def same_parameters(net):
    """A fresh network of net's kind, built from net's parameters alone."""
    args = {name: getattr(net, name).copy() for name in LaneNetwork.LANE_ARRAYS}
    if isinstance(net, ActorNetwork):
        args["update_rules"] = [
            UpdateRule.POWER_LAW if p else UpdateRule.LINEAR for p in net.powerlaw
        ]
        args["lr_hidden"] = net.lr_hidden.copy()
    return type(net)(net.config, **args)


@pytest.mark.parametrize("kind", ["actor", "critic"])
def test_batches_of_a_new_size_give_the_bits_of_a_fresh_network(kind):
    # one network runs batches of 3, 5 and 3 presentations: each batch
    # sizes the batch arrays anew and gives the bits of a fresh network
    # with the same parameters
    net = make(kind)
    n_hidden = net.config.n_hidden
    draws = np.random.default_rng(7)
    for batch in (3, 5, 3):
        x = (draws.random((batch, 3, 2)) < 0.5).astype(float)
        u = draws.random((batch, 3, 2 * ActorConfig().n_hidden + 2))
        fresh = same_parameters(net)
        assert run_batch(net, x, u).tobytes() == run_batch(fresh, x, u).tobytes()
        for name in net.LANE_ARRAYS:
            assert getattr(net, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert len(net.neg_input_rows) == batch
        assert net.neg_input_rows[0].shape == (3, 2, n_hidden)
        if kind == "actor":
            for name in ("p_hidden", "proposed_hidden", "y_hidden"):
                assert getattr(net, name).shape == (batch, 3, n_hidden), name
            for name in ("r_bar", "p_flip", "p_out", "rewards", "y_out"):
                assert getattr(net, name).shape == (batch, 3), name
            assert len(net.critic_rows) == batch
