"""Stochastic binary actor network with reward-modulated batch updates.

Each neuron fires 1 with probability sigmoid(w.x + b); the sampled bit is
then flipped with probability alpha_flip * (1 - expected_reward), so
exploration grows where the critic predicts poor reward. Proposed weight
changes eta * (R - r_bar) * (y_i - p_i) * y_j are summed from zero over a
batch of presentations and applied at the end of the batch, either verbatim
(linear rule) or through a thresholded sign-preserving power law that
suppresses small accumulated changes and emphasizes consistent ones
(the spin-valve-style nonlinear rule).

Three semantic details of the rules are fixed, because they decide
whether the XOR benchmark converges reliably:

* p_i in (y_i - p_i) is the flip-adjusted emission probability
  p * (1 - p_flip) + (1 - p) * p_flip, not the raw sigmoid value. With
  the raw sigmoid, a saturated neuron has E[y - p] = -p_flip * (2p - 1)
  != 0 under the exploration flips, a bias that systematically deepens
  saturated local optima; the emission probability makes the term
  mean-zero.
* The actor keeps nothing but its parameters between batches, so a
  power-law weight's batch change either fires or is dropped: the plain
  reading of "accumulated changes pass only when their magnitude exceeds
  dw_min". Carrying sub-threshold values into the next batch lets weak
  but consistent gradients integrate until they fire; it only looked
  better while the critic kept the hidden unit's y_i factor in its
  update and stalled many trials. With the documented critic, 1000
  trials per arm of a trial-batched re-implementation of the training
  loop gave power-law 1200 +- 608 epochs to goal when carrying
  and 884 +- 215 (all converged) when resetting, against linear
  1428 +- 1068 (994/1000 converged). compare_rules on the
  per-presentation engine, at master seeds 12345 and 1-4, gave power-law
  means of 1092-1313 when carrying and 840-913 when resetting.
* Biases apply their accumulated change linearly every batch under both
  rules; only weights pass through the thresholded power law.

Reproduction status (tests/test_acceptance.py, 50 trials per rule at the
default config, 20 master seeds: 12345 and 1-19). Power-law beats linear
at every seed with one-sided Welch p < 0.01, and criterion 2 (long tail)
holds at all 20. Pooled over the 1000 trials per arm, power-law takes
869 +- 176 epochs (998 converged) against the paper's 896 +- 301, and
linear 1460 +- 1182 (993 converged, median 1084) against 1076 +- 484.
The linear arm's heavy tail puts its mean above the +-40% band (upper
bound 1506.4) at 8 of the 20 seeds, so criterion 1 holds at 12. At the
gate seed 12345 the linear arm gives 1339 +- 848 and criterion 1 passes,
but only because the trial-batched engine lays out each trial's random
draws differently: the per-presentation engine it replaced gave the same
distributions (875 +- 189 and 1439 +- 1207 pooled, criterion 1 at 14 of
20 seeds) and failed at the gate seed with linear 1716 +- 1589. The
linear gap is not closed. None of these readings closed it without
losing the ordering: raw-sigmoid (y - p), thresholded biases, an
output/hidden rate ratio of 1, a linear rule with the dw_min dead zone,
critic rate 0.5, critic L1 = 0, init scale x0.5 or x2, alpha_flip 0.05
or 0.2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .env import N_INPUTS


class UpdateRule(enum.Enum):
    """Batch application rule for the accumulated weight changes."""

    LINEAR = "linear"
    POWER_LAW = "powerlaw"


# The output layer learns at this fraction of the hidden-layer rate.
LR_OUT_RATIO = 0.5


@dataclass
class ActorConfig:
    """Architecture and learning hyperparameters the actor's lanes share.

    The network has a single output unit. Each lane's hidden-layer rate is
    given to ActorNetwork.initialize; the output layer learns at
    LR_OUT_RATIO of it. update_rule is what a lane uses when it is not
    given its own.
    """

    n_hidden: int = 10
    alpha_flip: float = 0.1
    batch_size: int = 10
    dw_min: float = 0.4
    update_rule: UpdateRule = UpdateRule.POWER_LAW
    power_exponent: float = 1.75

    def __post_init__(self) -> None:
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if not 0.0 <= self.alpha_flip <= 1.0:
            raise ValueError(f"alpha_flip must lie in [0, 1], got {self.alpha_flip}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dw_min < math.inf:
            raise ValueError(f"dw_min must be finite and >= 0, got {self.dw_min}")
        if not 0.0 < self.power_exponent < math.inf:
            raise ValueError(
                f"power_exponent must be finite and > 0, got {self.power_exponent}"
            )


# 0-d float64 operands for the per-presentation ufuncs: numpy converts a
# Python float operand anew on every call. On numpy 2.4.6 at 12 lanes,
# np.add(r, 1.0, out=o) took 0.89 us and np.add(r, np.array(1.0), out=o)
# 0.54 us (best of 15 runs of 10^5 calls). The bits are the same.
_ONE = np.array(1.0)
_EXP_LIMIT = np.array(709.0)

# The numpy functions of the per-presentation and per-epoch chains, bound
# once, with each ufunc's output passed positionally: a call then skips the
# attribute lookup on np and the parsing of an out keyword. On numpy 2.4.6,
# for a (20, 10) array, np.add(a, b, out=o) took 0.84 us and _add(a, b, o)
# 0.69 us (best of 5 runs of 10^5 calls). np.minimum and np.maximum are the
# exception and keep out=: numpy 2.4 deprecates a third positional argument
# to them. A copy into an existing array is a slice assignment, dst[...] =
# src, since numpy's copy function is no ufunc and goes through numpy's
# Python-level dispatcher: on numpy 2.4.6, for a (20, 10) array, the
# function took 0.33 us and a[...] = b 0.15 us (best of 5 runs of 10^5
# calls).
_absolute, _add = np.absolute, np.add
_divide, _exp, _greater = np.divide, np.exp, np.greater
_less, _multiply, _negative, _not_equal = np.less, np.multiply, np.negative, np.not_equal
_sign, _subtract, _where = np.sign, np.subtract, np.where
_sum_along = np.add.reduce


def sigmoid_of_negated(neg_z, out):
    """Logistic function 1/(1 + e^-z) of z = -neg_z, elementwise, into out
    (which may be neg_z).

    The steps min, exp, +1, divide run in place on out, so taking the
    negated pre-activation saves the negation step. The overflow guard
    min(-z, 709) is -max(z, -709) exactly: e^-z stays finite, so the result
    stays > 0. No guard on the other side is needed: for z >= 709,
    1 + e^-z rounds to 1 whether or not z is clipped, so a clip there
    changes no bit.
    """
    np.minimum(neg_z, _EXP_LIMIT, out=out)
    _exp(out, out)
    _add(out, _ONE, out)
    return _divide(_ONE, out, out)


def sum_rows(terms, out):
    """The sum of the rows of terms (batch, ...), into out: from +0.0, one
    row at a time, in order.

    np.add.reduce over the outer axis of a C-contiguous array adds whole
    rows in turn, never pairwise, as long as a row has two or more
    entries. A row of one entry would make the reduction one-dimensional,
    which numpy sums pairwise, so those rows are added one by one.
    """
    if terms[0].size > 1:
        return _sum_along(terms, 0, None, out, False, 0.0)  # axis 0, from initial 0.0
    out[...] = 0.0
    for row in terms:
        _add(out, row, out)
    return out


class InputProducts:
    """Scratch of affine_negated for weights and inputs broadcast to shape
    (..., n_in, units): the products w * neg_x, and the same products
    input-major in rows, a C-contiguous (n_in, ..., units) array."""

    def __init__(self, shape):
        nd = len(shape)
        self.products = np.empty(shape)
        self.by_input = self.products.transpose(nd - 2, *range(nd - 2), nd - 1)
        self.input_major = np.empty(self.by_input.shape)
        self.rows = tuple(self.input_major)


def affine_negated(w, neg_x, b, scratch, out):
    """-(x @ w + b) for input-major w (..., n_in, units), negated inputs
    broadcast along the units, neg_x = -x[..., None] of shape (..., n_in,
    units), and b (..., units), into out; scratch is an InputProducts of
    that shape.

    Leading axes broadcast: a lane's weights (lanes, n_in, units) meet one
    input block per lane (lanes, n_in, units), or every input block of a
    batch in presentation-major order (batch, lanes, n_in, units). The
    caller forms neg_x once per batch, so the product w * neg_x has
    operands of one shape. One copy moves the input axis of the products
    to the front, and the rows are summed one at a time, in input order,
    then b is subtracted: every ufunc has contiguous operands, and each
    element gets the same bits whatever the leading axes. Rounding is
    symmetric in sign, so the result is the negated x @ w + b up to the
    sign of a zero, which no sigmoid sees.
    """
    _multiply(w, neg_x, scratch.products)
    scratch.input_major[...] = scratch.by_input
    z, *rest = scratch.rows
    for row in rest:
        z = _add(z, row, out)
    return _subtract(z, b, out)


def threshold_power_update(acc, dw_min: float, exponent: float):
    """Thresholded sign-preserving power law sign(a)|a|^k for |a| > dw_min, else 0.

    Odd and monotone; with exponent > 1 it shrinks sub-unit magnitudes,
    so noise-level accumulated changes are suppressed.
    """
    acc = np.asarray(acc, dtype=float)
    magnitude = np.abs(acc)
    # copysign(|a|^k, a) is sign(a) * |a|^k wherever |a| > dw_min >= 0
    transformed = np.copysign(magnitude**exponent, acc)
    return np.where(magnitude > dw_min, transformed, 0.0)


class LaneNetwork:
    """A batch of independent one-hidden-layer networks: the lane arrays,
    their draw (initialize), lane selection, input negation, batch sizing,
    the hidden pass and the output pass that the actor and the critic
    share.

    Every array has a leading lane axis: w_hidden (lanes, n_in, n_hidden),
    input-major and C-contiguous, b_hidden (lanes, n_hidden), w_out
    (lanes, n_hidden) and b_out (lanes,), with the input width n_in taken
    from w_hidden's axis 1 and n_hidden from config. LANE_ARRAYS names
    every array that select keeps; a subclass's own ones have shape
    (lanes,). All arithmetic on lanes is elementwise or reduces over a
    trailing axis (or over the presentation axis, one row at a time), so
    a lane computes the same bits whatever batch it runs in.

    Both passes work on negated pre-activations. The hidden pass forms
    -(x @ w_hidden + b_hidden) from the negated inputs, and the output
    pass sum(-w_out * y_hidden) - b_out from the -w_out that
    negate_inputs forms at every batch; each then takes the sigmoid.
    Rounding is symmetric in sign, so every bit is that of the plain
    chain. A subclass gives only its initial output layer
    (_initial_output): the bound of its uniform output weights and its
    output bias.

    LANE_ARRAYS and config are all a network keeps from batch to batch:
    every other array, constant or row tuple is derived from them when
    the lanes are set (_size_to_lanes), when negate_inputs meets a batch
    of a new shape (_size_to_batch, which a subclass extends with its own
    batch arrays), or at every batch (-w_out). So a copy or a pickle
    keeps those alone and derives the rest anew, and a write to w_out
    between batches reaches the next batch.
    """

    LANE_ARRAYS = ("w_hidden", "b_hidden", "w_out", "b_out")

    def __init__(self, config, w_hidden, b_hidden, w_out, b_out):
        self.config = config
        self.w_hidden = np.asarray(w_hidden, dtype=float)
        self.b_hidden = np.asarray(b_hidden, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = np.asarray(b_out, dtype=float)
        if self.w_hidden.ndim != 3:  # before its axes are read as lanes and n_in
            raise ValueError(f"w_hidden shape {self.w_hidden.shape} is not (lanes, n_in, n_hidden)")
        lanes, n_in = self.w_hidden.shape[:2]
        hidden = (lanes, config.n_hidden)
        expected = {"w_hidden": (lanes, n_in, config.n_hidden), "b_hidden": hidden, "w_out": hidden}
        for name in self.LANE_ARRAYS:
            shape = expected.get(name, (lanes,))
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")
        self._size_to_lanes()

    @classmethod
    def initialize(cls, config, rngs: list[np.random.Generator], *args, **kwargs):
        """One fresh lane per generator, on the N_INPUTS inputs; args and
        kwargs are the subclass's own constructor arguments, after b_out.

        Each lane draws its hidden weights uniform in [-1/sqrt(N_INPUTS),
        1/sqrt(N_INPUTS)] as an (n_hidden, N_INPUTS) block, stored
        transposed, then its output weights uniform in [-bound, bound].
        Hidden biases are 0; bound and the output bias are the subclass's
        _initial_output.
        """
        bound = 1.0 / np.sqrt(N_INPUTS)
        out_bound, b_out = cls._initial_output(config)
        lanes, n_hidden = len(rngs), config.n_hidden
        w_hidden = np.empty((lanes, N_INPUTS, n_hidden))
        w_out = np.empty((lanes, n_hidden))
        for lane, rng in enumerate(rngs):
            w_hidden[lane] = rng.uniform(-bound, bound, size=(n_hidden, N_INPUTS)).T
            w_out[lane] = rng.uniform(-out_bound, out_bound, size=n_hidden)
        b_hidden = np.zeros((lanes, n_hidden))
        return cls(config, w_hidden, b_hidden, w_out, np.full(lanes, b_out), *args, **kwargs)

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in ("config",) + self.LANE_ARRAYS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._size_to_lanes()

    def _size_to_lanes(self) -> None:
        """Per-lane constants and scratch for the current lanes."""
        self._neg_inputs = np.empty(0)  # sized to the batch by negate_inputs
        self._neg_w_out = np.empty(self.w_out.shape)  # -w_out, formed by negate_inputs

    def _size_to_batch(self, shape) -> None:
        """The batch arrays for negated inputs of shape (batch, lanes, n_in,
        n_hidden), kept from batch to batch: the array negate_inputs
        writes, and the tuple of its presentation rows, neg_input_rows."""
        self._neg_inputs = np.empty(shape)
        self.neg_input_rows = tuple(self._neg_inputs)

    def select(self, lanes: np.ndarray) -> None:
        """Keep only the given lanes, in the given order."""
        for name in self.LANE_ARRAYS:
            setattr(self, name, getattr(self, name)[lanes])
        self._size_to_lanes()

    def negate_inputs(self, x) -> np.ndarray:
        """-x for a batch of inputs x (batch, lanes, n_in), broadcast along
        the hidden units to (batch, lanes, n_in, n_hidden) and C-contiguous;
        and -w_out, which the output pass reads, for the batch.

        Rejects an x of another shape. The network keeps the array, and
        the tuple of its presentation rows, neg_input_rows, from batch to
        batch, so its rows hold until the next call. A batch of a new
        shape, in its presentations or its lanes, sizes them anew, and
        every batch array of the network with them (_size_to_batch).
        -w_out is formed anew at every call, so it follows any write to
        w_out before the batch.
        """
        x = np.asarray(x, dtype=float)
        lanes, n_in, n_hidden = self.w_hidden.shape
        if x.ndim != 3 or x.shape[1:] != (lanes, n_in):
            raise ValueError(
                f"input shape {x.shape} does not match (batch, {lanes}, n_in={n_in})"
            )
        shape = x.shape + (n_hidden,)
        if self._neg_inputs.shape != shape:
            self._size_to_batch(shape)
        _negative(self.w_out, self._neg_w_out)
        return _negative(x[..., None], self._neg_inputs)

    def _hidden_pass(self, neg_x, scratch, out) -> np.ndarray:
        """The hidden units' firing probabilities sigmoid(x @ w_hidden +
        b_hidden) for negated inputs neg_x (..., lanes, n_in, n_hidden),
        into out (..., lanes, n_hidden); scratch is an InputProducts of
        neg_x's shape."""
        affine_negated(self.w_hidden, neg_x, self.b_hidden, scratch, out)
        return sigmoid_of_negated(out, out)

    def _output_pass(self, y, products, out) -> np.ndarray:
        """The output unit's firing probability sigmoid(w_out . y + b_out)
        for hidden values y (lanes, n_hidden), into out (lanes,); products
        is scratch of y's shape, and may be y."""
        _sum_along(_multiply(self._neg_w_out, y, products), -1, None, out)
        return sigmoid_of_negated(_subtract(out, self.b_out, out), out)


class ActorNetwork(LaneNetwork):
    """A batch of independent two-layer stochastic binary actors.

    Besides LaneNetwork's arrays, each lane has its own hidden-layer rate
    (lr_hidden) and update rule (the powerlaw mask; update_rules defaults
    to config's rule for every lane); config holds everything the lanes
    share. These parameters are all the actor keeps between batches, and
    all that a copy or a pickle of it holds: the per-lane constants, the
    batch sums and the scratch arrays are sized to the lanes
    (_size_to_lanes) and the batch (_size_to_batch) and derived anew.
    LaneNetwork.initialize draws fresh lanes, given lr_hidden and
    optionally update_rules, with output weights uniform in
    [-1/sqrt(n_hidden), 1/sqrt(n_hidden)] and output bias 0
    (_initial_output).

    A batch of presentations runs in three stages. The weights change only
    in apply_batch_update, so propose runs LaneNetwork's hidden pass on
    every presentation at once, for the hidden layer's firing
    probabilities and proposals. forward then runs one presentation at a
    time, because its flip probability comes from the critic's read, and
    the critic learns after every presentation: it flips the hidden
    proposals, runs the output pass on the flipped bits, samples the
    output bit and records what the update rule needs. accumulate takes the whole
    batch's rewards and sums every presentation's proposed change from
    zero, in presentation order, and apply_batch_update adds the sums to
    the parameters.

    The per-batch arrays have one (batch, lanes, ...) layout, with the
    presentation axis in front of the lane axis: propose's inputs x (batch,
    lanes, n_in), p_hidden (batch, lanes, n_hidden), the bits proposed_hidden and
    y_hidden (batch, lanes, n_hidden) and y_out (batch, lanes), and r_bar,
    p_flip and p_out (batch, lanes). Each presentation's slice [t] is one
    contiguous row that forward reads and fills in place (harness, "Memory
    layout"). _size_to_batch allocates these arrays, the rows forward
    reads, the rewards (batch, lanes) and critic_rows, each presentation's
    r_bar and rewards rows, which run_epoch hands the critic, once per
    lane set and batch size: negate_inputs calls it from propose when the
    inputs come in a new shape. propose overwrites them batch by batch;
    only y_out is new for every batch, so the bits forward returns keep
    their values for good. forward reads row t of r_bar, into which the
    critic has written its read. The batch sums, and the acc_* views that
    show them with the parameters' shapes, are sized with the lanes.
    """

    LANE_ARRAYS = LaneNetwork.LANE_ARRAYS + ("powerlaw", "lr_hidden")

    def __init__(
        self,
        config: ActorConfig,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_out: np.ndarray,
        b_out: np.ndarray,
        lr_hidden,
        update_rules=None,
    ):
        self.lr_hidden = np.asarray(lr_hidden, dtype=float)
        if update_rules is None:
            update_rules = [config.update_rule] * len(self.lr_hidden)
        self.powerlaw = np.array([r is UpdateRule.POWER_LAW for r in update_rules], dtype=bool)
        super().__init__(config, w_hidden, b_hidden, w_out, b_out)

    def _size_to_lanes(self) -> None:
        """Per-lane constants, the batch sums and per-presentation scratch
        for the current lanes."""
        super()._size_to_lanes()
        lanes, n_in, n_hidden = self.w_hidden.shape
        self._alpha_flip = np.array(self.config.alpha_flip)
        # the linear lanes' entries of the sums' weight block, and the
        # magnitude above which each entry fires: dw_min for a power-law
        # lane, inf (never) for a linear one
        linear = ~self.powerlaw
        self._linear = np.concatenate(
            [np.repeat(linear, n_in * n_hidden), np.repeat(linear, n_hidden)]
        )
        self._fire_above = np.where(self._linear, np.inf, self.config.dw_min)
        self._p_flip_hidden = np.empty((lanes, n_hidden))  # p_flip for every hidden unit
        self._flips = np.empty((lanes, n_hidden), dtype=bool)
        self._proposed_out = np.empty(lanes, dtype=bool)
        self._flip_out = np.empty(lanes, dtype=bool)
        self._products = np.empty((lanes, n_hidden))
        # the batch sums accumulate writes, in blocks, each lanes-major: the
        # w_hidden sums, the w_out sums, then the bias sums (each lane's
        # n_hidden hidden units, then its output unit); the acc_* views show
        # each block with its parameters' shape
        n_w, n_o = lanes * n_in * n_hidden, lanes * n_hidden
        self._sums = sums = np.zeros(n_w + n_o + lanes * (n_hidden + 1))
        self.acc_w_hidden = sums[:n_w].reshape(lanes, n_in, n_hidden)
        self.acc_w_out = sums[n_w : n_w + n_o].reshape(lanes, n_hidden)
        self._acc_biases = biases = sums[n_w + n_o :].reshape(lanes, n_hidden + 1)
        self.acc_b_hidden, self.acc_b_out = biases[:, :n_hidden], biases[:, n_hidden]

    def _size_to_batch(self, shape) -> None:
        """LaneNetwork's negated inputs, and the batch arrays and scratch
        of propose, forward and accumulate for a batch of presentations,
        kept from batch to batch, with the rewards, whose row t run_epoch
        fills at presentation t."""
        super()._size_to_batch(shape)
        batch, lanes, _, n_hidden = shape
        hidden = (batch, lanes, n_hidden)
        units = (batch, lanes, n_hidden + 1)
        self._inputs = InputProducts(shape)  # propose's; accumulate reuses its products
        self.p_hidden = np.empty(hidden)
        self.proposed_hidden = np.empty(hidden, dtype=bool)
        self.y_hidden = np.empty(hidden, dtype=bool)
        self._y_hidden = np.empty(hidden)  # the hidden bits as floats
        self.r_bar, self.p_flip, self.p_out = (np.empty((batch, lanes)) for _ in range(3))
        self.rewards = np.empty((batch, lanes), dtype=bool)
        # per presentation, the row the critic reads into and the rewards it learns from
        self.critic_rows = tuple(zip(self.r_bar, self.rewards))
        self._u_flips = np.empty(hidden)
        self._u_proposal_out = np.empty((batch, lanes))
        self._u_flip_out = np.empty((batch, lanes))
        self._p, self._y, self._f = np.empty(units), np.empty(units), np.empty(units)
        # every unit's rate: the lane's rate in the hidden layer, and
        # LR_OUT_RATIO of it for the output unit, in column n_hidden
        self._lr_block = np.empty(units)
        self._lr_block[..., :n_hidden] = self.lr_hidden[:, None]
        self._lr_block[..., n_hidden] = self.lr_hidden * LR_OUT_RATIO
        self._delta = np.empty((batch, lanes))
        self._errors = np.empty(units)
        self._w_out_terms = np.empty(hidden)
        # every row forward reads or writes but y_out's, one tuple per presentation
        self._rows = list(
            zip(
                self.r_bar, self.p_flip, self.p_flip[..., None], self.p_out,
                self._u_flips, self.proposed_hidden, self.y_hidden, self._y_hidden,
                self._u_proposal_out, self._u_flip_out,
            )
        )

    @staticmethod
    def _initial_output(config: ActorConfig) -> tuple[float, float]:
        """Output weights uniform in [-1/sqrt(n_hidden), 1/sqrt(n_hidden)], output bias 0."""
        return 1.0 / np.sqrt(config.n_hidden), 0.0

    def propose(self, x, u) -> None:
        """Hidden-layer pass of a whole batch of presentations.

        In the one (batch, lanes, ...) layout, x has shape (batch, lanes,
        n_in), checked by negate_inputs, and u (batch, lanes, 2 * n_hidden
        + 2): each presentation's uniforms for the hidden proposals, the
        hidden flips, the output proposal and the output flip, in that
        order. A hidden unit proposes 1 when its uniform lies below its
        firing probability. Starts a batch: forward then runs its
        presentations, and accumulate reads all of them. propose writes
        into the batch arrays the actor keeps for the lanes and batch
        size, which negate_inputs sizes anew when either changes; only
        y_out it allocates afresh.
        """
        neg_x = self.negate_inputs(x)
        batch, lanes, _, n_hidden = neg_x.shape
        p_hidden = self._hidden_pass(neg_x, self._inputs, self.p_hidden)
        _less(u[..., :n_hidden], p_hidden, self.proposed_hidden)
        # the uniforms forward reads, each in a contiguous array
        self._u_flips[...] = u[..., n_hidden : 2 * n_hidden]
        self._u_proposal_out[...] = u[..., 2 * n_hidden]
        self._u_flip_out[...] = u[..., 2 * n_hidden + 1]
        self.y_out = np.empty((batch, lanes), dtype=bool)

    def forward(self, t: int) -> np.ndarray:
        """Sample every lane's output bit at presentation t of the batch,
        given the predicted rewards in row t of r_bar, (lanes,) in [0, 1],
        which the critic's forward writes there (harness.run_epoch).

        A unit flips its proposal when its flip uniform lies below
        alpha_flip * (1 - r_bar[t]); the output unit proposes 1 when its
        uniform lies below its firing probability. Every step writes into
        row t of the batch's arrays or into scratch rows; the returned
        bits are y_out[t].
        """
        (r_bar, p_flip, p_flip_column, p_out, u_flips, proposed_hidden, y_hidden, y,
         u_proposal_out, u_flip_out) = self._rows[t]
        _multiply(self._alpha_flip, _subtract(_ONE, r_bar, p_flip), p_flip)
        self._p_flip_hidden[...] = p_flip_column
        flips = _less(u_flips, self._p_flip_hidden, self._flips)
        _not_equal(proposed_hidden, flips, y_hidden)
        y[...] = y_hidden  # the bits as floats
        self._output_pass(y, self._products, p_out)
        proposed_out = _less(u_proposal_out, p_out, self._proposed_out)
        flip_out = _less(u_flip_out, p_flip, self._flip_out)
        return _not_equal(proposed_out, flip_out, self.y_out[t])

    def accumulate(self, r) -> None:
        """Sum the batch's proposed changes, given its rewards r (batch, lanes).

        Weights get eta * (R - r_bar) * (y_i - p_i) * y_j with the presynaptic
        value y_j; biases use the same rule with y_j = 1. eta is the lane's
        rate (LR_OUT_RATIO of it in the output layer) and p_i the
        emission probability p * (1 - p_flip) + (1 - p) * p_flip, so the
        term is mean-zero under the exploration flips.

        The error terms eta * (R - r_bar) * (y_i - p_i) of the hidden units
        and the output unit are formed together, over (batch, lanes,
        n_hidden + 1); they are the bias terms. The weight terms go into
        two more arrays: (batch, lanes, n_in, n_hidden) for w_hidden, the
        hidden errors negated times propose's -x (the bits of error times
        x), and (batch, lanes, n_hidden) for w_out. Each array's rows are
        summed from zero, in presentation order (sum_rows), into its block
        of the batch sums the actor sizes with its lanes, through the
        acc_* views of the blocks: the w_hidden sums, the w_out sums, then
        the bias sums (each lane's hidden units, then its output unit).
        """
        n_hidden = self.config.n_hidden
        p, y, f, errors = self._p, self._y, self._f, self._errors
        # every unit's firing probability, the output unit's last, becomes
        # the emission probability p (1 - f) + (1 - p) f; y holds p (1 - f)
        # until it takes the bits as floats
        p[..., :n_hidden], p[..., n_hidden] = self.p_hidden, self.p_out
        f[...] = self.p_flip[..., None]
        _multiply(p, _subtract(_ONE, f, y), y)
        _add(y, _multiply(_subtract(_ONE, p, p), f, p), p)
        y[..., :n_hidden], y[..., n_hidden] = self._y_hidden, self.y_out
        _subtract(y, p, p)
        f[...] = _subtract(r, self.r_bar, self._delta)[..., None]
        _multiply(_multiply(self._lr_block, f, errors), p, errors)
        w_hidden_terms = _negative(errors[..., None, :n_hidden], self._inputs.products)
        _multiply(w_hidden_terms, self._neg_inputs, w_hidden_terms)
        _multiply(errors[..., n_hidden:], self._y_hidden, self._w_out_terms)
        sum_rows(w_hidden_terms, self.acc_w_hidden)
        sum_rows(self._w_out_terms, self.acc_w_out)
        sum_rows(errors, self._acc_biases)

    def apply_batch_update(self) -> None:
        """Add the batch sums to the parameters: the last accumulate's,
        or whatever was written through the acc_* views since.

        Biases, and every weight of a linear lane, take their sum verbatim.
        A power-law lane's weights take threshold_power_update of it:
        components at or below dw_min in magnitude are dropped. The
        weights' sums are one contiguous block. A fresh step array takes
        the linear lanes' sums and 0 elsewhere; then threshold_power_update
        runs only on the power-law entries with |a| > dw_min, the few that
        fire, and its results are written to their places. The acc_* views
        keep the raw sums. The next batch sums from zero again.
        """
        n_w = self.w_hidden.size
        weights = self._sums[: n_w + self.w_out.size]
        magnitude = _absolute(weights)
        fire = _greater(magnitude, self._fire_above).nonzero()[0]
        step = _where(self._linear, weights, 0.0)
        cfg = self.config
        step[fire] = threshold_power_update(weights[fire], cfg.dw_min, cfg.power_exponent)
        _add(self.w_hidden, step[:n_w].reshape(self.w_hidden.shape), self.w_hidden)
        _add(self.w_out, step[n_w:].reshape(self.w_out.shape), self.w_out)
        _add(self.b_hidden, self.acc_b_hidden, self.b_hidden)
        _add(self.b_out, self.acc_b_out, self.b_out)
