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
_ONE, _MINUS_ONE = np.array(1.0), np.array(-1.0)
_EXP_LIMIT = np.array(709.0)


def sigmoid_of_negated(neg_z, out, negated=False):
    """Logistic function 1/(1 + e^-z) of z = -neg_z, elementwise, into out
    (which may be neg_z); with negated, its negation -1/(1 + e^-z).

    The steps min, exp, +1, divide run in place on out, so taking the
    negated pre-activation saves the negation step. The overflow guard
    min(-z, 709) is -max(z, -709) exactly: e^-z stays finite, so the result
    stays > 0. No guard on the other side is needed: for z >= 709,
    1 + e^-z rounds to 1 whether or not z is clipped, so a clip there
    changes no bit. Division is symmetric in sign, so the negated result
    has the same bits with the sign flipped.
    """
    np.minimum(neg_z, _EXP_LIMIT, out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    return np.divide(_MINUS_ONE if negated else _ONE, out, out=out)


def sum_rows(terms, out):
    """The sum of the rows of terms (batch, ...), into out: from +0.0, one
    row at a time, in order.

    np.add.reduce over the outer axis of a C-contiguous array adds whole
    rows in turn, never pairwise, as long as a row has two or more
    entries. A row of one entry would make the reduction one-dimensional,
    which numpy sums pairwise, so those rows are added one by one.
    """
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0, initial=0.0, out=out)
    out[...] = 0.0
    for row in terms:
        np.add(out, row, out=out)
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


def affine_negated(w, neg_x, b, scratch, out=None):
    """-(x @ w + b) for input-major w (..., n_in, units), negated inputs
    broadcast along the units, neg_x = -x[..., None] of shape (..., n_in,
    units), and b (..., units), into out if given; scratch is an
    InputProducts of that shape.

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
    np.multiply(w, neg_x, out=scratch.products)
    np.copyto(scratch.input_major, scratch.by_input)
    z, *rest = scratch.rows
    for row in rest:
        z = out = np.add(z, row, out=out)
    return np.subtract(z, b, out=out)


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
    their draw, lane selection and input negation that the actor and the
    critic share.

    Every array has a leading lane axis: w_hidden (lanes, n_in, n_hidden),
    input-major and C-contiguous, b_hidden (lanes, n_hidden), w_out
    (lanes, n_hidden) and b_out (lanes,), with the input width n_in taken
    from w_hidden's axis 1 and n_hidden from config. LANE_ARRAYS names
    every array that select keeps; a subclass's own ones have shape
    (lanes,). All arithmetic on lanes is elementwise or reduces over a
    trailing axis (or over the presentation axis, one row at a time), so
    a lane computes the same bits whatever batch it runs in.
    """

    LANE_ARRAYS = ("w_hidden", "b_hidden", "w_out", "b_out")

    def __init__(self, config, w_hidden, b_hidden, w_out, b_out):
        self.config = config
        self.w_hidden = np.asarray(w_hidden, dtype=float)
        self.b_hidden = np.asarray(b_hidden, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = np.asarray(b_out, dtype=float)
        lanes, n_in = self.w_hidden.shape[:2]
        hidden = (lanes, config.n_hidden)
        expected = {"w_hidden": (lanes, n_in, config.n_hidden), "b_hidden": hidden, "w_out": hidden}
        for name in self.LANE_ARRAYS:
            shape = expected.get(name, (lanes,))
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")
        self._neg_inputs = np.empty(0)  # negate_inputs's, sized to the batch
        self._size_to_lanes()

    def _size_to_lanes(self) -> None:
        """Per-lane constants and scratch for the current lanes."""

    @staticmethod
    def draw_weights(n_hidden: int, rngs: list[np.random.Generator], out_bound: float):
        """One lane's weights per generator on the N_INPUTS inputs, as
        (w_hidden, w_out): each lane draws its hidden weights uniform in
        [-1/sqrt(N_INPUTS), 1/sqrt(N_INPUTS)] as an (n_hidden, N_INPUTS)
        block, stored transposed, then its output weights uniform in
        [-out_bound, out_bound]."""
        bound = 1.0 / np.sqrt(N_INPUTS)
        w_hidden = np.empty((len(rngs), N_INPUTS, n_hidden))
        w_out = np.empty((len(rngs), n_hidden))
        for lane, rng in enumerate(rngs):
            w_hidden[lane] = rng.uniform(-bound, bound, size=(n_hidden, N_INPUTS)).T
            w_out[lane] = rng.uniform(-out_bound, out_bound, size=n_hidden)
        return w_hidden, w_out

    def select(self, lanes: np.ndarray) -> None:
        """Keep only the given lanes, in the given order."""
        for name in self.LANE_ARRAYS:
            setattr(self, name, getattr(self, name)[lanes])
        self._size_to_lanes()

    def negate_inputs(self, x) -> np.ndarray:
        """-x for a batch of inputs x (batch, lanes, n_in), broadcast along
        the hidden units to (batch, lanes, n_in, n_hidden) and C-contiguous.

        Rejects an x of another shape. The network keeps the array from
        batch to batch, so its rows hold until the next call.
        """
        x = np.asarray(x, dtype=float)
        lanes, n_in, n_hidden = self.w_hidden.shape
        if x.ndim != 3 or x.shape[1:] != (lanes, n_in):
            raise ValueError(
                f"input shape {x.shape} does not match (batch, {lanes}, n_in={n_in})"
            )
        shape = x.shape + (n_hidden,)
        if self._neg_inputs.shape != shape:
            self._neg_inputs = np.empty(shape)
        return np.negative(x[..., None], out=self._neg_inputs)


class ActorNetwork(LaneNetwork):
    """A batch of independent two-layer stochastic binary actors.

    Besides LaneNetwork's arrays, each lane has its own update rule (the
    powerlaw mask) and hidden-layer rate (lr_hidden); config holds
    everything the lanes share. These parameters are all the actor keeps
    between batches, besides per-lane constants and scratch arrays sized
    to the lanes and the batch.

    A batch of presentations runs in three stages. The weights change only
    in apply_batch_update, so propose computes the hidden layer's firing
    probabilities and proposals of every presentation at once. forward
    then runs one presentation at a time, because its flip probability
    comes from the critic's read, and the critic learns after every
    presentation: it flips the hidden proposals, samples the output bit
    and records what the update rule needs. accumulate takes the whole
    batch's rewards and sums every presentation's proposed change from
    zero, in presentation order, and apply_batch_update adds the sums to
    the parameters.

    The per-batch arrays have one (batch, lanes, ...) layout, with the
    presentation axis in front of the lane axis: propose's inputs x (batch,
    lanes, n_in), p_hidden (batch, lanes, n_hidden), the bits proposed_hidden and
    y_hidden (batch, lanes, n_hidden) and y_out (batch, lanes), and r_bar,
    p_flip and p_out (batch, lanes). propose allocates them afresh for
    every batch, so each presentation's slice [t] is one contiguous row
    that forward reads and fills in place (harness, "Memory layout"). An
    array forward returns therefore keeps its values for good.
    """

    LANE_ARRAYS = LaneNetwork.LANE_ARRAYS + ("powerlaw", "lr_hidden")

    def __init__(
        self,
        config: ActorConfig,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_out: np.ndarray,
        b_out: np.ndarray,
        update_rules,
        lr_hidden,
    ):
        self.powerlaw = np.array([r is UpdateRule.POWER_LAW for r in update_rules])
        self.lr_hidden = np.asarray(lr_hidden, dtype=float)
        self._alpha_flip = np.array(config.alpha_flip)
        super().__init__(config, w_hidden, b_hidden, w_out, b_out)

    def _size_to_lanes(self) -> None:
        """Per-lane constants and per-presentation scratch for the current lanes."""
        lanes, n_in, n_hidden = self.w_hidden.shape
        # every unit's rate: the lane's rate in the hidden layer, and
        # LR_OUT_RATIO of it for the output unit, in column n_hidden
        self._lr_units = np.empty((lanes, n_hidden + 1))
        self._lr_units[:, :n_hidden] = self.lr_hidden[:, None]
        self._lr_units[:, n_hidden] = self.lr_hidden * LR_OUT_RATIO
        # the linear lanes' entries of the sums' weight block
        linear = ~self.powerlaw
        self._linear = np.concatenate(
            [np.repeat(linear, n_in * n_hidden), np.repeat(linear, n_hidden)]
        )
        self._p_flip_hidden = np.empty((lanes, n_hidden))  # p_flip for every hidden unit
        self._flips = np.empty((lanes, n_hidden), dtype=bool)
        self._proposed_out = np.empty(lanes, dtype=bool)
        self._flip_out = np.empty(lanes, dtype=bool)
        self._products = np.empty((lanes, n_hidden))
        self._batch = 0  # the batch size propose's scratch is sized to

    def _size_to_batch(self, batch: int) -> None:
        """propose's, forward's and accumulate's scratch for a batch of
        presentations, kept from batch to batch."""
        lanes, n_in, n_hidden = self.w_hidden.shape
        block = (batch, lanes, n_in, n_hidden)
        units = (batch, lanes, n_hidden + 1)
        self._batch = batch
        self._inputs = InputProducts(block)  # propose's; accumulate reuses its products
        self._u_flips = np.empty((batch, lanes, n_hidden))
        self._u_proposal_out = np.empty((batch, lanes))
        self._u_flip_out = np.empty((batch, lanes))
        self._y_hidden = np.empty((batch, lanes, n_hidden))  # the hidden bits as floats
        self._p, self._y, self._f = np.empty(units), np.empty(units), np.empty(units)
        self._lr_block = np.empty(units)
        self._lr_block[...] = self._lr_units
        self._delta = np.empty((batch, lanes))
        self._errors = np.empty(units)
        self._w_out_terms = np.empty((batch, lanes, n_hidden))

    @classmethod
    def initialize(
        cls,
        config: ActorConfig,
        rngs: list[np.random.Generator],
        lr_hidden,
        update_rules=None,
    ) -> "ActorNetwork":
        """One fresh lane per generator: weights by draw_weights, the
        output weights uniform in [-1/sqrt(n_hidden), 1/sqrt(n_hidden)],
        and biases 0. lr_hidden and update_rules give one value per lane;
        update_rules defaults to config's.
        """
        lanes = len(rngs)
        w_hidden, w_out = cls.draw_weights(config.n_hidden, rngs, 1.0 / np.sqrt(config.n_hidden))
        return cls(
            config,
            w_hidden=w_hidden,
            b_hidden=np.zeros((lanes, config.n_hidden)),
            w_out=w_out,
            b_out=np.zeros(lanes),
            update_rules=[config.update_rule] * lanes if update_rules is None else update_rules,
            lr_hidden=lr_hidden,
        )

    def propose(self, x, u) -> None:
        """Hidden-layer pass of a whole batch of presentations.

        In the one (batch, lanes, ...) layout, x has shape (batch, lanes,
        n_in), checked by negate_inputs, and u (batch, lanes, 2 * n_hidden
        + 2): each presentation's uniforms for the hidden proposals, the
        hidden flips, the output proposal and the output flip, in that
        order. A hidden unit proposes 1 when its uniform lies below its
        firing probability. Starts a batch: forward then runs its
        presentations, and accumulate reads all of them.
        """
        neg_x = self.negate_inputs(x)
        batch, lanes, _, n_hidden = neg_x.shape
        if batch != self._batch:
            self._size_to_batch(batch)
        p_hidden = affine_negated(self.w_hidden, neg_x, self.b_hidden, self._inputs)
        self.p_hidden = sigmoid_of_negated(p_hidden, out=p_hidden)
        self.proposed_hidden = np.less(u[..., :n_hidden], p_hidden)
        # the uniforms forward reads, each in a contiguous array
        np.copyto(self._u_flips, u[..., n_hidden : 2 * n_hidden])
        np.copyto(self._u_proposal_out, u[..., 2 * n_hidden])
        np.copyto(self._u_flip_out, u[..., 2 * n_hidden + 1])
        self.y_hidden = np.empty(p_hidden.shape, dtype=bool)
        self.y_out = np.empty((batch, lanes), dtype=bool)
        self.r_bar = np.empty((batch, lanes))
        self.p_flip = np.empty((batch, lanes))
        self.p_out = np.empty((batch, lanes))
        self._neg_w_out = -self.w_out
        # every row forward reads or writes, one tuple per presentation
        self._rows = list(
            zip(
                self.r_bar, self.p_flip, self.p_flip[..., None], self.p_out,
                self._u_flips, self.proposed_hidden, self.y_hidden, self._y_hidden,
                self._u_proposal_out, self._u_flip_out, self.y_out,
            )
        )

    def forward(self, t: int, r_bar) -> np.ndarray:
        """Sample every lane's output bit at presentation t of the batch,
        given predicted rewards r_bar (lanes,) in [0, 1], such as the
        critic's forward returns.

        A unit flips its proposal when its flip uniform lies below
        alpha_flip * (1 - r_bar); the output unit proposes 1 when its
        uniform lies below its firing probability. Every step writes into
        row t of the batch's arrays or into scratch rows; the returned
        bits are y_out[t].
        """
        (rb, p_flip, p_flip_column, p_out, u_flips, proposed_hidden, y_hidden, y,
         u_proposal_out, u_flip_out, y_out) = self._rows[t]
        np.copyto(rb, r_bar)
        np.multiply(self._alpha_flip, np.subtract(_ONE, rb, out=p_flip), out=p_flip)
        np.copyto(self._p_flip_hidden, p_flip_column)
        flips = np.less(u_flips, self._p_flip_hidden, out=self._flips)
        np.not_equal(proposed_hidden, flips, out=y_hidden)
        np.copyto(y, y_hidden)  # the bits as floats
        # the output unit's negated pre-activation
        np.add.reduce(np.multiply(self._neg_w_out, y, out=self._products), axis=-1, out=p_out)
        sigmoid_of_negated(np.subtract(p_out, self.b_out, out=p_out), out=p_out)
        proposed_out = np.less(u_proposal_out, p_out, out=self._proposed_out)
        flip_out = np.less(u_flip_out, p_flip, out=self._flip_out)
        return np.not_equal(proposed_out, flip_out, out=y_out)

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
        of one fresh sums array, which load_sums takes.
        """
        lanes, n_in, n_hidden = self.w_hidden.shape
        p, y, f, errors = self._p, self._y, self._f, self._errors
        # every unit's firing probability, the output unit's last, becomes
        # the emission probability p (1 - f) + (1 - p) f; y holds p (1 - f)
        # until it takes the bits as floats
        p[..., :n_hidden], p[..., n_hidden] = self.p_hidden, self.p_out
        np.copyto(f, self.p_flip[..., None])
        np.multiply(p, np.subtract(_ONE, f, out=y), out=y)
        np.add(y, np.multiply(np.subtract(_ONE, p, out=p), f, out=p), out=p)
        y[..., :n_hidden], y[..., n_hidden] = self._y_hidden, self.y_out
        np.subtract(y, p, out=p)
        np.copyto(f, np.subtract(r, self.r_bar, out=self._delta)[..., None])
        np.multiply(np.multiply(self._lr_block, f, out=errors), p, out=errors)
        w_hidden_terms = np.negative(errors[..., None, :n_hidden], out=self._inputs.products)
        np.multiply(w_hidden_terms, self._neg_inputs, out=w_hidden_terms)
        np.multiply(errors[..., n_hidden:], self._y_hidden, out=self._w_out_terms)
        n_w, n_o = lanes * n_in * n_hidden, lanes * n_hidden
        sums = np.empty(n_w + n_o + errors[0].size)
        sum_rows(w_hidden_terms, out=sums[:n_w].reshape(lanes, n_in, n_hidden))
        sum_rows(self._w_out_terms, out=sums[n_w : n_w + n_o].reshape(lanes, n_hidden))
        sum_rows(errors, out=sums[n_w + n_o :].reshape(lanes, n_hidden + 1))
        self.load_sums(sums)

    def load_sums(self, sums: np.ndarray) -> None:
        """Take sums, lanes * ((n_in + 2) * n_hidden + 1) values in
        accumulate's layout, as the batch sums that apply_batch_update adds.

        The layout is in blocks, each lanes-major: the w_hidden sums, the
        w_out sums, then the bias sums (each lane's n_hidden hidden units,
        then its output unit).

        acc_w_hidden (lanes, n_in, n_hidden), acc_w_out, acc_b_hidden and
        acc_b_out become views of sums with the parameters' shapes.
        """
        lanes, n_in, n_hidden = self.w_hidden.shape
        n_w, n_o = lanes * n_in * n_hidden, lanes * n_hidden
        if sums.shape != (n_w + n_o + lanes * (n_hidden + 1),):
            raise ValueError(f"sums shape {sums.shape} != {(n_w + n_o + lanes * (n_hidden + 1),)}")
        self._sums = sums
        self.acc_w_hidden = sums[:n_w].reshape(lanes, n_in, n_hidden)
        self.acc_w_out = sums[n_w : n_w + n_o].reshape(lanes, n_hidden)
        biases = sums[n_w + n_o :].reshape(lanes, n_hidden + 1)
        self.acc_b_hidden, self.acc_b_out = biases[:, :n_hidden], biases[:, n_hidden]

    def apply_batch_update(self) -> None:
        """Add the last accumulate's sums to the parameters.

        Biases, and every weight of a linear lane, take their sum verbatim.
        A power-law lane's weights take threshold_power_update of it:
        components at or below dw_min in magnitude are dropped. The
        weights' sums are one contiguous block, so the power law runs once
        over every lane's block, into a fresh array that then takes the
        linear lanes' sums; the acc_* views keep the raw sums. The next
        batch sums from zero again.
        """
        cfg = self.config
        n_w = self.w_hidden.size
        weights = self._sums[: n_w + self.w_out.size]
        step = threshold_power_update(weights, cfg.dw_min, cfg.power_exponent)
        np.copyto(step, weights, where=self._linear)
        self.w_hidden += step[:n_w].reshape(self.w_hidden.shape)
        self.w_out += step[n_w:].reshape(self.w_out.shape)
        self.b_hidden += self.acc_b_hidden
        self.b_out += self.acc_b_out
