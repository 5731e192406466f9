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
# Python float operand anew on every call, a quarter of the cost of a
# ufunc on a few lanes. The bits are the same.
_ZERO, _ONE, _NEG_EXP_LIMIT = np.array(0.0), np.array(1.0), np.array(-709.0)


def sigmoid(z, out=None):
    """Logistic function 1/(1 + e^-z), elementwise, into out.

    out may be z itself; without it the result is a fresh float array (a
    numpy scalar for a scalar z). The steps max, negate, exp, +1, divide
    all run in place on out, with the bits of one fresh array per step.
    """
    if out is None:
        return sigmoid(z, np.array(z, dtype=float))[()]
    # exp overflow guard: e^-z stays finite for z >= -709, so the result
    # stays > 0. No upper guard is needed: for z >= 709, 1 + e^-z rounds to
    # 1 whether or not z is clipped, so a clip at 709 changes no bit.
    np.maximum(z, _NEG_EXP_LIMIT, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, _ONE, out=out)
    return np.divide(_ONE, out, out=out)


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b for input-major w (..., n_in, units), x (..., n_in), b (..., units).

    Leading axes broadcast: a lane's weights (lanes, n_in, units) meet one
    input per lane (lanes, n_in), or every input of a batch in
    presentation-major order (batch, lanes, n_in). One broadcast product
    gives every input's row w[..., j, :] * x[..., j], and the rows are
    summed one at a time, in input order, then b is added: for the two
    XOR inputs this is several times faster than a reduction over a
    length-2 axis, and each element gets the same bits whatever the
    leading axes.
    """
    products = w * x[..., None]
    z = products[..., 0, :]
    for j in range(1, x.shape[-1]):
        z = z + products[..., j, :]
    return z + b


def threshold_power_update(acc, dw_min: float, exponent: float):
    """Thresholded sign-preserving power law sign(a)|a|^k for |a| > dw_min, else 0.

    Odd and monotone; with exponent > 1 it shrinks sub-unit magnitudes,
    so noise-level accumulated changes are suppressed.
    """
    acc = np.asarray(acc, dtype=float)
    transformed = np.sign(acc) * np.abs(acc) ** exponent
    return np.where(np.abs(acc) > dw_min, transformed, 0.0)


class ActorNetwork:
    """A batch of independent two-layer stochastic binary actors.

    Every array has a leading lane axis: w_hidden (lanes, n_in, n_hidden),
    input-major and C-contiguous, b_hidden (lanes, n_hidden), w_out
    (lanes, n_hidden), b_out (lanes,); the input width is w_hidden's
    axis 1. Each lane has its own update rule (the powerlaw mask) and
    hidden-layer rate (lr_hidden); config holds everything the lanes
    share. These parameters are all the actor keeps between batches. All
    arithmetic is elementwise or reduces over the trailing axis, so a lane
    computes the same bits whatever batch it runs in.

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

    The per-batch arrays have a presentation axis after the lane axis:
    x (lanes, batch, n_in), p_hidden and y_hidden (lanes, batch, n_hidden),
    and r_bar, p_flip, p_out and y_out (lanes, batch). propose allocates
    them afresh for every batch, presentation-major: each is a transposed
    view of a (batch, lanes, ...) array, so each presentation's slice
    [:, t] is one contiguous row that forward reads and fills in place.
    An array forward returns therefore keeps its values for good.
    """

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
        self.config = config
        self.w_hidden = np.asarray(w_hidden, dtype=float)
        self.b_hidden = np.asarray(b_hidden, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = np.asarray(b_out, dtype=float)
        lanes, n_in = self.w_hidden.shape[:2]
        self.powerlaw = np.array([r is UpdateRule.POWER_LAW for r in update_rules])
        self.lr_hidden = np.asarray(lr_hidden, dtype=float)
        expected = {
            "w_hidden": (lanes, n_in, config.n_hidden),
            "b_hidden": (lanes, config.n_hidden),
            "w_out": (lanes, config.n_hidden),
            "b_out": (lanes,),
            "powerlaw": (lanes,),
            "lr_hidden": (lanes,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")

    @classmethod
    def initialize(
        cls,
        config: ActorConfig,
        rngs: list[np.random.Generator],
        lr_hidden,
        update_rules=None,
    ) -> "ActorNetwork":
        """One fresh lane per generator on the N_INPUTS inputs: weights
        uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases 0.

        Each lane draws its hidden weights as an (n_hidden, N_INPUTS)
        block, stored transposed, then its output weights. lr_hidden and
        update_rules give one value per lane; update_rules defaults to
        config's.
        """
        bound_h = 1.0 / np.sqrt(N_INPUTS)
        bound_o = 1.0 / np.sqrt(config.n_hidden)
        lanes = len(rngs)
        w_hidden = np.empty((lanes, N_INPUTS, config.n_hidden))
        w_out = np.empty((lanes, config.n_hidden))
        for lane, rng in enumerate(rngs):
            w_hidden[lane] = rng.uniform(-bound_h, bound_h, size=(config.n_hidden, N_INPUTS)).T
            w_out[lane] = rng.uniform(-bound_o, bound_o, size=config.n_hidden)
        return cls(
            config,
            w_hidden=w_hidden,
            b_hidden=np.zeros((lanes, config.n_hidden)),
            w_out=w_out,
            b_out=np.zeros(lanes),
            update_rules=[config.update_rule] * lanes if update_rules is None else update_rules,
            lr_hidden=lr_hidden,
        )

    def select(self, lanes: np.ndarray) -> None:
        """Keep only the given lanes, in the given order."""
        for name in ("w_hidden", "b_hidden", "w_out", "b_out", "powerlaw", "lr_hidden"):
            setattr(self, name, getattr(self, name)[lanes])

    def propose(self, x, u) -> None:
        """Hidden-layer pass of a whole batch of presentations.

        x has shape (lanes, batch, n_in) and u (lanes, batch, 2 * n_hidden
        + 2): each presentation's uniforms for the hidden proposals, the
        hidden flips, the output proposal and the output flip, in that
        order. A hidden unit proposes 1 when its uniform lies below its
        firing probability. Starts a batch: forward then runs its
        presentations, and accumulate reads all of them. Any layout of x
        and u gives the same bits; presentation-major ones (x[:, t] and
        u[:, t] contiguous, as run_epoch passes them) are the fastest.
        """
        x = np.asarray(x, dtype=float)
        lanes, n_in, n_hidden = self.w_hidden.shape
        if x.ndim != 3 or (x.shape[0], x.shape[2]) != (lanes, n_in):
            raise ValueError(
                f"input shape {x.shape} does not match ({lanes}, batch, n_in={n_in})"
            )
        batch = x.shape[1]
        x_rows = np.ascontiguousarray(x.transpose(1, 0, 2))  # a no-op for presentation-major x
        self.x, self.u = x_rows.transpose(1, 0, 2), u
        p_hidden = affine(self.w_hidden, x_rows, self.b_hidden)
        sigmoid(p_hidden, out=p_hidden)
        proposed = np.empty(p_hidden.shape, dtype=bool)
        np.less(u.transpose(1, 0, 2)[..., :n_hidden], p_hidden, out=proposed)
        self.p_hidden = p_hidden.transpose(1, 0, 2)
        self.proposed_hidden = proposed.transpose(1, 0, 2)
        self.y_hidden = np.empty(p_hidden.shape).transpose(1, 0, 2)
        # four (lanes, batch) views of one presentation-major buffer
        self.r_bar, self.p_flip, self.p_out, self.y_out = np.empty((4, batch, lanes)).transpose(
            0, 2, 1
        )

    def forward(self, t: int, r_bar) -> np.ndarray:
        """Sample every lane's output bit at presentation t of the batch,
        given predicted rewards r_bar (lanes,).

        A unit flips its proposal when its flip uniform lies below
        alpha_flip * (1 - r_bar), with r_bar clamped into [0, 1]; the
        output unit proposes 1 when its uniform lies below its firing
        probability. Every step writes into row t of the batch's arrays;
        the returned bits are y_out[:, t].
        """
        n_hidden = self.b_hidden.shape[1]
        u = self.u[:, t]
        rb, p_flip, p_out, y_out = (
            self.r_bar[:, t], self.p_flip[:, t], self.p_out[:, t], self.y_out[:, t]
        )
        np.minimum(np.maximum(r_bar, _ZERO, out=rb), _ONE, out=rb)
        np.multiply(self.config.alpha_flip, np.subtract(_ONE, rb, out=p_flip), out=p_flip)
        flips = np.less(u[:, n_hidden : 2 * n_hidden], p_flip[:, None])
        y_hidden = self.y_hidden[:, t]
        y_hidden[...] = np.not_equal(self.proposed_hidden[:, t], flips, out=flips)
        np.add.reduce(self.w_out * y_hidden, axis=-1, out=p_out)
        sigmoid(np.add(p_out, self.b_out, out=p_out), out=p_out)
        y_out[...] = (u[:, 2 * n_hidden] < p_out) ^ (u[:, 2 * n_hidden + 1] < p_flip)
        return y_out

    def accumulate(self, r) -> None:
        """Sum the batch's proposed changes, given its rewards r (lanes, batch).

        Weights get eta * (R - r_bar) * (y_i - p_i) * y_j with the presynaptic
        value y_j; biases use the same rule with y_j = 1. eta is the lane's
        rate (LR_OUT_RATIO of it in the output layer) and p_i the
        emission probability p * (1 - p_flip) + (1 - p) * p_flip, so the
        term is mean-zero under the exploration flips.

        Every presentation's four terms go into one row of a contiguous
        (batch, lanes, (n_in + 2) * n_hidden + 1) buffer, and the rows are
        summed from zero, one at a time, in presentation order (np.sum may
        add pairwise). The sums are views of that one (lanes, ...) result
        with the parameters' shapes: acc_w_hidden (lanes, n_in, n_hidden),
        input-major like w_hidden, acc_b_hidden, acc_w_out and acc_b_out.
        """
        lanes, n_in, n_hidden = self.w_hidden.shape
        # presentation-major views (batch, lanes, ...) of the batch's arrays
        x, p, y = (a.transpose(1, 0, 2) for a in (self.x, self.p_hidden, self.y_hidden))
        f, r_bar, p_out, y_out = self.p_flip.T, self.r_bar.T, self.p_out.T, self.y_out.T
        delta = np.asarray(r).T - r_bar
        batch = len(delta)
        p_emit = p * (1.0 - f[..., None]) + (1.0 - p) * f[..., None]
        p_out_emit = p_out * (1.0 - f) + (1.0 - p_out) * f
        n_w = n_in * n_hidden
        terms = np.empty((batch, lanes, n_w + 2 * n_hidden + 1))
        err_hidden = np.multiply(
            (self.lr_hidden * delta)[..., None], y - p_emit, out=terms[..., n_w : n_w + n_hidden]
        )
        np.multiply(
            err_hidden[:, :, None, :],
            x[..., None],
            out=terms[..., :n_w].reshape(batch, lanes, n_in, n_hidden),  # a view
        )
        err_out = np.multiply(
            self.lr_hidden * LR_OUT_RATIO * delta, y_out - p_out_emit, out=terms[..., -1]
        )
        np.multiply(err_out[..., None], y, out=terms[..., n_w + n_hidden : -1])
        sums = np.zeros(terms.shape[1:])
        for row in terms:
            sums += row
        self.acc_w_hidden = sums[:, :n_w].reshape(lanes, n_in, n_hidden)
        self.acc_b_hidden = sums[:, n_w : n_w + n_hidden]
        self.acc_w_out = sums[:, n_w + n_hidden : -1]
        self.acc_b_out = sums[:, -1]

    def apply_batch_update(self) -> None:
        """Add the last accumulate's sums to the parameters.

        Biases, and every weight of a linear lane, take their sum verbatim.
        A power-law lane's weights take threshold_power_update of it:
        components at or below dw_min in magnitude are dropped. The next
        batch sums from zero again.
        """
        cfg = self.config
        self.b_hidden += self.acc_b_hidden
        self.b_out += self.acc_b_out
        for param, acc in ((self.w_hidden, self.acc_w_hidden), (self.w_out, self.acc_w_out)):
            powerlaw = self.powerlaw.reshape((-1,) + (1,) * (acc.ndim - 1))
            param += np.where(
                powerlaw, threshold_power_update(acc, cfg.dw_min, cfg.power_exponent), acc
            )
