"""Stochastic binary actor network with reward-modulated batch updates.

Each neuron fires 1 with probability sigmoid(w.x + b); the sampled bit is
then flipped with probability alpha_flip * (1 - expected_reward), so
exploration grows where the critic predicts poor reward. Proposed weight
changes eta * (R - r_bar) * (y_i - p_i) * y_j accumulate over a batch of
presentations and are applied at the end of the batch, either verbatim
(linear rule) or through a thresholded sign-preserving power law that
suppresses small accumulated changes and emphasizes consistent ones
(the spin-valve-style nonlinear rule).

Three semantic details of the rules are configurable because they decide
whether the XOR benchmark converges reliably (defaults in ActorConfig):

* gradient_probability: whether p_i in (y_i - p_i) is the raw sigmoid
  value or the flip-adjusted emission probability. With the raw sigmoid,
  a saturated neuron has E[y - p] = -p_flip * (2p - 1) != 0 under the
  exploration flips, a bias that systematically deepens saturated local
  optima; the emission probability makes the term mean-zero.
* carry_subthreshold: whether power-law accumulators below the update
  threshold persist into the next batch. The default resets them every
  batch, the plain reading of "accumulated changes pass only when their
  magnitude exceeds dw_min". Carrying lets weak but consistent gradients
  integrate over batches until they fire; it only looked better while the
  critic kept the hidden unit's y_i factor in its update and stalled many
  trials. With the documented critic, 1000 trials per arm of a
  trial-batched re-implementation of the training loop gave power-law
  1200 +- 608 epochs to goal when carrying and 884 +- 215 (all converged)
  when resetting, against linear 1428 +- 1068 (994/1000 converged).
  compare_rules itself, at master seeds 12345 and 1-4, gives power-law
  means of 1092-1313 when carrying and 840-913 when resetting.
* bias_update: biases can follow the same thresholded power law as the
  weights or apply their accumulated change linearly every batch.

Reproduction status (tests/test_acceptance.py, 50 trials per rule at the
default config, 20 master seeds). Power-law beats linear at every seed
with one-sided Welch p < 0.01, and criterion 2 (long tail) holds at all
20. Pooled over the 1000 trials per arm, power-law takes 875 +- 189
epochs (999 converged) against the paper's 896 +- 301, and linear
1439 +- 1207 (994 converged, median 1058) against 1076 +- 484. The
linear arm's heavy tail puts its mean above the +-40% band (upper bound
1506.4) at 6 of the 20 seeds, the gate seed 12345 among them: there the
linear arm gives 1716 +- 1589 and criterion 1 fails with
`bands linear=False` as its only false check. None of these readings
closed the linear gap without losing the ordering: raw-sigmoid
(y - p), thresholded biases, an output/hidden rate ratio of 1, a linear
rule with the dw_min dead zone, critic rate 0.5, critic L1 = 0, init
scale x0.5 or x2, alpha_flip 0.05 or 0.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class UpdateRule(enum.Enum):
    """Batch application rule for the accumulated weight changes."""

    LINEAR = "linear"
    POWER_LAW = "powerlaw"


class GradientProbability(enum.Enum):
    """Which probability enters the (y_i - p_i) factor of the update rule."""

    EMISSION = "emission"  # flip-adjusted: p*(1-p_flip) + (1-p)*p_flip
    SIGMOID = "sigmoid"  # raw Bernoulli parameter sigmoid(w.x + b)


class BiasUpdate(enum.Enum):
    """How accumulated bias changes are applied under the power-law rule."""

    LINEAR = "linear"  # biases skip the threshold/power transform
    THRESHOLDED = "thresholded"  # biases pass through the same map as weights


# The output layer learns at this fraction of the hidden-layer rate.
LR_OUT_RATIO = 0.5


@dataclass
class ActorConfig:
    """Architecture and learning hyperparameters of the actor.

    The network has a single output unit; the output-layer rate is
    derived from lr_hidden (see lr_out).
    """

    n_in: int = 2
    n_hidden: int = 10
    alpha_flip: float = 0.1
    lr_hidden: float = 1.1
    batch_size: int = 10
    dw_min: float = 0.4
    update_rule: UpdateRule = UpdateRule.POWER_LAW
    power_exponent: float = 1.75
    gradient_probability: GradientProbability = GradientProbability.EMISSION
    bias_update: BiasUpdate = BiasUpdate.LINEAR
    carry_subthreshold: bool = False

    def __post_init__(self) -> None:
        if min(self.n_in, self.n_hidden) < 1:
            raise ValueError("layer sizes must be >= 1")
        if not 0.0 <= self.alpha_flip <= 1.0:
            raise ValueError(f"alpha_flip must lie in [0, 1], got {self.alpha_flip}")
        if self.lr_hidden <= 0.0:
            raise ValueError(f"lr_hidden must be > 0, got {self.lr_hidden}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.dw_min < 0.0:
            raise ValueError(f"dw_min must be >= 0, got {self.dw_min}")
        if self.power_exponent <= 0.0:
            raise ValueError(
                f"power_exponent must be > 0, got {self.power_exponent}"
            )

    @property
    def lr_out(self) -> float:
        """Output-layer learning rate, lr_hidden * LR_OUT_RATIO."""
        return self.lr_hidden * LR_OUT_RATIO


@dataclass
class ForwardTrace:
    """Everything one forward pass recorded, as needed by the update rule.

    Per layer: the Bernoulli parameters p, the emitted bits after the
    exploration flip, and the inputs the layer saw; plus the flip
    probability that was in force.
    """

    x: np.ndarray
    p_hidden: np.ndarray
    y_hidden: np.ndarray
    p_out: np.ndarray
    y_out: np.ndarray
    flip_prob: float


def sigmoid(z):
    """Logistic function 1/(1 + e^-z), elementwise."""
    z = np.clip(z, -709.0, 709.0)  # exp overflow guard; saturates far earlier
    return 1.0 / (1.0 + np.exp(-z))


def threshold_power_update(acc, dw_min: float, exponent: float):
    """Thresholded sign-preserving power law sign(a)|a|^k for |a| > dw_min, else 0.

    Odd and monotone; with exponent > 1 it shrinks sub-unit magnitudes,
    so noise-level accumulated changes are suppressed.
    """
    acc = np.asarray(acc, dtype=float)
    transformed = np.sign(acc) * np.abs(acc) ** exponent
    return np.where(np.abs(acc) > dw_min, transformed, 0.0)


class ActorNetwork:
    """Two-layer stochastic binary network with per-batch update accumulators."""

    def __init__(
        self,
        config: ActorConfig,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_out: np.ndarray,
        b_out: np.ndarray,
    ):
        self.config = config
        self.w_hidden = np.asarray(w_hidden, dtype=float)
        self.b_hidden = np.asarray(b_hidden, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = np.asarray(b_out, dtype=float)
        if self.w_hidden.shape != (config.n_hidden, config.n_in):
            raise ValueError(f"w_hidden shape {self.w_hidden.shape} mismatch")
        if self.w_out.shape != (1, config.n_hidden):
            raise ValueError(f"w_out shape {self.w_out.shape} mismatch")
        self.acc_w_hidden = np.zeros_like(self.w_hidden)
        self.acc_b_hidden = np.zeros_like(self.b_hidden)
        self.acc_w_out = np.zeros_like(self.w_out)
        self.acc_b_out = np.zeros_like(self.b_out)

    @classmethod
    def initialize(cls, config: ActorConfig, rng: np.random.Generator) -> "ActorNetwork":
        """Fresh network: weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases 0."""
        bound_h = 1.0 / np.sqrt(config.n_in)
        bound_o = 1.0 / np.sqrt(config.n_hidden)
        return cls(
            config,
            w_hidden=rng.uniform(-bound_h, bound_h, size=(config.n_hidden, config.n_in)),
            b_hidden=np.zeros(config.n_hidden),
            w_out=rng.uniform(-bound_o, bound_o, size=(1, config.n_hidden)),
            b_out=np.zeros(1),
        )

    def forward(
        self, x, r_bar: float, rng: np.random.Generator
    ) -> tuple[int, ForwardTrace]:
        """Sample one output bit for input x given the predicted reward r_bar.

        r_bar is clamped into [0, 1] before the flip probability
        alpha_flip * (1 - r_bar) is computed. Draw order is fixed:
        hidden proposals, hidden flips, output proposal, output flip.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.config.n_in,):
            raise ValueError(
                f"input shape {x.shape} does not match n_in={self.config.n_in}"
            )
        r_bar = min(max(r_bar, 0.0), 1.0)
        p_flip = self.config.alpha_flip * (1.0 - r_bar)

        p_hidden = sigmoid(self.w_hidden @ x + self.b_hidden)
        proposed_hidden = rng.random(self.config.n_hidden) < p_hidden
        flips_hidden = rng.random(self.config.n_hidden) < p_flip
        y_hidden = (proposed_hidden ^ flips_hidden).astype(float)

        p_out = sigmoid(self.w_out @ y_hidden + self.b_out)
        proposed_out = rng.random(1) < p_out
        flips_out = rng.random(1) < p_flip
        y_out = (proposed_out ^ flips_out).astype(float)

        trace = ForwardTrace(
            x=x,
            p_hidden=p_hidden,
            y_hidden=y_hidden,
            p_out=p_out,
            y_out=y_out,
            flip_prob=p_flip,
        )
        return int(y_out[0]), trace

    def _gradient_probs(self, trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
        if self.config.gradient_probability is GradientProbability.SIGMOID:
            return trace.p_hidden, trace.p_out
        f = trace.flip_prob
        return (
            trace.p_hidden * (1.0 - f) + (1.0 - trace.p_hidden) * f,
            trace.p_out * (1.0 - f) + (1.0 - trace.p_out) * f,
        )

    def accumulate(self, trace: ForwardTrace, r: float, r_bar: float) -> None:
        """Add one presentation's proposed changes to the batch accumulators.

        Weights get eta * (R - r_bar) * (y_i - p_i) * y_j with the presynaptic
        value y_j; biases use the same rule with y_j = 1. p_i is the
        configured gradient probability (emission by default, so the term
        is mean-zero under the exploration flips).
        """
        p_hidden, p_out = self._gradient_probs(trace)
        delta = r - r_bar
        err_hidden = self.config.lr_hidden * delta * (trace.y_hidden - p_hidden)
        self.acc_w_hidden += np.outer(err_hidden, trace.x)
        self.acc_b_hidden += err_hidden
        err_out = self.config.lr_out * delta * (trace.y_out - p_out)
        self.acc_w_out += np.outer(err_out, trace.y_hidden)
        self.acc_b_out += err_out

    def apply_batch_update(self) -> None:
        """Fold the accumulators into the parameters.

        Linear rule: parameter += accumulator, accumulator zeroed. Power-law
        rule: weight components strictly above dw_min in magnitude are
        transformed by threshold_power_update, added, and zeroed; components
        at or below the threshold contribute nothing now and are zeroed
        too, unless carry_subthreshold keeps them integrating.
        Biases follow bias_update: linear application every batch, or the
        same thresholded map as the weights.
        """
        cfg = self.config
        powerlaw = cfg.update_rule is UpdateRule.POWER_LAW
        bias_thresholded = cfg.bias_update is BiasUpdate.THRESHOLDED
        for param, acc, is_bias in (
            (self.w_hidden, self.acc_w_hidden, False),
            (self.b_hidden, self.acc_b_hidden, True),
            (self.w_out, self.acc_w_out, False),
            (self.b_out, self.acc_b_out, True),
        ):
            if powerlaw and (not is_bias or bias_thresholded):
                fired = np.abs(acc) > cfg.dw_min
                param += threshold_power_update(acc, cfg.dw_min, cfg.power_exponent)
                if cfg.carry_subthreshold:
                    acc[fired] = 0.0
                else:
                    acc.fill(0.0)
            else:
                param += acc
                acc.fill(0.0)
