"""Sigmoidal reward predictor with fixed output weights.

A plain one-hidden-layer sigmoid network that learns the expected reward
for an input. Only the hidden layer trains; the output weights are frozen
at initialization, so (R - y_out) is the single global learning signal.
The hidden-weight rule is the deliberately simplified one

    dw_ij = lr * ((R - y_out) * w_i_out * y_j - l1_coeff * sign(w_ij))

which drops the (strictly positive) sigmoid-derivative factors
y_out * (1 - y_out) and y_i * (1 - y_i) of the true sum-squared-error
gradient but keeps its sign, plus an L1 shrinkage term on the hidden
weights. Biases train with y_j = 1 and no L1 term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actor import (
    InputProducts,
    LaneNetwork,
    _add,
    _multiply,
    _sign,
    _subtract,
    _sum_along,
    affine_negated,
    sigmoid_of_negated,
)


@dataclass
class CriticConfig:
    """Critic architecture and training hyperparameters."""

    n_hidden: int = 20
    lr: float = 1.0
    l1_coeff: float = 0.001

    def __post_init__(self) -> None:
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.l1_coeff < math.inf:
            raise ValueError(f"l1_coeff must be finite and >= 0, got {self.l1_coeff}")


class CriticNetwork(LaneNetwork):
    """A batch of independent one-hidden-layer sigmoid critics on
    LaneNetwork's arrays.

    The output layer never changes. forward keeps its input and its
    prediction, and update reuses them: the weights do not change between
    the two, so the read and the update share one forward pass exactly.

    forward works on negated pre-activations: from the negated inputs, the
    hidden layer's is -(x @ w_hidden + b_hidden), its sigmoid is formed
    negated, and the output's negated pre-activation is then
    sum(w_out * -y_hidden) - b_out. Rounding is symmetric in sign, so every
    bit is that of the plain chain. forward and update chain their ufuncs
    in place on scratch sized to the lanes (harness, "Memory layout").
    forward writes the prediction into the row it is given: run_epoch
    gives it the actor's r_bar row, so a presentation allocates nothing.
    """

    def _size_to_lanes(self) -> None:
        """The rates' 0-d constants and per-presentation scratch for the current lanes."""
        super()._size_to_lanes()
        lanes, n_in, n_hidden = self.w_hidden.shape
        self._lr, self._l1_coeff = np.array(self.config.lr), np.array(self.config.l1_coeff)
        self._inputs = InputProducts((lanes, n_in, n_hidden))
        self._hidden = np.empty((lanes, n_hidden))
        self._error = np.empty(lanes)
        self._gain = np.empty((lanes, n_hidden))
        self._step = np.empty((lanes, n_in, n_hidden))
        # the views update broadcasts from: the error along the hidden
        # units, the gain along the inputs
        self._error_column = self._error[:, None]
        self._gain_rows = self._gain[:, None, :]
        self._l1 = np.empty((lanes, n_in, n_hidden))

    @classmethod
    def initialize(
        cls, config: CriticConfig, rngs: list[np.random.Generator]
    ) -> "CriticNetwork":
        """One fresh lane per generator: weights by draw_weights, the
        output weights uniform in [-1.25, 1.25], hidden biases 0 and output
        bias 0.5."""
        lanes = len(rngs)
        w_hidden, w_out = cls.draw_weights(config.n_hidden, rngs, 1.25)
        return cls(
            config,
            w_hidden=w_hidden,
            b_hidden=np.zeros((lanes, config.n_hidden)),
            w_out=w_out,
            b_out=np.full(lanes, 0.5),
        )

    def forward(self, neg_x, out) -> np.ndarray:
        """Predicted reward of every lane, inside [0, 1], for negated
        inputs neg_x (lanes, n_in, n_hidden): a row of negate_inputs,
        which checks the batch's shape. The prediction goes into out, a
        C-contiguous float row (lanes,), which it returns. update reads
        neg_x and the prediction too.
        """
        hidden = affine_negated(self.w_hidden, neg_x, self.b_hidden, self._inputs, self._hidden)
        sigmoid_of_negated(hidden, hidden, True)  # -y_hidden
        # -(w_out . y_hidden) - b_out, the output's negated pre-activation
        prediction = _sum_along(_multiply(self.w_out, hidden, hidden), -1, None, out)
        _subtract(prediction, self.b_out, prediction)
        self._neg_x = neg_x
        self.prediction = sigmoid_of_negated(prediction, prediction)
        return prediction

    def update(self, r) -> None:
        """One training step of every lane toward its observed reward r.

        Uses the input and the prediction of the last forward call. Hidden
        weights and biases move by the simplified rule; the output layer
        is untouched. sign(0) is 0, so exactly-zero weights receive no L1
        drift. The step is formed from the negated input and the negated
        gain (prediction - r) * w_out: negation is exact, so it has the
        bits of gain * x, and subtracting lr * -gain adds lr * gain.
        """
        self._error[...] = r  # a float copy: subtracting the bools would allocate
        _subtract(self.prediction, self._error, self._error)
        self._gain[...] = self._error_column
        neg_gain = _multiply(self._gain, self.w_out, self._gain)
        self._step[...] = self._gain_rows
        step = _multiply(self._neg_x, self._step, self._step)
        l1 = _multiply(self._l1_coeff, _sign(self.w_hidden, self._l1), self._l1)
        _add(self.w_hidden, _multiply(self._lr, _subtract(step, l1, step), step), self.w_hidden)
        _subtract(self.b_hidden, _multiply(self._lr, neg_gain, neg_gain), self.b_hidden)
