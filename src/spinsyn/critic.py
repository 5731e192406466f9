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

from .actor import InputProducts, LaneNetwork, _add, _multiply, _sign, _subtract


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

    The output layer never changes; its weights start uniform in [-1.25,
    1.25] and its bias at 0.5 (_initial_output). forward is LaneNetwork's
    hidden pass then its output pass, on one presentation. It keeps its
    input and its prediction, and update reuses them: the weights do not
    change between the two, so the read and the update share one forward
    pass exactly. forward and update chain their ufuncs in place on
    scratch sized to the lanes (harness, "Memory layout"). forward writes
    the prediction into the row it is given: run_epoch gives it the
    actor's r_bar row, so a presentation allocates nothing.
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

    @staticmethod
    def _initial_output(config: CriticConfig) -> tuple[float, float]:
        """Output weights uniform in [-1.25, 1.25], output bias 0.5."""
        return 1.25, 0.5

    def forward(self, neg_x, out) -> np.ndarray:
        """Predicted reward of every lane, inside [0, 1], for negated
        inputs neg_x (lanes, n_in, n_hidden): a row of negate_inputs,
        which checks the batch's shape and forms the batch's -w_out. The
        prediction goes into out, a C-contiguous float row (lanes,), which
        it returns. update reads neg_x and the prediction too.
        """
        hidden = self._hidden_pass(neg_x, self._inputs, self._hidden)
        self._neg_x = neg_x
        self.prediction = prediction = self._output_pass(hidden, hidden, out)
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
