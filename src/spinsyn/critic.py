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

from .actor import InputProducts, affine_negated, sigmoid_of_negated
from .env import N_INPUTS


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


class CriticNetwork:
    """A batch of independent one-hidden-layer sigmoid critics.

    Every array has a leading lane axis: w_hidden (lanes, n_in, n_hidden),
    input-major and C-contiguous, b_hidden (lanes, n_hidden), w_out
    (lanes, n_hidden), b_out (lanes,), with the input width n_in taken from
    w_hidden's axis 1. The output layer never changes. forward keeps its
    input and its prediction, and update reuses them: the weights do not
    change between the two, so the read and the update share one forward
    pass exactly.

    forward and update run once per presentation, so they chain their
    ufuncs in place on scratch arrays that the constructor and select size
    to the lanes, instead of allocating a result per step. Only the
    prediction is fresh on every forward call, so the array forward returns
    keeps its values for good. forward works on negated pre-activations:
    from the negated inputs, the hidden layer's is -(x @ w_hidden +
    b_hidden), its sigmoid is formed negated, and the output's negated
    pre-activation is then sum(w_out * -y_hidden) - b_out. Rounding is
    symmetric in sign, so every bit is that of the plain chain.

    Every elementwise ufunc of forward and update has C-contiguous
    operands of one shape, so numpy runs it without its buffered iterator
    (only forward's reduction over the hidden units uses it). The negated
    inputs come already broadcast along the hidden units, as a
    (lanes, n_in, n_hidden) row of negate_inputs, which run_epoch calls
    once per batch. Two broadcasts stay per presentation, because they
    read the prediction: the error along the hidden units and the gain
    along the inputs. Each is a copy into scratch, which allocates
    nothing, followed by a multiply of whole arrays.
    """

    def __init__(
        self,
        config: CriticConfig,
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
        lanes, n_in = self.w_hidden.shape[:2]
        expected = {
            "w_hidden": (lanes, n_in, config.n_hidden),
            "b_hidden": (lanes, config.n_hidden),
            "w_out": (lanes, config.n_hidden),
            "b_out": (lanes,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")
        self._lr, self._l1_coeff = np.array(config.lr), np.array(config.l1_coeff)
        self._size_to_lanes()

    def _size_to_lanes(self) -> None:
        """Per-presentation scratch for the current lanes."""
        lanes, n_in, n_hidden = self.w_hidden.shape
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
        self._neg_inputs = None  # negate_inputs's, sized to the batch

    @classmethod
    def initialize(
        cls, config: CriticConfig, rngs: list[np.random.Generator]
    ) -> "CriticNetwork":
        """One fresh lane per generator on the N_INPUTS inputs: hidden
        weights uniform in [-1/sqrt(n_in), 1/sqrt(n_in)] with zero biases,
        output weights uniform in [-1.25, 1.25] with bias 0.5. Each lane
        draws its hidden weights as an (n_hidden, N_INPUTS) block, stored
        transposed, then its output weights."""
        bound = 1.0 / np.sqrt(N_INPUTS)
        lanes = len(rngs)
        w_hidden = np.empty((lanes, N_INPUTS, config.n_hidden))
        w_out = np.empty((lanes, config.n_hidden))
        for lane, rng in enumerate(rngs):
            w_hidden[lane] = rng.uniform(-bound, bound, size=(config.n_hidden, N_INPUTS)).T
            w_out[lane] = rng.uniform(-1.25, 1.25, size=config.n_hidden)
        return cls(
            config,
            w_hidden=w_hidden,
            b_hidden=np.zeros((lanes, config.n_hidden)),
            w_out=w_out,
            b_out=np.full(lanes, 0.5),
        )

    def select(self, lanes: np.ndarray) -> None:
        """Keep only the given lanes, in the given order."""
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            setattr(self, name, getattr(self, name)[lanes])
        self._size_to_lanes()

    def negate_inputs(self, x) -> np.ndarray:
        """-x for a batch of inputs x (batch, lanes, n_in), broadcast along
        the hidden units to (batch, lanes, n_in, n_hidden) and C-contiguous:
        row t is forward's neg_x for presentation t. The critic keeps the
        array from batch to batch, so the rows hold until the next call,
        which a forward call with x also makes."""
        shape = x.shape + (self.w_hidden.shape[-1],)
        if self._neg_inputs is None or self._neg_inputs.shape != shape:
            self._neg_inputs = np.empty(shape)
        return np.negative(x[..., None], out=self._neg_inputs)

    def forward(self, x=None, neg_x=None) -> np.ndarray:
        """Predicted reward of every lane for inputs x (lanes, n_in), inside [0, 1].

        A caller may pass neg_x instead of x: -x broadcast to w_hidden's
        shape (lanes, n_in, n_hidden), C-contiguous, as a row of
        negate_inputs. It is taken as it is, unchecked, and update reads it.
        Given x, forward checks its shape and negates it by negate_inputs.
        """
        if neg_x is None:
            x = np.asarray(x, dtype=float)
            lanes, n_in, _ = self.w_hidden.shape
            if x.shape != (lanes, n_in):
                raise ValueError(f"input shape {x.shape} does not match ({lanes}, n_in={n_in})")
            neg_x = self.negate_inputs(x[None])[0]
        hidden = affine_negated(
            self.w_hidden, neg_x, self.b_hidden, self._inputs, out=self._hidden
        )
        sigmoid_of_negated(hidden, out=hidden, negated=True)  # -y_hidden
        # -(w_out . y_hidden) - b_out, the output's negated pre-activation
        prediction = np.add.reduce(np.multiply(self.w_out, hidden, out=hidden), axis=-1)
        np.subtract(prediction, self.b_out, out=prediction)
        self._neg_x = neg_x
        self.prediction = sigmoid_of_negated(prediction, out=prediction)
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
        np.copyto(self._error, r)
        np.subtract(self.prediction, self._error, out=self._error)
        np.copyto(self._gain, self._error_column)
        neg_gain = np.multiply(self._gain, self.w_out, out=self._gain)
        np.copyto(self._step, self._gain_rows)
        step = np.multiply(self._neg_x, self._step, out=self._step)
        l1 = np.multiply(self._l1_coeff, np.sign(self.w_hidden, out=self._l1), out=self._l1)
        self.w_hidden += np.multiply(self._lr, np.subtract(step, l1, out=step), out=step)
        self.b_hidden -= np.multiply(self._lr, neg_gain, out=neg_gain)
