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

from dataclasses import dataclass

import numpy as np

from .actor import sigmoid


@dataclass
class CriticConfig:
    """Critic architecture and training hyperparameters."""

    n_in: int = 2
    n_hidden: int = 20
    lr: float = 1.0
    l1_coeff: float = 0.001

    def __post_init__(self) -> None:
        if min(self.n_in, self.n_hidden) < 1:
            raise ValueError("layer sizes must be >= 1")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.l1_coeff < 0.0:
            raise ValueError(f"l1_coeff must be >= 0, got {self.l1_coeff}")


class CriticNetwork:
    """One-hidden-layer sigmoid network; output weights never change."""

    def __init__(
        self,
        config: CriticConfig,
        w_hidden: np.ndarray,
        b_hidden: np.ndarray,
        w_out: np.ndarray,
        b_out: float,
    ):
        self.config = config
        self.w_hidden = np.asarray(w_hidden, dtype=float)
        self.b_hidden = np.asarray(b_hidden, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = float(b_out)
        if self.w_hidden.shape != (config.n_hidden, config.n_in):
            raise ValueError(f"w_hidden shape {self.w_hidden.shape} mismatch")
        if self.w_out.shape != (config.n_hidden,):
            raise ValueError(f"w_out shape {self.w_out.shape} mismatch")

    @classmethod
    def initialize(
        cls, config: CriticConfig, rng: np.random.Generator
    ) -> "CriticNetwork":
        """Hidden weights uniform in [-1/sqrt(n_in), 1/sqrt(n_in)] with zero
        biases; output weights uniform in [-1.25, 1.25] with bias 0.5."""
        bound = 1.0 / np.sqrt(config.n_in)
        return cls(
            config,
            w_hidden=rng.uniform(-bound, bound, size=(config.n_hidden, config.n_in)),
            b_hidden=np.zeros(config.n_hidden),
            w_out=rng.uniform(-1.25, 1.25, size=config.n_hidden),
            b_out=0.5,
        )

    def _activations(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        y_hidden = sigmoid(self.w_hidden @ x + self.b_hidden)
        y_out = float(sigmoid(self.w_out @ y_hidden + self.b_out))
        return y_hidden, y_out

    def forward(self, x) -> float:
        """Predicted reward for input x, strictly inside (0, 1)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.config.n_in,):
            raise ValueError(
                f"input shape {x.shape} does not match n_in={self.config.n_in}"
            )
        return self._activations(x)[1]

    def update(self, x, r: float) -> None:
        """One training step toward the observed reward r.

        Hidden weights and biases move by the simplified rule; the output
        layer is untouched. sign(0) is 0, so exactly-zero weights receive
        no L1 drift.
        """
        x = np.asarray(x, dtype=float)
        _, y_out = self._activations(x)
        gain = (r - y_out) * self.w_out
        self.w_hidden += self.config.lr * (
            np.outer(gain, x) - self.config.l1_coeff * np.sign(self.w_hidden)
        )
        self.b_hidden += self.config.lr * gain
