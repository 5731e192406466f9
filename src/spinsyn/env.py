"""XOR reward environment: two input bits, reward 1 for the correct parity."""

from __future__ import annotations

import numpy as np

N_INPUTS = 2  # every network reads a pattern's two bits

_equal = np.equal  # bound once, called with out positional (see spinsyn.actor)


def reward(y, target, out=None):
    """True (a reward of 1) where the emitted bit matches the target, else
    False (a reward of 0), elementwise, into out if given."""
    return _equal(y, target, out)


class InputSchedule:
    """Supplies every lane's inputs and targets, one batch of presentations per call.

    Every array has the one (batch, lanes, ...) layout of the batch API:
    input bit j of lane k's presentation t is u[t, k, j] < 0.5, so each
    lane draws i.i.d. patterns from its own uniforms, and each
    presentation's x[t] and target[t] is one contiguous row.
    """

    def next(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, target) for uniforms u of shape (batch, lanes, 2): x (batch,
        lanes, 2) as floats, target (batch, lanes) the XOR of each
        presentation's bits."""
        # allocated in C order whatever u's strides (the harness passes
        # a transposed view), so the rows x[t] and target[t] stay contiguous
        bits = np.less(u, 0.5, order="C")
        return bits.astype(float), bits[..., 0] ^ bits[..., 1]
