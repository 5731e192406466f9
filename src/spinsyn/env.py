"""XOR reward environment: two input bits, reward 1 for the correct parity."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sample:
    """One task instance; the target is always the XOR of the two inputs."""

    x: tuple[int, int]
    target: int

    def __post_init__(self) -> None:
        if self.target != self.x[0] ^ self.x[1]:
            raise ValueError(f"target {self.target} is not XOR of {self.x}")


PATTERNS = (
    Sample(x=(0, 0), target=0),
    Sample(x=(0, 1), target=1),
    Sample(x=(1, 0), target=1),
    Sample(x=(1, 1), target=0),
)
N_INPUTS = 2  # every network reads a pattern's two bits


class Presentation(enum.Enum):
    """Input ordering: i.i.d. uniform draws or deterministic cycling."""

    UNIFORM = "uniform"
    CYCLIC = "cyclic"


def reward(y, target):
    """True (a reward of 1) where the emitted bit matches the target, else
    False (a reward of 0), elementwise."""
    return np.equal(y, target)


_PATTERN_BITS = np.array([sample.x for sample in PATTERNS], dtype=bool)


class InputSchedule:
    """Supplies every lane's inputs and targets, one batch of presentations per call.

    UNIFORM takes input bit j of lane k's presentation t as u[k, t, j] < 0.5,
    so each lane draws i.i.d. patterns from its own uniforms. CYCLIC
    ignores u and shows every lane the truth-table row at the
    presentation index, which runs on across calls.

    The outputs are presentation-major in memory, transposed views of
    (batch, lanes, ...) arrays, so each presentation's x[:, t] and
    target[:, t] is one contiguous row: UNIFORM's keep the layout of a
    presentation-major u (ufunc outputs follow their input's layout),
    CYCLIC's are built that way.
    """

    def __init__(self, mode: Presentation = Presentation.UNIFORM):
        self.mode = mode
        self._index = 0

    def next(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, target) for uniforms u of shape (lanes, batch, 2): x (lanes,
        batch, 2) as floats, target (lanes, batch) the XOR of each
        presentation's bits."""
        if self.mode is Presentation.CYCLIC:
            lanes, batch = u.shape[:2]
            rows = (self._index + np.arange(batch)) % len(PATTERNS)
            self._index += batch
            bits = np.empty((batch, lanes, 2), dtype=bool)
            bits[...] = _PATTERN_BITS[rows, None]
            bits = bits.transpose(1, 0, 2)
        else:
            bits = u < 0.5
        return bits.astype(float), bits[..., 0] ^ bits[..., 1]
