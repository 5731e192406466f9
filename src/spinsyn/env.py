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


class Presentation(enum.Enum):
    """Input ordering: i.i.d. uniform draws or deterministic cycling."""

    UNIFORM = "uniform"
    CYCLIC = "cyclic"


def reward(y, target):
    """1 where the emitted bit matches the target, else 0, elementwise."""
    return np.where(np.equal(y, target), 1.0, 0.0)


class InputSchedule:
    """Supplies every lane's inputs and targets, one presentation per call.

    UNIFORM takes lane k's input bit j as u[k, j] < 0.5, so each lane
    draws i.i.d. patterns from its own uniforms. CYCLIC ignores u and
    shows every lane the truth-table row at the presentation index.
    """

    def __init__(self, mode: Presentation = Presentation.UNIFORM):
        self.mode = mode
        self._index = 0

    def next(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, target) for uniforms u of shape (lanes, 2): x (lanes, 2) as
        floats, target (lanes,) the XOR of each lane's bits."""
        if self.mode is Presentation.CYCLIC:
            sample = PATTERNS[self._index % len(PATTERNS)]
            self._index += 1
            bits = np.broadcast_to(np.array(sample.x, dtype=bool), u.shape)
        else:
            bits = u < 0.5
        return bits.astype(float), bits[:, 0] ^ bits[:, 1]
