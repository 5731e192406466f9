"""Plain scalar references that the tests check the batched engine against.

None of these is used by spinsyn itself: the engine runs the same
arithmetic on whole arrays of lanes and presentations.
"""

import math


def sigmoid(z: float) -> float:
    """The logistic function 1/(1 + e^-z) of a float."""
    return 1.0 / (1.0 + math.exp(-z))


def filter_reward(prev: float, r: float, keep: float, gain: float) -> float:
    """One step of the online exponential reward filter keep*prev + gain*R."""
    return keep * prev + gain * r


def epochs_to_goal(filtered_curve, goal: float) -> int | None:
    """Smallest 1-indexed epoch whose end-of-epoch filtered reward reached goal."""
    for i, value in enumerate(filtered_curve):
        if value >= goal:
            return i + 1
    return None
