"""Phenomenological model of one LSMO/Alq3/AlOx/Co spin-valve synapse.

The synaptic weight is the device conductance. Two knobs modify it:

* Voltage pulses above a 1.2 V threshold drag the conductance toward
  g_max (positive pulses, potentiation) or g_min (negative pulses,
  depression). Each pulse covers a fixed fraction of the remaining
  range, so repeated identical pulses approach the bound exponentially
  and the conductance can never leave [g_min, g_max].
* The relative magnetization of the ferromagnetic electrodes. In the
  antiparallel configuration the read-out conductance is boosted by the
  magnetoconductance MG(g), which is zero below g_th and grows as a
  power law above it. A global field therefore potentiates only the
  already-potentiated synapses.

The pulse response is calibrated so that 50 pulses of 2.5 V / 5 ms from
g_min give an ON/OFF ratio of 47, matching the measured potentiation
train. All states are plain immutable values; every operation is a pure
function from (state, inputs) to a new state.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

# Measured device constants (conductances in siemens, threshold in volts).
G_MIN_DEFAULT = 6.4e-7
G_MAX_DEFAULT = 8.9e-5
G_TH_DEFAULT = 1.13e-6
MG_MAX_DEFAULT = 0.25
MG_EXPONENT_DEFAULT = 0.75
PULSE_THRESHOLD_V_DEFAULT = 1.2

# Default pulse time constant: anchored so that 50 pulses of 2.5 V / 5 ms
# starting from g_min yield final/initial = 47 (see calibrate_pulse_tau).
_Q47 = (G_MAX_DEFAULT - 47.0 * G_MIN_DEFAULT) / (G_MAX_DEFAULT - G_MIN_DEFAULT)
TAU_DEFAULT = -50.0 * (2.5 - PULSE_THRESHOLD_V_DEFAULT) * 5e-3 / math.log(_Q47)


class Magnetization(enum.Enum):
    """Relative orientation of the two electrode magnetizations."""

    PARALLEL = "parallel"
    ANTIPARALLEL = "antiparallel"


@dataclass(frozen=True)
class SpinValveParams:
    """Device constants of one spin-valve synapse.

    Conductances in siemens, pulse threshold in volts, tau in volt-seconds.
    """

    g_min: float = G_MIN_DEFAULT
    g_max: float = G_MAX_DEFAULT
    g_th: float = G_TH_DEFAULT
    mg_max: float = MG_MAX_DEFAULT
    mg_exponent: float = MG_EXPONENT_DEFAULT
    pulse_threshold_v: float = PULSE_THRESHOLD_V_DEFAULT
    pulse_time_constant_tau: float = TAU_DEFAULT

    def __post_init__(self) -> None:
        if not 0.0 < self.g_min < self.g_th < self.g_max < math.inf:
            raise ValueError(
                f"conductance bounds must satisfy 0 < g_min < g_th < g_max < inf, "
                f"got g_min={self.g_min}, g_th={self.g_th}, g_max={self.g_max}"
            )
        if not 0.0 <= self.mg_max < math.inf:
            raise ValueError(f"mg_max must be finite and >= 0, got {self.mg_max}")
        if not 0.0 < self.mg_exponent < math.inf:
            raise ValueError(f"mg_exponent must be finite and > 0, got {self.mg_exponent}")
        if not 0.0 < self.pulse_threshold_v < math.inf:
            raise ValueError(
                f"pulse_threshold_v must be finite and > 0, got {self.pulse_threshold_v}"
            )
        if not 0.0 < self.pulse_time_constant_tau < math.inf:
            raise ValueError(
                f"pulse_time_constant_tau must be finite and > 0, "
                f"got {self.pulse_time_constant_tau}"
            )


@dataclass(frozen=True)
class DeviceState:
    """Immutable state of one device: conductance plus magnetization.

    The conductance field always stores the parallel-configuration value;
    the antiparallel boost is applied at read time by
    :func:`effective_conductance`. Pulse operations keep the conductance
    inside [g_min, g_max].
    """

    conductance: float
    magnetization: Magnetization = Magnetization.PARALLEL


@dataclass(frozen=True)
class PulseSpec:
    """One rectangular voltage pulse. Positive potentiates, negative depresses."""

    voltage: float
    duration: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.voltage):
            raise ValueError(f"pulse voltage must be finite, got {self.voltage}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"pulse duration must be finite and >= 0, got {self.duration}")


def magnetoconductance(g: float, params: SpinValveParams) -> float:
    """Fractional conductance boost (G_AP - G_P)/G_P at conductance g.

    Zero up to g_th, then mg_max * ((g - g_th)/(g_max - g_th))**mg_exponent,
    so the boost reaches mg_max exactly at g_max.
    """
    if not params.g_min <= g <= params.g_max:
        raise ValueError(
            f"conductance {g} outside device range [{params.g_min}, {params.g_max}]"
        )
    if g <= params.g_th:
        return 0.0
    frac = (g - params.g_th) / (params.g_max - params.g_th)
    return params.mg_max * frac**params.mg_exponent


def effective_conductance(state: DeviceState, params: SpinValveParams) -> float:
    """Read-out conductance of the device in its current magnetization."""
    g = state.conductance
    if state.magnetization is Magnetization.ANTIPARALLEL:
        return g * (1.0 + magnetoconductance(g, params))
    return g


def step_fraction(voltage: float, duration: float, params: SpinValveParams) -> float:
    """Fraction of the remaining conductance range covered by one pulse.

    Zero for sub-threshold voltages (|V| <= pulse_threshold_v) and for
    zero-duration pulses; otherwise 1 - exp(-(|V| - V_th) * t / tau),
    which is monotone in both the excess voltage and the duration.
    """
    excess = abs(voltage) - params.pulse_threshold_v
    if excess <= 0.0 or duration == 0.0:
        return 0.0
    return 1.0 - math.exp(-excess * duration / params.pulse_time_constant_tau)


def apply_pulse(
    state: DeviceState, pulse: PulseSpec, params: SpinValveParams
) -> DeviceState:
    """Apply one voltage pulse and return the resulting state.

    Positive pulses move the conductance toward g_max, negative ones
    toward g_min. Magnetization is unchanged.
    """
    lam = step_fraction(pulse.voltage, pulse.duration, params)
    if lam == 0.0:
        return state
    target = params.g_max if pulse.voltage > 0.0 else params.g_min
    g = state.conductance + lam * (target - state.conductance)
    # guard against half-ulp rounding past the bounds
    g = min(max(g, params.g_min), params.g_max)
    return replace(state, conductance=g)


def set_magnetization(state: DeviceState, config: Magnetization) -> DeviceState:
    """Switch the electrode configuration; the stored conductance is untouched."""
    return replace(state, magnetization=config)


def calibrate_pulse_tau(
    target_onoff: float,
    n_pulses: int,
    pulse: PulseSpec,
    params: SpinValveParams,
) -> float:
    """Tau for which n_pulses applications of ``pulse`` from g_min reach target_onoff.

    Closed form: the potentiation recursion gives
    (1 - lambda)^n = (g_max - target*g_min)/(g_max - g_min), and
    tau = -(|V| - V_th) * duration / ln(1 - lambda).

    The target must lie strictly inside (1, g_max/g_min): the upper bound is
    an asymptote reachable only as tau -> 0.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    excess = abs(pulse.voltage) - params.pulse_threshold_v
    if excess <= 0.0 or pulse.duration == 0.0:
        raise ValueError(
            f"calibration pulse must exceed the {params.pulse_threshold_v} V "
            f"threshold with nonzero duration, got {pulse.voltage} V "
            f"for {pulse.duration} s"
        )
    max_ratio = params.g_max / params.g_min
    if not 1.0 < target_onoff < max_ratio:
        raise ValueError(
            f"target on/off ratio must lie strictly in (1, {max_ratio}), "
            f"got {target_onoff}"
        )
    q = (params.g_max - target_onoff * params.g_min) / (params.g_max - params.g_min)
    return -n_pulses * excess * pulse.duration / math.log(q)


def pulse_map_sweep(
    voltages: list[float], durations: list[float], n_pulses: int, params: SpinValveParams
) -> np.ndarray:
    """On/off ratio grid over a (voltage, duration) pulse-train protocol.

    Each cell starts at g_0 = g_min (non-negative voltages) or g_max (negative
    voltages, emulating the +/-4 V / 1 s reset) and takes n_pulses identical
    pulses of lambda = step_fraction(V, t). The closed form
    g_n = target + (g_0 - target)(1 - lambda)^n, clipped to [g_min, g_max],
    equals n apply_pulse steps up to rounding. Returns final/initial
    conductance, shape (len(voltages), len(durations)); inactive cells are 1.
    """
    v = np.asarray(voltages, dtype=float)[:, None]
    t = np.asarray(durations, dtype=float)
    if v.size == 0 or t.size == 0:
        raise ValueError("voltage and duration axes must be non-empty")
    if operator.index(n_pulses) < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if not np.isfinite(v).all() or not (np.isfinite(t) & (t >= 0.0)).all():
        raise ValueError("pulse voltages must be finite, durations finite and >= 0")
    excess = np.abs(v) - params.pulse_threshold_v
    # inactive cells get lambda = 0, so (1 - lambda)^n cannot overflow there
    lam = 1.0 - np.exp(-np.maximum(excess, 0.0) * t / params.pulse_time_constant_tau)
    start = np.where(v >= 0.0, params.g_min, params.g_max)
    target = np.where(v > 0.0, params.g_max, params.g_min)
    g = np.clip(target + (start - target) * (1.0 - lam) ** n_pulses, params.g_min, params.g_max)
    return np.where((excess > 0.0) & (t != 0.0), g / start, 1.0)
