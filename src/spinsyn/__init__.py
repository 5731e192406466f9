"""Spin-valve synapse simulator and reward-based learning benchmark."""

from .actor import (
    ActorConfig,
    ActorNetwork,
    UpdateRule,
    threshold_power_update,
)
from .critic import CriticConfig, CriticNetwork
from .device import (
    DeviceState,
    Magnetization,
    PulseSpec,
    SpinValveParams,
    apply_pulse,
    calibrate_pulse_tau,
    effective_conductance,
    magnetoconductance,
    pulse_map_sweep,
    set_magnetization,
)
from .env import InputSchedule, reward
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    RuleSummary,
    StatisticsUnavailableError,
    SweepResult,
    TrialResult,
    WelchResult,
    compare_rules,
    lr_sweep,
    run_epoch,
    run_trial,
    run_trials,
    welch_t_test,
)

__version__ = "0.1.0"
