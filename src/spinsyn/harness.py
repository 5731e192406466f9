"""Experiment orchestration: trials, learning-rate sweeps, rule comparison.

One epoch is a batch of presentations followed by a single actor weight
update. The per-presentation loop is fixed: sample input, read the critic,
run the actor, collect the reward, accumulate the actor update, train the
critic, advance the reward filter. Per-epoch filtered rewards define the
epochs-to-goal statistic; the linear and power-law update rules are
compared on it with Welch's t-test.

Trials are embarrassingly parallel. Every trial derives its own RNG stream
from (master_seed, rule, learning rate, trial index), so results are
bit-identical no matter how many workers run them or in which order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from multiprocessing import Pool

import numpy as np
from scipy.special import betainc

from .actor import ActorConfig, ActorNetwork, UpdateRule
from .critic import CriticConfig, CriticNetwork
from .env import InputSchedule, Presentation, reward


class StatisticsUnavailableError(RuntimeError):
    """Raised when too few trials converged to form a test statistic."""


@dataclass
class ExperimentConfig:
    """All hyperparameters of one learning experiment."""

    actor: ActorConfig = field(default_factory=ActorConfig)
    critic: CriticConfig = field(default_factory=CriticConfig)
    n_trials: int = 50
    max_epochs: int = 10000
    goal: float = 0.975
    filter_keep: float = 0.999
    filter_gain: float = 0.001
    filter_init: float = 0.5
    lr_sweep_from: float = 0.40
    lr_sweep_to: float = 1.25
    lr_sweep_step: float = 0.05
    lr_powerlaw: float = 1.1
    lr_linear: float = 0.75
    master_seed: int = 12345
    presentation: Presentation = Presentation.UNIFORM

    def __post_init__(self) -> None:
        if self.n_trials < 1 or self.max_epochs < 1:
            raise ValueError("n_trials and max_epochs must be >= 1")
        if not 0.0 < self.goal < 1.0:
            raise ValueError(f"goal must lie in (0, 1), got {self.goal}")
        if abs(self.filter_keep + self.filter_gain - 1.0) > 1e-12:
            raise ValueError(
                f"filter coefficients must sum to 1, got "
                f"{self.filter_keep} + {self.filter_gain}"
            )
        if not 0.0 <= self.filter_init <= 1.0:
            raise ValueError(f"filter_init must lie in [0, 1], got {self.filter_init}")
        sweep = (self.lr_sweep_from, self.lr_sweep_to, self.lr_sweep_step)
        if not all(math.isfinite(x) for x in sweep):
            raise ValueError(f"lr sweep bounds must be finite, got {sweep}")
        if self.lr_sweep_step <= 0.0 or self.lr_sweep_from > self.lr_sweep_to:
            raise ValueError("lr sweep bounds are inconsistent")
        if min(self.lr_sweep_from, self.lr_powerlaw, self.lr_linear) <= 0.0:
            raise ValueError("learning rates must be > 0")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")

    def lr_for(self, rule: UpdateRule) -> float:
        """Configured hidden-layer learning rate of one rule's arm."""
        return self.lr_powerlaw if rule is UpdateRule.POWER_LAW else self.lr_linear


@dataclass
class TrialResult:
    """Curves and goal statistic of one training trial."""

    filtered_curve: np.ndarray
    raw_curve: np.ndarray
    epochs_to_goal: int | None
    seed: int


@dataclass
class RuleSummary:
    """Epochs-to-goal statistics of one rule's trial set (converged trials only)."""

    rule: UpdateRule
    lr_hidden: float
    epochs: list[int | None]
    mean: float
    std: float
    n_converged: int
    n_trials: int


@dataclass
class ComparisonReport:
    """Linear-vs-power-law comparison with Welch test output."""

    powerlaw: RuleSummary
    linear: RuleSummary
    t: float
    nu: float
    p_one_sided: float
    p_two_sided: float


@dataclass
class SweepPoint:
    """Trial statistics at one learning rate of a sweep."""

    rule: UpdateRule
    lr_hidden: float
    mean_epochs: float
    std_epochs: float
    n_converged: int
    penalized_mean: float


@dataclass
class SweepResult:
    """Full sweep grid plus the ranking winner."""

    rule: UpdateRule
    points: list[SweepPoint]
    best_lr: float


def filter_reward(prev: float, r: float, keep: float = 0.999, gain: float = 0.001) -> float:
    """One step of the online exponential reward filter keep*prev + gain*R."""
    return keep * prev + gain * r


def epochs_to_goal(filtered_curve, goal: float) -> int | None:
    """Smallest 1-indexed epoch whose end-of-epoch filtered reward reached goal."""
    for i, value in enumerate(filtered_curve):
        if value >= goal:
            return i + 1
    return None


def run_epoch(
    actor: ActorNetwork,
    critic: CriticNetwork,
    schedule: InputSchedule,
    rng: np.random.Generator,
    filter_state: float,
    config: ExperimentConfig,
) -> tuple[float, float]:
    """One batch of presentations plus the closing actor batch update.

    Returns the mean batch reward and the filter state after the last
    presentation.
    """
    batch_size = actor.config.batch_size
    total = 0
    for _ in range(batch_size):
        sample = schedule.next(rng)
        x = np.asarray(sample.x, dtype=float)
        r_bar = min(max(critic.forward(x), 0.0), 1.0)
        y, trace = actor.forward(x, r_bar, rng)
        r = reward(y, sample.target)
        actor.accumulate(trace, r, r_bar)
        critic.update(x, r)
        filter_state = filter_reward(filter_state, r, config.filter_keep, config.filter_gain)
        total += r
    actor.apply_batch_update()
    return total / batch_size, filter_state


_RULE_IDS = {UpdateRule.LINEAR: 0, UpdateRule.POWER_LAW: 1}


def trial_seed(
    master_seed: int, rule: UpdateRule, lr_hidden: float, trial_index: int
) -> int:
    """Derived stream seed for one trial, independent of execution order.

    The learning rate enters through its IEEE-754 bit pattern so the key
    is exact and platform-independent.
    """
    lr_bits = struct.unpack("<Q", struct.pack("<d", lr_hidden))[0]
    seq = np.random.SeedSequence(
        entropy=(master_seed, _RULE_IDS[rule], lr_bits, trial_index)
    )
    return int(seq.generate_state(1, np.uint64)[0])


def run_trial(
    config: ExperimentConfig,
    update_rule: UpdateRule,
    lr_hidden: float,
    trial_index: int,
) -> TrialResult:
    """Train freshly initialized networks until goal or max_epochs.

    Initialization draw order is fixed (actor first, then critic) so a
    trial is fully reproducible from its derived seed.
    """
    seed = trial_seed(config.master_seed, update_rule, lr_hidden, trial_index)
    rng = np.random.default_rng(seed)
    actor_cfg = replace(config.actor, update_rule=update_rule, lr_hidden=lr_hidden)
    actor = ActorNetwork.initialize(actor_cfg, rng)
    critic = CriticNetwork.initialize(config.critic, rng)
    schedule = InputSchedule(config.presentation)

    filter_state = config.filter_init
    raw_curve = []
    filtered_curve = []
    for _ in range(config.max_epochs):
        mean_r, filter_state = run_epoch(
            actor, critic, schedule, rng, filter_state, config
        )
        raw_curve.append(mean_r)
        filtered_curve.append(filter_state)
        if filter_state >= config.goal:
            break
    filtered = np.asarray(filtered_curve)
    return TrialResult(
        filtered_curve=filtered,
        raw_curve=np.asarray(raw_curve),
        epochs_to_goal=epochs_to_goal(filtered, config.goal),
        seed=seed,
    )


def _run_trial_args(args) -> TrialResult:
    return run_trial(*args)


def run_trials(
    config: ExperimentConfig,
    update_rule: UpdateRule,
    lr_hidden: float,
    parallelism: int = 1,
) -> list[TrialResult]:
    """All n_trials trials of one (rule, lr) arm, optionally across workers.

    Results are ordered by trial index and identical for any worker count.
    """
    arglist = [(config, update_rule, lr_hidden, i) for i in range(config.n_trials)]
    if parallelism <= 1:
        return [run_trial(*args) for args in arglist]
    with Pool(processes=min(parallelism, len(arglist))) as pool:
        return pool.map(_run_trial_args, arglist)


def summarize_rule(
    rule: UpdateRule, lr_hidden: float, results: list[TrialResult]
) -> RuleSummary:
    """Mean and sample standard deviation of epochs_to_goal over converged trials."""
    epochs = [r.epochs_to_goal for r in results]
    converged = [e for e in epochs if e is not None]
    if converged:
        mean = float(np.mean(converged))
        std = float(np.std(converged, ddof=1)) if len(converged) > 1 else 0.0
    else:
        mean = math.nan
        std = math.nan
    return RuleSummary(
        rule=rule,
        lr_hidden=lr_hidden,
        epochs=epochs,
        mean=mean,
        std=std,
        n_converged=len(converged),
        n_trials=len(results),
    )


@dataclass
class WelchResult:
    """Welch two-sample test statistic and p-values."""

    t: float
    nu: float
    p_two_sided: float
    p_one_sided: float


def welch_t_test(a, b) -> WelchResult:
    """Welch's unequal-variance t-test between two samples.

    Sample variances use the n-1 denominator; degrees of freedom come from
    the Welch-Satterthwaite formula; the two-sided p-value is the
    regularized incomplete beta I_{nu/(nu+t^2)}(nu/2, 1/2). The one-sided
    p-value is half the two-sided one, i.e. the tail in the direction of
    the observed difference, so both p-values are symmetric in (a, b).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("welch_t_test needs at least 2 observations per sample")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        raise ValueError("t statistic undefined: both samples have zero variance")
    sa, sb = va / len(a), vb / len(b)
    se2 = sa + sb
    t = (float(a.mean()) - float(b.mean())) / math.sqrt(se2)
    nu = se2**2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    p_two = float(betainc(nu / 2.0, 0.5, nu / (nu + t * t)))
    return WelchResult(t=t, nu=nu, p_two_sided=p_two, p_one_sided=p_two / 2.0)


def compare_rules(config: ExperimentConfig, parallelism: int = 1) -> ComparisonReport:
    """Run both rules at their configured learning rates and test the difference.

    The Welch test compares epochs_to_goal of the power-law arm (sample a)
    against the linear arm (sample b) over converged trials only;
    non-converged counts are visible in the per-rule summaries.
    """
    arms = {}
    for rule in (UpdateRule.POWER_LAW, UpdateRule.LINEAR):
        lr = config.lr_for(rule)
        results = run_trials(config, rule, lr, parallelism=parallelism)
        arms[rule] = summarize_rule(rule, lr, results)
    sample_p = [e for e in arms[UpdateRule.POWER_LAW].epochs if e is not None]
    sample_l = [e for e in arms[UpdateRule.LINEAR].epochs if e is not None]
    if len(sample_p) < 2 or len(sample_l) < 2:
        raise StatisticsUnavailableError(
            f"need >= 2 converged trials per arm, got "
            f"{len(sample_p)} (powerlaw) and {len(sample_l)} (linear)"
        )
    welch = welch_t_test(sample_p, sample_l)
    return ComparisonReport(
        powerlaw=arms[UpdateRule.POWER_LAW],
        linear=arms[UpdateRule.LINEAR],
        t=welch.t,
        nu=welch.nu,
        p_one_sided=welch.p_one_sided,
        p_two_sided=welch.p_two_sided,
    )


def sweep_grid(config: ExperimentConfig) -> list[float]:
    """Learning-rate grid from lr_sweep_from to lr_sweep_to inclusive."""
    values = []
    k = 0
    while True:
        lr = round(config.lr_sweep_from + k * config.lr_sweep_step, 10)
        if lr > config.lr_sweep_to + 1e-9:
            break
        values.append(lr)
        k += 1
    return values


def lr_sweep(
    config: ExperimentConfig, update_rule: UpdateRule, parallelism: int = 1
) -> SweepResult:
    """n_trials trials at every grid learning rate; pick the fastest one.

    Ranking uses the mean with non-converged trials penalized as
    max_epochs; ties break toward the smaller learning rate. The reported
    per-point mean/std cover converged trials only.
    """
    grid = sweep_grid(config)
    if not grid:
        raise ValueError("learning-rate sweep grid is empty")
    points = []
    for lr in grid:
        results = run_trials(config, update_rule, lr, parallelism=parallelism)
        summary = summarize_rule(update_rule, lr, results)
        penalized = float(
            np.mean([e if e is not None else config.max_epochs for e in summary.epochs])
        )
        points.append(
            SweepPoint(
                rule=update_rule,
                lr_hidden=lr,
                mean_epochs=summary.mean,
                std_epochs=summary.std,
                n_converged=summary.n_converged,
                penalized_mean=penalized,
            )
        )
    best = min(points, key=lambda p: (p.penalized_mean, p.lr_hidden))
    return SweepResult(rule=update_rule, points=points, best_lr=best.lr_hidden)
