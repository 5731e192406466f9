"""Experiment orchestration: trials, learning-rate sweeps, rule comparison.

One engine runs every trial. The trials of one call are the lanes of one
batch: every array of the actor and the critic has a leading lane axis,
and each lane has its own update rule and learning rate, so both arms of
a comparison, or every requested rule's whole sweep grid, train in one
loop: a sweep is one batch whatever the number of rules. A lane
leaves the batch at the end of the epoch in which its filtered reward
reaches the goal or it reaches max_epochs. Per-epoch filtered rewards
define the epochs-to-goal statistic; the linear and power-law update
rules are compared on it with Welch's t-test.

One epoch is batch_size presentations followed by a single actor weight
update. The actor's weights change only in that update, so whatever does
not depend on the critic runs once per epoch, on arrays with a
presentation axis (batch_size, lanes, ...):

* before the presentations: every presentation's inputs and targets
  (InputSchedule.next), and the actor's hidden firing probabilities and
  proposals (ActorNetwork.propose);
* per presentation, in order, because the critic learns online: critic
  read, then the actor's flip probability, hidden flips and output unit
  (ActorNetwork.forward), then the reward, then the critic update;
* after the presentations: the actor's gradient probabilities and
  accumulation (ActorNetwork.accumulate), the batch update, the reward
  filter and the mean reward.

Every result is bit-identical to running the whole stack once per
presentation, because the order of every rounding step is kept: the
actor sums each batch's changes from zero, adding each presentation's
term in presentation order (one reduction over the batch axis, never a
pairwise sum; tests/test_actor.py checks it against the row-by-row loop),
and keeps nothing but its parameters between batches; the filter's
recursion runs in presentation order, and only its gain * R products,
which do not depend on the state, are formed for the whole batch at once.
Each sigmoid takes its negated pre-activation, formed from negated inputs
(hidden units) or negated output weights (output unit) and a subtracted
bias; rounding is symmetric in sign, so that changes at
most the sign of a zero the sigmoid maps to 1/2 either way. The mean
reward is a plain sum, exact because each reward is 0 or 1.

Memory layout. Every per-presentation array has one (batch_size, lanes,
...) layout, in the API and in memory, so each presentation's slice [t]
is one contiguous (lanes, ...) row. Every array that lasts for a lane
set lives in the network that sizes it, and run_epoch keeps nothing:
each network sizes its batch arrays, scratch and tuples of rows to its
lanes (_size_to_lanes) and to the batch (_size_to_batch) once, and keeps
them until select drops lanes. Only LaneNetwork.negate_inputs checks the
batch: it calls _size_to_batch when the inputs' shape changes. The
actor's batch arrays include the rewards, and the r_bar and rewards rows
of every presentation; run_epoch zips those with the critic's
negated-input rows and the epoch's targets, and forms the filter's
constants and gain * R products once per epoch. So the chain of a
presentation writes into rows and scratch and chains its ufuncs in
place, each called through a name bound once with its output passed
positionally, and copies by slice assignment (spinsyn.actor). The critic
writes its read into the actor's row r_bar[t], the row that
ActorNetwork.forward(t) reads, so a presentation allocates no array.
Every broadcast, cast and strided gather runs once per batch, so each
elementwise ufunc of the loop has C-contiguous operands of one shape,
which numpy runs without its buffered iterator: each network checks the
batch's inputs, negates them and broadcasts them along its hidden units
to (batch_size, lanes, n_in, n_hidden) once, and negates its output
weights into the -w_out its output pass reads, anew at every batch, so
a write to w_out between batches reaches the next one
(LaneNetwork.negate_inputs; run_epoch calls it for the critic, propose
for the actor); propose copies the uniforms that forward reads into
contiguous arrays. Both networks run LaneNetwork's one hidden pass (the
actor on the whole batch, the critic on one presentation's row) and its
one output pass (one presentation each). The broadcasts that need a
presentation's prediction (p_flip along the actor's hidden units; the
critic's error and gain) are copies into scratch, each followed by a
multiply of whole arrays. The rewards stay
bool, and the hidden bits are bool rows with a float copy for the output
unit. The actor's end-of-batch terms go into three C-contiguous arrays,
the w_hidden, w_out and bias terms, each summed over the batch axis into
its block of the batch sums; the end-of-batch update then runs
threshold_power_update only on the power-law entries of the contiguous
weight block that pass dw_min: on compare about one in ten.

Random streams. Every lane has its own generator,
default_rng(trial_seed(master_seed, rule, lr, trial index)). It first
draws the actor's initial weights, then the critic's. Then, per epoch, it
draws one block of shape (batch_size, N_INPUTS + 2 * n_hidden + 2), with
N_INPUTS = 2 (spinsyn.env); row t serves presentation t, and its columns
are, in order:

* 0-1: the input bits, bit j = (u < 0.5);
* 2 .. 2 + n_hidden - 1: the hidden units' proposals;
* 2 + n_hidden .. 2 + 2 * n_hidden - 1: the hidden units' flips;
* 2 + 2 * n_hidden: the output proposal;
* 2 + 2 * n_hidden + 1: the output flip.

A lane draws the blocks of several epochs, K, in one rng.random call into
a (K, batch_size, ...) buffer. A generator fills its output in order, so
these are the numbers of K calls of one block each. chunk_epochs picks
K: the most epochs whose draws, over the whole batch, stay within
CHUNK_BYTES, but at least 1 and at most the epochs left before
max_epochs (13 epochs at compare's 20 lanes, 3 at a sweep's 72, 273 at
one lane). draw_epochs copies each lane's buffer, right after its fill,
into the lane's column of one presentation-major (K, batch_size, lanes,
...) array. Each epoch reads the contiguous block at the front of the
epochs left, and the batch draws again once they are spent. When lanes
leave, the epochs left are compacted to the remaining lanes once, so the
numbers a lane drew past its last epoch are never used, and the next
draw has no row for it.

All arithmetic on lanes is elementwise or reduces over the trailing axis
(or over the presentation axis, one row at a time), so a lane's results
are bit-identical alone, in any batch, and in any worker's shard. With
parallelism N, lane k goes to worker k mod N, each worker's lanes run as
one batch, all in one Pool, and the results are put back in lane order.
Lanes come arm by arm, so every worker gets lanes of every arm: at
parallelism 2 both workers train both rules of a comparison or a sweep,
and neither is left with only the slower rule's trials.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from multiprocessing import Pool

import numpy as np

from .actor import ActorConfig, ActorNetwork, UpdateRule, _add, _multiply
from .critic import CriticConfig, CriticNetwork
from .env import N_INPUTS, InputSchedule, reward


class StatisticsUnavailableError(RuntimeError):
    """Raised when too few trials converged to form a test statistic."""


# sweep_grid rounds each rate to 10 decimals and keeps rates up to this far
# past lr_sweep_to. A smaller step could round distinct grid points to the
# same rate (equal rates derive equal trial seeds) and would add several
# points past the range's end, so ExperimentConfig rejects it.
SWEEP_SLACK = 1e-9
# ExperimentConfig rejects a sweep grid of more rates than this, so a tiny
# step fails at config time instead of building a huge list of rates.
SWEEP_MAX_POINTS = 10_000


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

    def __post_init__(self) -> None:
        # annotations are postponed, so a field's type is its text
        floats = [f.name for f in fields(self) if f.type == "float"]
        not_finite = [name for name in floats if not math.isfinite(getattr(self, name))]
        if not_finite:
            raise ValueError(f"{', '.join(not_finite)} must be finite")
        if self.n_trials < 1 or self.max_epochs < 1:
            raise ValueError("n_trials and max_epochs must be >= 1")
        if not 0.0 < self.goal < 1.0:
            raise ValueError(f"goal must lie in (0, 1), got {self.goal}")
        # with the sum below, this puts filter_keep in [0, 1), up to the
        # sum's tolerance: the filter then mixes its state and the reward
        # with nonnegative weights, so it stays in [0, 1]
        if not 0.0 < self.filter_gain <= 1.0:
            raise ValueError(f"filter_gain must lie in (0, 1], got {self.filter_gain}")
        if abs(self.filter_keep + self.filter_gain - 1.0) > 1e-12:
            raise ValueError(
                f"filter coefficients must sum to 1, got "
                f"{self.filter_keep} + {self.filter_gain}"
            )
        if not 0.0 <= self.filter_init <= 1.0:
            raise ValueError(f"filter_init must lie in [0, 1], got {self.filter_init}")
        if self.lr_sweep_step < SWEEP_SLACK:
            raise ValueError(
                f"lr_sweep_step must be >= {SWEEP_SLACK:g}, got {self.lr_sweep_step}"
            )
        if self.lr_sweep_from > self.lr_sweep_to:
            raise ValueError("lr sweep bounds are inconsistent")
        # sweep_grid has floor(span / step) + 1 points: more than the bound iff this holds
        span = self.lr_sweep_to + SWEEP_SLACK - self.lr_sweep_from
        if span / self.lr_sweep_step >= SWEEP_MAX_POINTS:
            raise ValueError(
                f"lr sweep grid {self.lr_sweep_from:g}..{self.lr_sweep_to:g} step "
                f"{self.lr_sweep_step:g} has more than {SWEEP_MAX_POINTS} points"
            )
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
    """Epochs-to-goal statistics of one (rule, lr) arm's trial set, all
    derived from each trial's epochs to goal (None where it did not
    converge); mean and std cover converged trials only."""

    rule: UpdateRule
    lr_hidden: float
    epochs: list[int | None]

    @property
    def converged(self) -> list[int]:
        """Epochs to goal of the converged trials, in trial order."""
        return [e for e in self.epochs if e is not None]

    @property
    def n_converged(self) -> int:
        return len(self.converged)

    @property
    def n_trials(self) -> int:
        return len(self.epochs)

    @property
    def mean(self) -> float:
        """Mean over converged trials; NaN if none converged."""
        converged = self.converged
        return float(np.mean(converged)) if converged else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation over converged trials: 0 for one, NaN for none."""
        converged = self.converged
        if not converged:
            return math.nan
        return float(np.std(converged, ddof=1)) if len(converged) > 1 else 0.0

    def penalized_mean(self, max_epochs: int) -> float:
        """Mean epochs to goal with every non-converged trial counted as
        max_epochs: the sweep's ranking key."""
        return float(np.mean([e if e is not None else max_epochs for e in self.epochs]))


@dataclass
class ComparisonReport:
    """Linear-vs-power-law comparison: each arm's summary, and the Welch
    test of the power-law arm's converged epochs against the linear arm's."""

    powerlaw: RuleSummary
    linear: RuleSummary
    welch: WelchResult


@dataclass
class SweepResult:
    """One rule's sweep: a summary per grid rate, in grid order, and the
    rate with the smallest penalized mean."""

    rule: UpdateRule
    points: list[RuleSummary]
    best_lr: float

    @property
    def best_on_edge(self) -> bool:
        """Whether the winner is the grid's first or last rate, so the
        best rate may lie outside the grid."""
        return self.best_lr in (self.points[0].lr_hidden, self.points[-1].lr_hidden)


def run_epoch(
    actor: ActorNetwork,
    critic: CriticNetwork,
    schedule: InputSchedule,
    u: np.ndarray,
    filter_state: np.ndarray,
    config: ExperimentConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of presentations for every lane plus the closing actor update.

    u (batch_size, lanes, N_INPUTS + 2 * n_hidden + 2) holds each lane's
    uniforms of the epoch (see the module docstring), in the one
    (batch_size, lanes, ...) layout of every per-presentation array, so
    u[t] serves presentation t. filter_state, a float array (lanes,), is
    updated in place. Returns every lane's mean batch reward and
    filter_state, which holds the state after the last presentation.
    """
    batch_size = len(u)
    x, target = schedule.next(u[..., :N_INPUTS])
    actor.propose(x, u[..., N_INPUTS:])
    critic.negate_inputs(x)
    r = actor.rewards
    # the critic reads into the actor's r_bar row t, which actor.forward(t) reads
    rows = zip(critic.neg_input_rows, actor.critic_rows, target)
    for t, (neg_x_t, (r_bar, r_t), target_t) in enumerate(rows):
        critic.forward(neg_x_t, r_bar)
        reward(actor.forward(t), target_t, r_t)
        critic.update(r_t)
    actor.accumulate(r)
    actor.apply_batch_update()
    # the filter keep * state + gain * R, one presentation at a time, with
    # every gain * R formed at once
    keep = np.array(config.filter_keep)
    for gain_r in _multiply(np.array(config.filter_gain), r):
        _add(_multiply(keep, filter_state, filter_state), gain_r, filter_state)
    return r.sum(axis=0) / batch_size, filter_state


# The bound of one draw's memory (module docstring, "Random streams"): the
# batch's draws of one epoch or more stay within CHUNK_BYTES.
CHUNK_BYTES = 512 * 1024


def chunk_epochs(lanes: int, epoch_uniforms: int, epochs_left: int) -> int:
    """Epochs per draw for lanes that each use epoch_uniforms float64
    uniforms per epoch: at least 1, at most epochs_left, and otherwise the
    most whose draws fit CHUNK_BYTES."""
    return max(1, min(epochs_left, CHUNK_BYTES // (8 * lanes * epoch_uniforms)))


def draw_epochs(rngs: list[np.random.Generator], n_epochs: int, block: tuple[int, int]):
    """n_epochs epochs' uniforms of every generator's lane, presentation-major:
    (n_epochs, batch_size, lanes, block[1]) for blocks of shape block =
    (batch_size, uniforms per presentation), C-contiguous, so that [k] is
    epoch k's u of run_epoch. Each lane fills all its epochs in one call
    into one lane's buffer, which is then copied into the lane's column."""
    draws = np.empty((n_epochs, block[0], len(rngs), block[1]))
    lane = np.empty((n_epochs,) + block)
    for row, rng in enumerate(rngs):
        rng.random(out=lane)
        draws[:, :, row] = lane
    return draws


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


def _run_batch(
    config: ExperimentConfig, lanes: list[tuple[UpdateRule, float, int]]
) -> list[TrialResult]:
    """Train one lane per (rule, lr, trial index) until each reaches the
    goal or max_epochs; results in lane order."""
    seeds = [trial_seed(config.master_seed, rule, lr, i) for rule, lr, i in lanes]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    actor = ActorNetwork.initialize(
        config.actor, rngs, [lr for _, lr, _ in lanes], [rule for rule, _, _ in lanes]
    )
    critic = CriticNetwork.initialize(config.critic, rngs)
    schedule = InputSchedule()

    live = np.arange(len(lanes))  # lane index of every row still training
    filter_state = np.full(len(lanes), config.filter_init)
    raw = np.empty((len(lanes), config.max_epochs))
    filtered = np.empty((len(lanes), config.max_epochs))
    n_epochs = np.empty(len(lanes), dtype=int)
    block = (config.actor.batch_size, N_INPUTS + 2 * config.actor.n_hidden + 2)
    epoch, draws = 0, ()  # draws: the uniforms of the epochs left of the last draw
    while live.size:
        if not len(draws):
            draws = None  # free the spent draw before the next one
            n_chunk = chunk_epochs(live.size, block[0] * block[1], config.max_epochs - epoch)
            draws = draw_epochs(rngs, n_chunk, block)
        mean_r, filter_state = run_epoch(actor, critic, schedule, draws[0], filter_state, config)
        draws = draws[1:]
        raw[live, epoch] = mean_r
        filtered[live, epoch] = filter_state
        epoch += 1
        done = (filter_state >= config.goal) | (epoch == config.max_epochs)
        if done.any():
            n_epochs[live[done]] = epoch
            keep = np.flatnonzero(~done)
            live, filter_state = live[keep], filter_state[keep]
            rngs = [rngs[i] for i in keep]
            actor.select(keep)
            critic.select(keep)
            draws = np.take(draws, keep, axis=2)  # the lanes that stay
    # A lane leaves at the first epoch whose filter reaches the goal, or at
    # max_epochs: it reached the goal iff its last filter value did.
    reached = filtered[np.arange(len(lanes)), n_epochs - 1] >= config.goal
    return [
        TrialResult(
            filtered_curve=filtered[k, :n].copy(),
            raw_curve=raw[k, :n].copy(),
            epochs_to_goal=n if hit else None,
            seed=seeds[k],
        )
        for k, (n, hit) in enumerate(zip(n_epochs.tolist(), reached.tolist()))
    ]


def run_trial(
    config: ExperimentConfig,
    update_rule: UpdateRule,
    lr_hidden: float,
    trial_index: int,
) -> TrialResult:
    """One trial, as a batch of one lane."""
    return _run_lanes(config, [(update_rule, lr_hidden, trial_index)])[0]


def run_trials(
    config: ExperimentConfig,
    arms: list[tuple[UpdateRule, float]],
    parallelism: int = 1,
) -> list[TrialResult]:
    """n_trials trials of every (rule, lr) arm, all as lanes of one batch.

    Results come arm by arm, each arm's by trial index. parallelism must
    be >= 1; parallelism > 1 deals the lanes out to min(parallelism, lanes)
    processes of one Pool, lane k to worker k mod that count, and runs each
    worker's lanes as one batch; results are identical for any worker count.
    """
    lanes = [(rule, lr, i) for rule, lr in arms for i in range(config.n_trials)]
    return _run_lanes(config, lanes, parallelism)


def _run_lanes(
    config: ExperimentConfig, lanes: list[tuple[UpdateRule, float, int]], parallelism: int = 1
) -> list[TrialResult]:
    """Reject a rate that is not finite and > 0 and a parallelism below 1,
    then train the lanes on up to parallelism workers; results in lane
    order."""
    for _, lr, _ in lanes:
        if not 0.0 < lr < math.inf:
            raise ValueError(f"learning rates must be finite and > 0, got {lr}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, len(lanes))
    if workers <= 1:
        return _run_batch(config, lanes)
    # lane k goes to worker k mod workers, so every worker gets lanes of
    # every arm, however long each arm's trials run
    with Pool(processes=workers) as pool:
        parts = pool.starmap(_run_batch, [(config, lanes[w::workers]) for w in range(workers)])
    results = [None] * len(lanes)
    for w, part in enumerate(parts):
        results[w::workers] = part
    return results


@dataclass
class WelchResult:
    """Welch two-sample test statistic and p-values."""

    t: float
    nu: float
    p_two_sided: float
    p_one_sided: float


_CF_MAX_ITER = 10_000
_CF_TINY = 1e-300


def _student_t_two_sided(t: float, nu: float) -> float:
    """Two-sided Student-t tail P(|T| >= |t|) with nu degrees of freedom.

    This is the regularized incomplete beta I_x(nu/2, 1/2) at
    x = nu/(nu+t^2), evaluated by its continued fraction (modified Lentz)
    with the prefactor x^a (1-x)^b / (a B(a, b)) in log space. The fraction
    converges fast for x < (a+1)/(a+b+2); above that, I_x(a, b) =
    1 - I_{1-x}(b, a). 1 - x is formed as t^2/(nu+t^2), never by
    subtraction, so a tiny t keeps its tail below 1.
    """
    if t == 0.0:
        return 1.0
    t2 = t * t
    x = nu / (nu + t2)
    if x == 0.0:  # t^2 overflowed: the tail is below the smallest double
        return 0.0
    y = t2 / (nu + t2)  # 1 - x
    a, b = nu / 2.0, 0.5
    if x >= (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc_by_fraction(b, a, y, x)
    return _betainc_by_fraction(a, b, x, y)


def _betainc_by_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) by its continued fraction, for y = 1 - x and x < (a+1)/(a+b+2).

    Raises ArithmeticError if the fraction has not converged to a relative
    step of 1e-15 within _CF_MAX_ITER terms.
    """
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        # an even step, then an odd step of the fraction's numerators
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return math.exp(log_front) * h / a
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def welch_t_test(a, b) -> WelchResult:
    """Welch's unequal-variance t-test between two samples.

    Sample variances use the n-1 denominator; degrees of freedom come from
    the Welch-Satterthwaite formula; the two-sided p-value is the
    regularized incomplete beta I_{nu/(nu+t^2)}(nu/2, 1/2), evaluated by
    its continued fraction (`_student_t_two_sided`). For |t| in [1e-3, 40]
    its relative error against a 40-digit evaluation stayed below 1e-12
    for nu <= 2000 and 2e-11 for nu <= 1e4, where the log-gamma difference
    in the prefactor loses digits; it is within 1e-10 of scipy's `betainc`
    for nu <= 2000, a gap that is mostly scipy's own error. The one-sided
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
    p_two = _student_t_two_sided(t, nu)
    return WelchResult(t=t, nu=nu, p_two_sided=p_two, p_one_sided=p_two / 2.0)


def _summarize_arms(
    config: ExperimentConfig, arms: list[tuple[UpdateRule, float]], parallelism: int
) -> list[RuleSummary]:
    """One RuleSummary per (rule, lr) arm, in arm order, from one run_trials call."""
    results = run_trials(config, arms, parallelism=parallelism)
    n = config.n_trials
    return [
        RuleSummary(rule, lr, [r.epochs_to_goal for r in results[k * n : (k + 1) * n]])
        for k, (rule, lr) in enumerate(arms)
    ]


def compare_rules(config: ExperimentConfig, parallelism: int = 1) -> ComparisonReport:
    """Run both rules at their configured learning rates and test the difference.

    The Welch test compares epochs_to_goal of the power-law arm (sample a)
    against the linear arm (sample b) over converged trials only;
    non-converged counts are visible in the per-rule summaries. Raises
    ValueError before training if n_trials < 2.
    """
    if config.n_trials < 2:
        raise ValueError(f"compare needs n_trials >= 2, got {config.n_trials}")
    arms = [(rule, config.lr_for(rule)) for rule in (UpdateRule.POWER_LAW, UpdateRule.LINEAR)]
    powerlaw, linear = _summarize_arms(config, arms, parallelism)
    sample_p, sample_l = powerlaw.converged, linear.converged
    if len(sample_p) < 2 or len(sample_l) < 2:
        raise StatisticsUnavailableError(
            f"need >= 2 converged trials per arm, got "
            f"{len(sample_p)} (powerlaw) and {len(sample_l)} (linear)"
        )
    return ComparisonReport(powerlaw, linear, welch_t_test(sample_p, sample_l))


def sweep_grid(config: ExperimentConfig) -> list[float]:
    """Learning-rate grid from lr_sweep_from to lr_sweep_to inclusive."""
    values = []
    k = 0
    while True:
        lr = round(config.lr_sweep_from + k * config.lr_sweep_step, 10)
        if lr > config.lr_sweep_to + SWEEP_SLACK:
            break
        values.append(lr)
        k += 1
    return values


def lr_sweep(
    config: ExperimentConfig, rules: list[UpdateRule], parallelism: int = 1
) -> list[SweepResult]:
    """n_trials trials at every grid learning rate of every rule, all as
    one batch; pick each rule's fastest rate.

    Returns one SweepResult per rule, in the order given, whose points are
    the RuleSummary of every grid rate. The winner has the smallest
    RuleSummary.penalized_mean(max_epochs); ties break toward the smaller
    learning rate. Raises ValueError if the grid is empty.
    """
    grid = sweep_grid(config)
    if not grid:
        raise ValueError("learning-rate sweep grid is empty")
    summaries = _summarize_arms(config, [(rule, lr) for rule in rules for lr in grid], parallelism)
    sweeps = []
    for k, rule in enumerate(rules):
        points = summaries[k * len(grid) : (k + 1) * len(grid)]
        best = min(points, key=lambda p: (p.penalized_mean(config.max_epochs), p.lr_hidden))
        sweeps.append(SweepResult(rule, points, best.lr_hidden))
    return sweeps
