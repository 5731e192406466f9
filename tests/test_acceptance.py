"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). The first two criteria need the full 50-trial-per-rule comparison,
which runs once as a module fixture (about 6 s on a two-core host).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from spinsyn.actor import (
    ActorConfig,
    ActorNetwork,
    UpdateRule,
    threshold_power_update,
)
from spinsyn.cli import DEVICE_MAP_DURATIONS, DEVICE_MAP_VOLTAGES, main
from spinsyn.critic import CriticConfig, CriticNetwork
from spinsyn.device import (
    DeviceState,
    PulseSpec,
    SpinValveParams,
    apply_pulse,
    calibrate_pulse_tau,
    magnetoconductance,
    pulse_map_sweep,
)
from spinsyn.harness import (
    ExperimentConfig,
    compare_rules,
    welch_t_test,
)
from oracles import epochs_to_goal, filter_reward, sigmoid

PARAMS = SpinValveParams()


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}", flush=True)


@pytest.fixture(scope="module")
def headline():
    """50 trials per rule at the configured defaults (PowerLaw 1.1, Linear 0.75)."""
    return compare_rules(ExperimentConfig(), parallelism=2)


def test_criterion_01_headline_reproduction(headline):
    pl, lin = headline.powerlaw, headline.linear
    ordered = pl.mean < lin.mean
    significant = headline.welch.p_one_sided < 0.05
    pl_in_band = 896 * 0.6 <= pl.mean <= 896 * 1.4
    lin_in_band = 1076 * 0.6 <= lin.mean <= 1076 * 1.4
    detail = (
        f"powerlaw {pl.mean:.0f}±{pl.std:.0f} (n={pl.n_converged}/50), "
        f"linear {lin.mean:.0f}±{lin.std:.0f} (n={lin.n_converged}/50), "
        f"one-sided p={headline.welch.p_one_sided:.4f}; "
        f"ordered={ordered} significant={significant} "
        f"bands powerlaw={pl_in_band} linear={lin_in_band}"
    )
    ok = ordered and significant and pl_in_band and lin_in_band
    report("01 headline comparison", ok, detail)
    assert ordered, "nonlinear mean must be below linear mean"
    assert significant, "one-sided Welch p must be < 0.05"
    assert pl_in_band, "nonlinear mean must lie within ±40% of 896"
    assert lin_in_band, "linear mean must lie within ±40% of 1076"


def test_criterion_02_long_tail_property(headline):
    threshold = 2.0 * headline.linear.mean
    lin_count = sum(
        1 for e in headline.linear.epochs if e is None or e > threshold
    )
    pl_count = sum(
        1 for e in headline.powerlaw.epochs if e is None or e > threshold
    )
    ok = lin_count > pl_count
    report(
        "02 long-tail counts",
        ok,
        f"threshold {threshold:.0f} epochs: linear {lin_count}, powerlaw {pl_count}",
    )
    assert ok, "linear rule must show strictly more long/non-converged trials"


def test_criterion_03_magnetoconductance_exactness():
    top = magnetoconductance(PARAMS.g_max, PARAMS)
    top_ok = abs(top - 0.25) <= 0.25 * 1e-12
    below = np.linspace(PARAMS.g_min, PARAMS.g_th, 2000)
    zero_ok = all(magnetoconductance(g, PARAMS) == 0.0 for g in below)
    grid = np.linspace(PARAMS.g_th, PARAMS.g_max, 10_000)
    values = np.array([magnetoconductance(g, PARAMS) for g in grid])
    increasing_ok = bool(np.all(np.diff(values) > 0.0))
    ok = top_ok and zero_ok and increasing_ok
    report(
        "03 device calibration",
        ok,
        f"MG(g_max)={top:.15f}, zero-below-threshold={zero_ok}, "
        f"strictly-increasing={increasing_ok}",
    )
    assert ok


def test_criterion_04_pulse_model_anchor():
    pulse = PulseSpec(voltage=2.5, duration=5e-3)
    tau = calibrate_pulse_tau(47.0, 50, pulse, PARAMS)
    params = SpinValveParams(pulse_time_constant_tau=tau)
    state = DeviceState(conductance=params.g_min)
    for _ in range(50):
        state = apply_pulse(state, pulse, params)
    ratio = state.conductance / params.g_min
    anchor_ok = abs(ratio - 47.0) <= 0.5

    ratios = pulse_map_sweep(
        DEVICE_MAP_VOLTAGES, DEVICE_MAP_DURATIONS, 50, params
    )
    monotone_ok = True
    for i, v in enumerate(DEVICE_MAP_VOLTAGES):
        row = ratios[i]
        if v > params.pulse_threshold_v:
            monotone_ok &= bool(np.all(np.diff(row) >= 0))
        elif v < -params.pulse_threshold_v:
            monotone_ok &= bool(np.all(np.diff(row) <= 0))
    for j in range(len(DEVICE_MAP_DURATIONS)):
        monotone_ok &= bool(np.all(np.diff(ratios[:, j]) >= 0))
    sub = [
        ratios[i, j]
        for i, v in enumerate(DEVICE_MAP_VOLTAGES)
        if abs(v) <= params.pulse_threshold_v
        for j in range(len(DEVICE_MAP_DURATIONS))
    ]
    sub_ok = all(r == 1.0 for r in sub)
    ok = anchor_ok and monotone_ok and sub_ok
    report(
        "04 pulse-model anchor",
        ok,
        f"on/off={ratio:.6f}, map-monotone={monotone_ok}, "
        f"subthreshold-exact-1={sub_ok}",
    )
    assert ok


def test_criterion_05_update_map_properties():
    grid = np.linspace(-3.0, 3.0, 100_000)
    f = threshold_power_update(grid, 0.4, 1.75)
    odd_ok = bool(np.array_equal(threshold_power_update(-grid, 0.4, 1.75), -f))
    dead_ok = bool(np.all(f[np.abs(grid) <= 0.4] == 0.0))
    inside = np.abs(grid) <= 1.0
    contract_ok = bool(np.all(np.abs(f[inside]) <= np.abs(grid[inside])))
    monotone_ok = bool(np.all(np.diff(f) >= 0.0))
    spot = float(threshold_power_update(0.5, 0.4, 1.75))
    spot_ok = abs(spot - 0.29730) <= 1e-5
    ok = odd_ok and dead_ok and contract_ok and monotone_ok and spot_ok
    report(
        "05 update-map properties",
        ok,
        f"odd={odd_ok} deadzone={dead_ok} contractive={contract_ok} "
        f"monotone={monotone_ok} f(0.5)={spot:.6f}",
    )
    assert ok


def test_criterion_06_policy_gradient_monte_carlo():
    # one hidden unit rewarded with its own bit, one presentation in each of
    # n lanes
    config = ActorConfig(n_hidden=1, alpha_flip=0.0)
    net = ActorNetwork(
        config,
        w_hidden=np.full((1, 1, 1), 0.8),
        b_hidden=np.zeros((1, 1)),
        w_out=np.zeros((1, 1)),
        b_out=np.zeros(1),
        update_rules=[UpdateRule.POWER_LAW],
        lr_hidden=[1.0],
    )
    p = sigmoid(0.8)
    rng = np.random.default_rng(2024)
    n = 100_000
    net.select(np.zeros(n, dtype=int))  # n copies of the lane
    net.propose(np.ones((1, n, 1)), rng.random((1, n, 2 * config.n_hidden + 2)))
    net.r_bar[0] = 0.5
    net.forward(0)
    net.accumulate(net.y_hidden[..., 0])
    increments = net.acc_w_hidden[:, 0, 0]
    expected = p * (1 - p)
    se = increments.std(ddof=1) / math.sqrt(n)
    deviation = abs(increments.mean() - expected)
    ok = deviation < 3 * se
    report(
        "06 policy-gradient check",
        ok,
        f"mean={increments.mean():.6f} expected={expected:.6f} "
        f"deviation={deviation / se:.2f} SE over {n} presentations",
    )
    assert ok


def test_criterion_07_critic_sign_alignment():
    rng = np.random.default_rng(31)
    cfg = CriticConfig(l1_coeff=0.0)
    h = 1e-6
    checked = 0
    mismatches = 0
    for _ in range(1000):
        # a batch of one lane
        critic = CriticNetwork.initialize(cfg, [rng])
        critic.w_hidden[:] = rng.normal(scale=1.0, size=critic.w_hidden.shape)
        critic.b_hidden[:] = rng.normal(scale=1.0, size=critic.b_hidden.shape)
        x = rng.integers(0, 2, size=(1, 2)).astype(float)
        r = float(rng.random())
        w_before = critic.w_hidden.copy()
        b_before = critic.b_hidden.copy()
        neg_x = critic.negate_inputs(x[None])[0]
        prediction = np.empty(1)
        critic.forward(neg_x, prediction)
        critic.update(np.array([r]))
        update = (critic.w_hidden - w_before)[0]
        critic.w_hidden[:] = w_before
        critic.b_hidden[:] = b_before
        for i in range(cfg.n_hidden):
            for j in range(x.shape[1]):
                if abs(update[j, i]) <= 1e-9:
                    continue
                w0 = critic.w_hidden[0, j, i]
                critic.w_hidden[0, j, i] = w0 + h
                up = (r - critic.forward(neg_x, prediction)[0]) ** 2
                critic.w_hidden[0, j, i] = w0 - h
                down = (r - critic.forward(neg_x, prediction)[0]) ** 2
                critic.w_hidden[0, j, i] = w0
                fd = (up - down) / (2 * h)
                if abs(fd) <= 1e-9:
                    continue
                checked += 1
                if np.sign(update[j, i]) != np.sign(-fd):
                    mismatches += 1
    ok = mismatches == 0 and checked > 0
    report(
        "07 critic sign alignment",
        ok,
        f"{checked} components checked, {mismatches} sign mismatches",
    )
    assert ok


def test_criterion_08_welch_oracle_equivalence():
    res = welch_t_test([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    t_ok = abs(res.t - (-1.5492)) <= 1e-4
    nu_ok = abs(res.nu - 2.941) <= 1e-3
    # nu = 1, t = 1 arises for a = [1, 3] vs the zero-variance b = [1, 1];
    # the two-sided p must match the Cauchy closed form 1 - 2*atan(1)/pi
    cauchy = welch_t_test([1.0, 3.0], [1.0, 1.0])
    cauchy_ok = (
        abs(cauchy.t - 1.0) <= 1e-12
        and abs(cauchy.nu - 1.0) <= 1e-12
        and abs(cauchy.p_two_sided - 0.5) <= 1e-6
    )
    ab = welch_t_test([5.0, 7.0, 9.0], [6.0, 6.5, 8.0])
    ba = welch_t_test([6.0, 6.5, 8.0], [5.0, 7.0, 9.0])
    anti_ok = (
        abs(ab.t + ba.t) <= 1e-12
        and abs(ab.p_two_sided - ba.p_two_sided) <= 1e-6
        and abs(ab.p_one_sided - ba.p_one_sided) <= 1e-6
    )
    ok = t_ok and nu_ok and cauchy_ok and anti_ok
    report(
        "08 Welch oracle",
        ok,
        f"t={res.t:.5f} nu={res.nu:.4f} cauchy-p={cauchy.p_two_sided:.8f} "
        f"antisymmetry={anti_ok}",
    )
    assert ok


def test_criterion_09_filter_floor():
    config = ExperimentConfig()
    keep, gain = config.filter_keep, config.filter_gain
    value, presentations = 0.5, 0
    while value < 0.975:
        value = filter_reward(value, 1.0, keep, gain)
        presentations += 1
    value, curve = 0.5, []
    for _ in range(400):
        for _ in range(10):
            value = filter_reward(value, 1.0, keep, gain)
        curve.append(value)
    epoch = epochs_to_goal(curve, 0.975)
    ok = presentations == 2995 and epoch == 300
    report(
        "09 filter floor",
        ok,
        f"first crossing at presentation {presentations}, epoch {epoch}",
    )
    assert ok


def test_criterion_10_determinism_across_parallelism(tmp_path):
    # byte-identity of compare outputs is scale-free: a reduced trial count
    # keeps the check fast while exercising the full multi-worker path
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "harness.n_trials = 6\nharness.max_epochs = 150\n"
        "harness.goal = 0.52\nharness.master_seed = 99\n"
    )
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"p{workers}"
        code = main(
            ["compare", "--config", str(cfg), "--out", str(out),
             "--parallelism", str(workers)]
        )
        assert code == 0
        outputs[workers] = (
            (out / "comparison.csv").read_bytes(),
            (out / "stats.csv").read_bytes(),
        )
    ok = outputs[1] == outputs[8]
    report("10 determinism", ok, "parallelism 1 vs 8 CSVs byte-identical")
    assert ok
