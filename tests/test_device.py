import math
import time

import numpy as np
import pytest

from spinsyn.device import (
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
    step_fraction,
)

PARAMS = SpinValveParams()


def test_default_constants():
    assert PARAMS.g_min == 6.4e-7
    assert PARAMS.g_th == 1.13e-6
    assert PARAMS.g_max == 8.9e-5
    assert PARAMS.mg_max == 0.25
    assert PARAMS.mg_exponent == 0.75
    assert PARAMS.pulse_threshold_v == 1.2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"g_min": 2e-6},  # g_min > g_th
        {"g_max": 1e-6},  # g_max < g_th
        {"g_min": 0.0},
        {"mg_max": -0.1},
        {"mg_exponent": 0.0},
        {"pulse_threshold_v": -1.0},
        {"pulse_time_constant_tau": 0.0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SpinValveParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["g_min", "g_max", "g_th", "mg_max", "mg_exponent", "pulse_threshold_v",
     "pulse_time_constant_tau"],
)
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError):
        SpinValveParams(**{field: value})


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        PulseSpec(voltage=2.5, duration=-1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["voltage", "duration"])
def test_non_finite_pulse_rejected(field, value):
    with pytest.raises(ValueError):
        PulseSpec(**{"voltage": 2.5, "duration": 5e-3, field: value})


class TestMagnetoconductance:
    def test_zero_at_g_min(self):
        assert magnetoconductance(PARAMS.g_min, PARAMS) == 0.0

    def test_zero_at_threshold(self):
        assert magnetoconductance(PARAMS.g_th, PARAMS) == 0.0

    def test_max_at_g_max(self):
        assert magnetoconductance(PARAMS.g_max, PARAMS) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_formula_at_interior_point(self):
        # oracle: the calibrated power law evaluated independently
        g = 1.0e-5
        expected = 0.25 * ((1.0e-5 - 1.13e-6) / (8.9e-5 - 1.13e-6)) ** 0.75
        assert magnetoconductance(g, PARAMS) == pytest.approx(expected, rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            magnetoconductance(PARAMS.g_min * 0.5, PARAMS)
        with pytest.raises(ValueError):
            magnetoconductance(PARAMS.g_max * 1.01, PARAMS)

    def test_strictly_increasing_above_threshold(self):
        grid = np.linspace(PARAMS.g_th, PARAMS.g_max, 10_000)
        values = np.array([magnetoconductance(g, PARAMS) for g in grid])
        assert np.all(np.diff(values) > 0.0)

    def test_identically_zero_below_threshold(self):
        for g in np.linspace(PARAMS.g_min, PARAMS.g_th, 500):
            assert magnetoconductance(g, PARAMS) == 0.0


class TestEffectiveConductance:
    def test_parallel_is_reference(self):
        state = DeviceState(conductance=5e-6)
        assert effective_conductance(state, PARAMS) == 5e-6

    def test_low_conductance_unaffected_by_field(self):
        state = DeviceState(conductance=8e-7, magnetization=Magnetization.ANTIPARALLEL)
        assert effective_conductance(state, PARAMS) == 8e-7

    def test_antiparallel_boost_at_g_max(self):
        state = DeviceState(
            conductance=PARAMS.g_max, magnetization=Magnetization.ANTIPARALLEL
        )
        assert effective_conductance(state, PARAMS) == pytest.approx(
            1.25 * 8.9e-5, rel=1e-12
        )

    def test_selective_boost_above_threshold_only(self):
        rng = np.random.default_rng(11)
        for g in rng.uniform(PARAMS.g_min, PARAMS.g_max, size=200):
            par = DeviceState(conductance=g)
            anti = DeviceState(conductance=g, magnetization=Magnetization.ANTIPARALLEL)
            ec_par = effective_conductance(par, PARAMS)
            ec_anti = effective_conductance(anti, PARAMS)
            if g <= PARAMS.g_th:
                assert ec_anti == ec_par
            else:
                assert ec_anti > ec_par


class TestSetMagnetization:
    def test_round_trip_restores_readout(self):
        state = DeviceState(conductance=2e-5)
        before = effective_conductance(state, PARAMS)
        flipped = set_magnetization(state, Magnetization.ANTIPARALLEL)
        restored = set_magnetization(flipped, Magnetization.PARALLEL)
        assert effective_conductance(restored, PARAMS) == before
        assert flipped.conductance == state.conductance

    def test_idempotent(self):
        state = DeviceState(conductance=2e-5, magnetization=Magnetization.ANTIPARALLEL)
        assert set_magnetization(state, Magnetization.ANTIPARALLEL) == state


class TestApplyPulse:
    def test_subthreshold_pulse_is_noop(self):
        state = DeviceState(conductance=3e-6)
        pulse = PulseSpec(voltage=1.0, duration=5e-3)
        assert apply_pulse(state, pulse, PARAMS) == state

    def test_threshold_voltage_exactly_is_noop(self):
        state = DeviceState(conductance=3e-6)
        pulse = PulseSpec(voltage=1.2, duration=5e-3)
        assert apply_pulse(state, pulse, PARAMS) == state

    def test_zero_duration_is_noop(self):
        state = DeviceState(conductance=3e-6)
        pulse = PulseSpec(voltage=2.5, duration=0.0)
        assert apply_pulse(state, pulse, PARAMS) == state

    def test_potentiation_train_hits_measured_ratio(self):
        pulse = PulseSpec(voltage=2.5, duration=5e-3)
        tau = calibrate_pulse_tau(47.0, 50, pulse, PARAMS)
        params = SpinValveParams(pulse_time_constant_tau=tau)
        state = DeviceState(conductance=params.g_min)
        for _ in range(50):
            state = apply_pulse(state, pulse, params)
        assert state.conductance / params.g_min == pytest.approx(47.0, abs=0.5)

    def test_magnetization_unchanged_by_pulses(self):
        state = DeviceState(conductance=3e-6, magnetization=Magnetization.ANTIPARALLEL)
        out = apply_pulse(state, PulseSpec(voltage=3.0, duration=1e-2), PARAMS)
        assert out.magnetization is Magnetization.ANTIPARALLEL

    def test_conductance_stays_bounded_under_random_trains(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = DeviceState(conductance=rng.uniform(PARAMS.g_min, PARAMS.g_max))
            for _ in range(200):
                pulse = PulseSpec(
                    voltage=rng.uniform(-5.0, 5.0), duration=rng.uniform(0.0, 0.05)
                )
                state = apply_pulse(state, pulse, PARAMS)
                assert PARAMS.g_min <= state.conductance <= PARAMS.g_max

    def test_potentiation_monotone_depression_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = rng.uniform(PARAMS.g_min, PARAMS.g_max)
            state = DeviceState(conductance=g)
            up = apply_pulse(state, PulseSpec(rng.uniform(1.3, 5.0), 5e-3), PARAMS)
            assert up.conductance >= g
            down = apply_pulse(state, PulseSpec(rng.uniform(-5.0, -1.3), 5e-3), PARAMS)
            assert down.conductance <= g


class TestStepFraction:
    def test_monotone_in_voltage_and_duration(self):
        voltages = np.linspace(1.3, 5.0, 40)
        lams = [step_fraction(v, 5e-3, PARAMS) for v in voltages]
        assert np.all(np.diff(lams) > 0)
        durations = np.linspace(1e-4, 0.1, 40)
        lams = [step_fraction(2.5, t, PARAMS) for t in durations]
        assert np.all(np.diff(lams) > 0)


class TestCalibratePulseTau:
    def test_reference_calibration_values(self):
        pulse = PulseSpec(voltage=2.5, duration=5e-3)
        tau = calibrate_pulse_tau(47.0, 50, pulse, PARAMS)
        assert tau == pytest.approx(0.80, abs=0.01)
        lam = 1.0 - math.exp(-(2.5 - 1.2) * 5e-3 / tau)
        assert lam == pytest.approx(8.07e-3, rel=1e-2)

    def test_default_tau_matches_calibration(self):
        pulse = PulseSpec(voltage=2.5, duration=5e-3)
        assert PARAMS.pulse_time_constant_tau == pytest.approx(
            calibrate_pulse_tau(47.0, 50, pulse, PARAMS), rel=1e-12
        )

    def test_roundtrip_resimulation(self):
        pulse = PulseSpec(voltage=3.1, duration=2e-3)
        tau = calibrate_pulse_tau(12.0, 30, pulse, PARAMS)
        params = SpinValveParams(pulse_time_constant_tau=tau)
        state = DeviceState(conductance=params.g_min)
        for _ in range(30):
            state = apply_pulse(state, pulse, params)
        assert state.conductance / params.g_min == pytest.approx(12.0, rel=1e-9)

    def test_achievable_range_enforced(self):
        pulse = PulseSpec(voltage=2.5, duration=5e-3)
        max_ratio = PARAMS.g_max / PARAMS.g_min
        with pytest.raises(ValueError):
            calibrate_pulse_tau(max_ratio, 50, pulse, PARAMS)  # asymptote
        with pytest.raises(ValueError):
            calibrate_pulse_tau(1.0, 50, pulse, PARAMS)
        with pytest.raises(ValueError):
            calibrate_pulse_tau(0.5, 50, pulse, PARAMS)

    def test_subthreshold_pulse_rejected(self):
        with pytest.raises(ValueError):
            calibrate_pulse_tau(47.0, 50, PulseSpec(1.0, 5e-3), PARAMS)

    def test_tau_grows_as_target_shrinks_toward_one(self):
        pulse = PulseSpec(voltage=2.5, duration=5e-3)
        taus = [
            calibrate_pulse_tau(t, 50, pulse, PARAMS) for t in (20.0, 5.0, 1.1, 1.001)
        ]
        assert np.all(np.diff(taus) > 0)
        assert taus[-1] > 1e3 * taus[0]


class TestPulseMapSweep:
    def test_subthreshold_rows_are_unity(self):
        ratios = pulse_map_sweep([0.0, 0.5, -1.2, 1.2], [1e-3, 5e-3], 50, PARAMS)
        assert np.all(ratios == 1.0)

    def test_inactive_cells_exact_when_bounds_do_not_round_trip(self):
        params = SpinValveParams(g_min=6.732655185893088e-07, g_max=3.428080423874833e-05)
        assert params.g_max + (params.g_min - params.g_max) != params.g_min
        ratios = pulse_map_sweep([0.5, 1.2, 2.5], [0.0, 5e-3], 50, params)
        assert np.all(ratios[:2] == 1.0) and ratios[2, 0] == 1.0

    def test_calibrated_cell(self):
        ratios = pulse_map_sweep([2.5], [5e-3], 50, PARAMS)
        assert ratios[0, 0] == pytest.approx(47.0, abs=0.5)

    def test_zero_duration_column_is_unity(self):
        ratios = pulse_map_sweep([-3.0, 2.5, 4.0], [0.0], 50, PARAMS)
        assert np.all(ratios == 1.0)

    def test_rows_and_columns_monotone(self):
        voltages = [round(-4.0 + 0.5 * k, 10) for k in range(17)]
        durations = [5e-4, 1e-3, 2e-3, 5e-3, 1e-2]
        ratios = pulse_map_sweep(voltages, durations, 50, PARAMS)
        for i, v in enumerate(voltages):
            row = ratios[i]
            if v > PARAMS.pulse_threshold_v:
                assert np.all(np.diff(row) >= 0)
            elif v < -PARAMS.pulse_threshold_v:
                assert np.all(np.diff(row) <= 0)
            else:
                assert np.all(row == 1.0)
        # ratio rises monotonically with voltage at fixed duration
        for j in range(len(durations)):
            assert np.all(np.diff(ratios[:, j]) >= 0)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            pulse_map_sweep([], [1e-3], 50, PARAMS)
        with pytest.raises(ValueError):
            pulse_map_sweep([2.5], [1e-3], 0, PARAMS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["voltages", "durations"])
    def test_non_finite_axis_rejected_before_any_pulse(self, axis, value):
        axes = {"voltages": [2.5, 3.0], "durations": [1e-3, 5e-3]}
        axes[axis].append(value)  # the bad value comes after cells that would run
        with pytest.raises(ValueError, match="finite"):
            pulse_map_sweep(axes["voltages"], axes["durations"], 3, PARAMS)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            pulse_map_sweep([2.5], [1e-3, -1e-3], 3, PARAMS)

    def test_non_integer_pulse_count_rejected(self):
        with pytest.raises(TypeError):
            pulse_map_sweep([2.5], [5e-3], 2.5, PARAMS)

    def test_numpy_integer_pulse_count_accepted(self):
        ratios = pulse_map_sweep([2.5], [5e-3], np.int64(50), PARAMS)
        assert ratios[0, 0] == pulse_map_sweep([2.5], [5e-3], 50, PARAMS)[0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_iterated_apply_pulse(self, seed):
        rng = np.random.default_rng(seed)
        v_th = PARAMS.pulse_threshold_v
        voltages = [0.0, v_th, -v_th] + list(rng.uniform(-4.0, 4.0, 9))
        # zero, ordinary and saturating (lambda close to 1) durations
        durations = [0.0] + list(10.0 ** rng.uniform(-4.0, -1.0, 5)) + [5.0, 50.0]
        n_pulses = int(rng.integers(1, 60))
        ratios = pulse_map_sweep(voltages, durations, n_pulses, PARAMS)
        assert ratios.shape == (len(voltages), len(durations))
        for i, v in enumerate(voltages):
            start = PARAMS.g_min if v >= 0.0 else PARAMS.g_max
            for j, t in enumerate(durations):
                state = DeviceState(conductance=start)
                for _ in range(n_pulses):
                    state = apply_pulse(state, PulseSpec(voltage=v, duration=t), PARAMS)
                expected = state.conductance / start
                if step_fraction(v, t, PARAMS) == 0.0:
                    assert ratios[i, j] == 1.0
                else:
                    assert abs(ratios[i, j] - expected) <= 1e-11 * expected
                assert PARAMS.g_min / start <= ratios[i, j] <= PARAMS.g_max / start

    def test_million_pulses_saturate_in_closed_form(self):
        start = time.perf_counter()
        ratios = pulse_map_sweep([-3.0, 0.0, 2.5], [1e-4, 5e-3, 0.0], 10**6, PARAMS)
        assert time.perf_counter() - start < 1.0  # the iterated train takes minutes
        assert np.all(ratios[0, :2] == PARAMS.g_min / PARAMS.g_max)
        assert np.all(ratios[2, :2] == PARAMS.g_max / PARAMS.g_min)
        assert np.all(ratios[1] == 1.0) and np.all(ratios[:, 2] == 1.0)
