import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import drift_step, step_device, switching_hazard
from rtdrng.device import (
    Branch,
    DeviceParams,
    DeviceState,
    _branch_voltage_unchecked,
    streams,
    sweep_current,
)

P = DeviceParams()
P0 = DeviceParams(drift_sigma=0.0)


class TestBranchVoltage:
    # the branch lines' geometry: L ends at the peak, H starts at the valley
    def test_peak_inverse(self):
        assert _branch_voltage_unchecked(P, Branch.L, P.i_peak) == pytest.approx(P.v_peak)

    def test_valley_inverse(self):
        assert _branch_voltage_unchecked(P, Branch.H, P.i_valley) == pytest.approx(P.v_valley)

    def test_linear_l_branch(self):
        assert _branch_voltage_unchecked(P, Branch.L, P.i_peak / 2) == pytest.approx(P.v_peak / 2)

    def test_working_point_voltage(self):
        # H branch carries 1.50 mA at 1.15 V with the default geometry
        assert _branch_voltage_unchecked(P, Branch.H, 1.50) == pytest.approx(1.15)


class TestHazard:
    def test_zero_below_valley(self):
        assert switching_hazard(P, DeviceState(), P.i_valley) == 0.0
        assert switching_hazard(P, DeviceState(), 0.1) == 0.0

    def test_lambda0_at_peak(self):
        assert switching_hazard(P, DeviceState(), P.i_peak) == pytest.approx(P.lambda0)

    def test_one_scale_below_peak(self):
        got = switching_hazard(P, DeviceState(), P.i_peak - P.i_scale)
        assert got == pytest.approx(P.lambda0 / math.e)

    def test_infinite_above_peak(self):
        assert switching_hazard(P, DeviceState(), P.i_peak + 1e-9) == math.inf

    def test_drift_shifts_both_thresholds(self):
        state = DeviceState(drift=0.05)
        assert switching_hazard(P, state, P.i_valley + 0.04) == 0.0
        assert switching_hazard(P, state, P.i_peak + 0.04) < math.inf
        assert switching_hazard(P, state, P.i_peak + 0.05) == pytest.approx(P.lambda0)

    def test_requires_l_branch(self):
        with pytest.raises(ValueError):
            switching_hazard(P, DeviceState(branch=Branch.H), 1.0)

    def test_monotone_in_current(self):
        grid = np.linspace(0.0, P.i_peak, 50)
        rates = [switching_hazard(P, DeviceState(), float(i)) for i in grid]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestStepDevice:
    def test_h_to_l_at_zero_current(self):
        rng = streams(0)
        state = DeviceState(branch=Branch.H)
        assert step_device(state, P, 0.0, 1.0, rng).branch is Branch.L

    def test_l_to_h_above_peak(self):
        rng = streams(0)
        state = DeviceState(branch=Branch.L)
        assert step_device(state, P, P.i_peak + 0.01, 1.0, rng).branch is Branch.H

    def test_h_absorbing_in_bistable_window(self):
        rng = streams(0)
        state = DeviceState(branch=Branch.H)
        for _ in range(1000):
            state = step_device(state, P0, 1.0, 1.0, rng)
            assert state.branch is Branch.H

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_device(DeviceState(), P, 1.0, 0.0, streams(0))

    def test_switch_frequency_matches_closed_form(self):
        # Monte Carlo vs 1 - exp(-rate*dt) at a mid-window current
        i, dt = 1.50, 1.0
        rate = switching_hazard(P0, DeviceState(), i)
        expected = -math.expm1(-rate * dt)
        rng = streams(42)
        trials = 10**5
        hits = 0
        for _ in range(trials):
            if step_device(DeviceState(), P0, i, dt, rng).branch is Branch.H:
                hits += 1
        assert abs(hits / trials - expected) < 0.01
        # and within 3 standard errors
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * se + 1e-12


class TestDrift:
    def test_zero_sigma_stays_zero(self):
        rng = streams(3)
        state = DeviceState()
        for _ in range(100):
            state = drift_step(state, P0, 1.0, rng)
        assert state.drift == 0.0

    def test_mean_reversion_for_long_dt(self):
        rng = streams(4)
        state = DeviceState(drift=5.0)
        state = drift_step(state, P, 1e9, rng)
        assert abs(state.drift) < 1.0

    def test_stationary_standard_deviation(self):
        rng = streams(5)
        state = DeviceState()
        dt = 2.0 * P.drift_tau * 1000.0  # near-independent samples
        samples = np.empty(10**5)
        for k in range(samples.size):
            state = drift_step(state, P, dt, rng)
            samples[k] = state.drift
        assert abs(samples.std() - P.drift_sigma) / P.drift_sigma < 0.05

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            drift_step(DeviceState(), P, -1.0, streams(0))


class TestSweeps:
    def test_forward_sweep_single_switch_in_window(self):
        rng = streams(7)
        trace = sweep_current(P0, 0.0, 1.2 * P0.i_peak, 300, 1.0, rng)
        assert trace.switch_current is not None
        assert P0.i_valley < trace.switch_current <= P0.i_peak
        # exactly one upward voltage jump past the NDR gap
        jumps = np.flatnonzero(np.diff(trace.voltages) > 0.2)
        assert jumps.size == 1

    def test_reverse_sweep_switches_at_valley(self):
        rng = streams(8)
        trace = sweep_current(P0, 1.2 * P0.i_peak, 0.0, 300, 1.0, rng)
        assert trace.switch_current == pytest.approx(P0.i_valley)

    def test_monotone_currents(self):
        rng = streams(9)
        trace = sweep_current(P0, 0.0, 1.0, 50, 1.0, rng)
        assert np.all(np.diff(trace.currents) > 0)

    def test_switch_histogram_spread_and_mode(self):
        rng = streams(10)
        switches = []
        for _ in range(100):
            trace = sweep_current(P0, 0.0, 1.2 * P0.i_peak, 300, 1.0, rng)
            switches.append(trace.switch_current)
        switches = np.asarray(switches)
        assert switches.std() > 0.0
        counts, edges = np.histogram(switches, bins=20)
        mode_center = (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1]) / 2
        assert mode_center < P0.i_peak

    def test_hysteresis_loop_area_and_threshold_order(self):
        rng = streams(11)
        state = DeviceState()
        up = sweep_current(P0, 0.0, 1.2 * P0.i_peak, 400, 1.0, rng, state=state)
        down = sweep_current(P0, 1.2 * P0.i_peak, 0.0, 400, 1.0, rng, state=state)
        assert up.switch_current > down.switch_current
        # enclosed area of the I-V cycle via the trapezoid rule
        area_up = trapezoid(up.voltages, up.currents)
        area_down = trapezoid(down.voltages, down.currents)
        assert area_up + area_down < 0  # down integral is negative and larger
        assert abs(area_up + area_down) > 1e-3

    def test_determinism(self):
        a = sweep_current(P, 0.0, 2.0, 100, 1.0, streams(12))
        b = sweep_current(P, 0.0, 2.0, 100, 1.0, streams(12))
        assert np.array_equal(a.voltages, b.voltages)
        assert a.switch_current == b.switch_current

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            sweep_current(P, 0.0, 1.0, 1, 1.0, streams(0))


class TestParamValidation:
    def test_orderings_enforced(self):
        with pytest.raises(ValueError):
            DeviceParams(i_valley=2.0)
        with pytest.raises(ValueError):
            DeviceParams(v_peak=0.9, v_valley=0.7)
        with pytest.raises(ValueError):
            DeviceParams(lambda0=0.0)
        with pytest.raises(ValueError):
            DeviceParams(drift_sigma=-0.1)

    @pytest.mark.parametrize("name", ["drift"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DeviceState(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["lambda0", "i_scale", "g_high", "drift_tau", "drift_sigma", "i_peak", "v_valley"]
)
def test_non_finite_param_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DeviceParams(**{name: value})


@pytest.mark.parametrize(
    "start, stop, dt",
    [(math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, math.inf, 1.0),
     (-math.inf, 1.0, 1.0), (0.0, 1.86, math.nan), (0.0, 1.86, math.inf)],
)
def test_sweep_rejects_non_finite_arguments(start, stop, dt):
    with pytest.raises(ValueError, match="finite"):
        sweep_current(DeviceParams(), start, stop, 10, dt, streams(0))
