import math

import numpy as np
import pytest

from rtdrng.control import (
    ControllerState,
    default_controller,
    next_amplitude,
    run_closed_loop,
)
from rtdrng.device import DeviceParams, DeviceState, streams
from rtdrng.pulses import PulseConfig, acquire_bits

P_DRIFT = DeviceParams(drift_sigma=0.03)
P_QUIET = DeviceParams(drift_sigma=0.0)
CFG = PulseConfig(amplitude=1.515, width=1.0)  # calibrated 50/50 point


def make_ctrl(**kwargs):
    base = dict(amplitude=1.515, setpoint=0.5, window=500, gain=0.2875,
                amp_min=1.40, amp_max=1.55)
    base.update(kwargs)
    return ControllerState(**base)


class TestControllerUpdate:
    def test_zero_error_keeps_amplitude(self):
        ctrl = make_ctrl()
        assert next_amplitude(ctrl, ctrl.amplitude, 0.5) == ctrl.amplitude

    def test_high_ratio_lowers_amplitude(self):
        ctrl = make_ctrl()
        assert next_amplitude(ctrl, ctrl.amplitude, 0.7) < ctrl.amplitude

    def test_low_ratio_raises_amplitude(self):
        ctrl = make_ctrl()
        assert next_amplitude(ctrl, ctrl.amplitude, 0.3) > ctrl.amplitude

    def test_clamping(self):
        at_min = make_ctrl(amplitude=1.40)
        assert next_amplitude(at_min, at_min.amplitude, 1.0) == 1.40
        at_max = make_ctrl(amplitude=1.55)
        assert next_amplitude(at_max, at_max.amplitude, 0.0) == 1.55

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            next_amplitude(make_ctrl(), 1.515, 1.5)
        with pytest.raises(ValueError):
            next_amplitude(make_ctrl(), 1.515, -0.1)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            make_ctrl(setpoint=0.0)
        with pytest.raises(ValueError):
            make_ctrl(amp_min=2.0)
        with pytest.raises(ValueError):
            make_ctrl(amplitude=1.0)  # outside [amp_min, amp_max]
        with pytest.raises(ValueError):
            make_ctrl(gain=-0.1)

    def test_default_controller_gain_rule(self):
        ctrl = default_controller(P_QUIET, amplitude=1.5)
        assert ctrl.gain == pytest.approx(0.25 * (P_QUIET.i_peak - P_QUIET.i_valley))
        assert ctrl.amp_min == P_QUIET.i_valley
        assert ctrl.amp_max == P_QUIET.i_peak


class TestClosedLoop:
    def test_zero_gain_freezes_amplitude(self):
        ctrl = make_ctrl(gain=0.0)
        _, _, amplitudes = run_closed_loop(
            DeviceState(), P_DRIFT, CFG, ctrl, 20, streams(1)
        )
        assert np.all(amplitudes == amplitudes[0])

    def test_output_sizes(self):
        ctrl = make_ctrl(window=100)
        stream, ratios, amplitudes = run_closed_loop(
            DeviceState(), P_QUIET, CFG, ctrl, 7, streams(2)
        )
        assert len(stream) == 700
        assert ratios.shape == (7,) and amplitudes.shape == (7,)

    def test_amplitude_always_within_bounds(self):
        ctrl = make_ctrl(gain=1.5)  # deliberately twitchy
        _, _, amplitudes = run_closed_loop(
            DeviceState(), P_DRIFT, CFG, ctrl, 50, streams(3)
        )
        assert np.all(amplitudes >= ctrl.amp_min)
        assert np.all(amplitudes <= ctrl.amp_max)

    def test_calibrated_no_drift_tracks_setpoint(self):
        # amplitude pre-calibrated to the setpoint: binomial noise only
        ctrl = make_ctrl()
        n_windows = 100
        _, ratios, _ = run_closed_loop(
            DeviceState(), P_QUIET, CFG, ctrl, n_windows, streams(4)
        )
        tol = 3.0 / (2.0 * math.sqrt(500 * n_windows))
        assert abs(ratios.mean() - 0.5) < tol

    def test_step_disturbance_recovery(self):
        # freeze the drift at +0.04 mA and watch the loop pull the ratio back
        frozen = DeviceParams(drift_sigma=0.0, drift_tau=1e9)
        state = DeviceState(drift=0.04)
        ctrl = make_ctrl()
        _, ratios, _ = run_closed_loop(
            state, frozen, CFG, ctrl, 60, streams(5)
        )
        band = 2.0 / math.sqrt(500)
        assert abs(ratios[0] - 0.5) > band  # disturbance visible at start
        assert np.all(np.abs(ratios[50:] - 0.5) <= band)

    def test_control_beats_open_loop_under_drift(self):
        seed = 11
        n_windows = 100
        ctrl = make_ctrl()
        _, controlled, _ = run_closed_loop(
            DeviceState(), P_DRIFT, CFG, ctrl, n_windows, streams(seed)
        )
        stream = acquire_bits(
            DeviceState(), P_DRIFT, CFG, 500 * n_windows, streams(seed)
        )
        open_loop = stream.to_array().reshape(n_windows, 500).mean(axis=1)
        assert abs(controlled.mean() - 0.5) < abs(open_loop.mean() - 0.5)

    def test_no_residual_trend_with_control(self):
        # trend statistic: t-value of the least-squares slope of the window
        # ratio series.  Control must hold the drifting device below the
        # 99th percentile of the drift-free baseline.  That the drift matters
        # at all is judged per window, not by its trend: without control the
        # window ratios stray from 0.5 (RMS) beyond the baseline's 99th
        # percentile.  Over seeds 0-39 it does so by at least 1.5x, where the
        # open-loop trend exceeds the threshold at only 29 to 31 of them.
        def trend(ratios):
            x = np.arange(ratios.size, dtype=float)
            slope, intercept = np.polyfit(x, ratios, 1)
            resid = ratios - (slope * x + intercept)
            s2 = (resid**2).sum() / (ratios.size - 2)
            return abs(slope) / math.sqrt(s2 / ((x - x.mean()) ** 2).sum())

        def rms(ratios):
            return math.sqrt(np.mean((ratios - 0.5) ** 2))

        n_windows = 60
        ctrl = make_ctrl()
        baseline_trend, baseline_rms = [], []
        for seed in range(100):
            stream = acquire_bits(
                DeviceState(), P_QUIET, CFG, 500 * n_windows, streams(1000 + seed)
            )
            ratios = stream.to_array().reshape(n_windows, 500).mean(axis=1)
            baseline_trend.append(trend(ratios))
            baseline_rms.append(rms(ratios))
        threshold = np.quantile(baseline_trend, 0.99)
        seed = 11
        _, controlled, _ = run_closed_loop(
            DeviceState(), P_DRIFT, CFG, ctrl, n_windows, streams(seed)
        )
        open_stream = acquire_bits(
            DeviceState(), P_DRIFT, CFG, 500 * n_windows, streams(seed)
        )
        open_ratios = open_stream.to_array().reshape(n_windows, 500).mean(axis=1)
        assert trend(controlled) <= threshold
        assert rms(open_ratios) > np.quantile(baseline_rms, 0.99)  # drift alone strays

    def test_rejects_zero_windows(self):
        with pytest.raises(ValueError):
            run_closed_loop(DeviceState(), P_QUIET, CFG, make_ctrl(), 0, streams(0))


@pytest.mark.parametrize("gain", [math.inf, math.nan])
def test_non_finite_gain_rejected(gain):
    with pytest.raises(ValueError, match="gain must be nonnegative and finite"):
        make_ctrl(gain=gain)
