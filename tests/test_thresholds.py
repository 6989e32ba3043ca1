"""Per-pulse switching thresholds and the bulk closed loop against references.

A pulse reads H exactly when its amplitude exceeds its switching threshold,
which depends on the switch uniform and the drift only.  The threshold
kernel must decide every pulse as u < p does, and run_closed_loop, which
draws all thresholds in bulk, must equal the per-window acquire_bits loop.
"""

import numpy as np
import pytest

import rtdrng.device as device
from oracles import closed_loop_oracle, drift_close, drift_step, switch_probability
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import (
    DeviceParams,
    DeviceState,
    ModelRangeError,
    _switch_thresholds,
    streams,
)
from rtdrng.pulses import PulseConfig

CFG = PulseConfig(amplitude=1.515, width=1.0)


def _bits_both_ways(params, amplitude, drift, u, exposure):
    by_threshold = amplitude > _switch_thresholds(params, drift, u, exposure)
    by_probability = u < switch_probability(params, amplitude, drift, exposure)
    return by_threshold, by_probability


@pytest.mark.parametrize("exposure", [1.0, 0.5, 3.0])
def test_threshold_decides_like_probability(exposure):
    params = DeviceParams()
    rng = np.random.default_rng(50)
    n = 1 << 20
    u = rng.random(n)
    drift = rng.normal(0.0, 0.03, n)
    # half over the whole window and past it, half near the 50/50 point
    amplitude = np.concatenate(
        (rng.uniform(0.3, 1.7, n // 2), rng.uniform(1.4, 1.6, n - n // 2))
    )
    by_threshold, by_probability = _bits_both_ways(params, amplitude, drift, u, exposure)
    assert 0.2 < by_threshold.mean() < 0.8
    assert np.array_equal(by_threshold, by_probability)


def test_threshold_exact_at_window_edges_and_zero_uniform():
    params = DeviceParams()
    rng = np.random.default_rng(51)
    drift = np.concatenate(([0.0, -0.3, 0.2], rng.normal(0.0, 0.03, 997)))
    for edge in (params.i_valley + drift, params.i_peak + drift):
        for amplitude in (edge, np.nextafter(edge, np.inf)):
            for u in (np.zeros(drift.size), rng.random(drift.size)):
                by_threshold, by_probability = _bits_both_ways(
                    params, amplitude, drift, u, 1.0
                )
                assert np.array_equal(by_threshold, by_probability)
    above_valley = np.nextafter(params.i_valley + drift, np.inf)
    assert np.all(above_valley > _switch_thresholds(params, drift, np.zeros(drift.size), 1.0))


def test_threshold_leaves_uniforms_untouched():
    u = np.random.default_rng(52).random(100)
    before = u.copy()
    _switch_thresholds(DeviceParams(), np.zeros(100), u, 1.0)
    assert np.array_equal(u, before)


@pytest.mark.parametrize("chunk", [None, 257])
@pytest.mark.parametrize("sigma", [0.0, 0.008, 0.03])
@pytest.mark.parametrize("window", [1, 100, 500, 777])
def test_closed_loop_matches_per_window_oracle(monkeypatch, window, sigma, chunk):
    if chunk is not None:
        monkeypatch.setattr(device, "_CHUNK_PULSES", chunk)
    params = DeviceParams(drift_sigma=sigma)
    ctrl = default_controller(params, window=window)
    n_windows = max(3, 4000 // window)
    state, ref_state = DeviceState(drift=0.01), DeviceState(drift=0.01)
    stream, ratios, amplitudes = run_closed_loop(
        state, params, CFG, ctrl, n_windows * window, streams(60 + window)
    )
    ref_bits, ref_ratios, ref_amplitudes = closed_loop_oracle(
        ref_state, params, CFG, ctrl, n_windows * window, streams(60 + window)
    )
    assert np.array_equal(stream.to_array(), ref_bits)
    assert ratios.tolist() == ref_ratios.tolist()
    assert amplitudes.tolist() == ref_amplitudes.tolist()
    assert len(set(amplitudes.tolist())) > 1  # the controller acted
    assert state.branch is ref_state.branch
    assert drift_close(state.drift, ref_state.drift, sigma)


def _first_reset_failure(params, seed, limit):
    """Index of the first pulse entering at a drift that puts the valley at or below 0 mA.

    The drift is stepped one pulse period at a time by the scalar reference on
    the seed's drift stream; the amplitude never moves it.
    """
    rng, state = streams(seed), DeviceState()
    for k in range(limit):
        if params.i_valley + state.drift <= 0.0:
            return k
        state = drift_step(state, params, CFG.period, rng)
    raise AssertionError(f"no crossing within {limit} pulses")


def test_closed_loop_rejects_drift_crossing_below_zero_valley(monkeypatch):
    # a fast, wide drift reaches -i_valley within a few thousand pulses; every
    # window before the crossing runs clean, and the window holding it fails
    # in a chunk past the first
    params = DeviceParams(drift_sigma=0.25, drift_tau=1.0)
    crossing = _first_reset_failure(params, 70, 20_000)
    monkeypatch.setattr(device, "_CHUNK_PULSES", min(257, crossing))
    window = min(100, crossing)
    ctrl = default_controller(params, window=window)
    clean = crossing // window
    run_closed_loop(DeviceState(), params, CFG, ctrl, clean * window, streams(70))
    for loop in (run_closed_loop, closed_loop_oracle):
        with pytest.raises(ModelRangeError):
            loop(DeviceState(), params, CFG, ctrl, (clean + 1) * window, streams(70))


def test_closed_loop_rejects_nonpositive_command():
    # an amp_min at or below zero would let the command reach a pulse
    # amplitude of zero mid-run, so the controller is refused when built
    params = DeviceParams(drift_sigma=0.0)
    for amp_min in (-1.0, 0.0):
        with pytest.raises(ValueError, match="0 < amp_min"):
            default_controller(params, window=50, amp_min=amp_min, setpoint=0.01, gain=3.0)
