"""The sweep latch, the closed-form trace and the array kernel against references.

sweep_current and trace_pulses draw every step in bulk and decide branches
from switching thresholds; the oracles step the same model one DeviceState
and one scalar uniform at a time, so every voltage, time, branch and grid
switch current must agree bit for bit.  The drift, and a switch current on
the drift-shifted peak or valley, agree within the drift scan's bound.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (
    DRIFT_TOL,
    drift_close,
    switching_hazard,
    sweep_current_oracle,
    trace_pulses_oracle,
)
from rtdrng.device import DeviceParams, DeviceState, _switch_probability, sweep_current
from rtdrng.pulses import PulseConfig, acquire_bits, trace_pulses

SIGMAS = (0.0, 0.03)
TOP = 1.2 * 1.55

# each case cycles through its legs, one sweep per leg, threading one state
LEGS = {
    "forward": [(0.0, TOP)],
    "reverse": [(TOP, 0.0)],
    "mid-window": [(1.0, 1.7), (1.2, 0.2), (0.8, 1.45)],
    # at sigma 0 the drift stays 0, so the legs start and end on the peak and
    # the valley exactly, where neither pre-positioning nor reset may fire
    "window-edges": [(1.55, 0.4), (0.4, 1.55)],
}


def _assert_same_state(state, ref_state, sigma):
    assert (state.branch, state.clock) == (ref_state.branch, ref_state.clock)
    assert drift_close(state.drift, ref_state.drift, sigma)


def _assert_same_switch(got, ref, currents):
    # a stochastic jump reads a grid current; a deterministic one the
    # drift-shifted peak or valley, whose drift is within the scan's bound
    if ref is None or ref in currents.tolist():
        assert got == ref
    else:
        assert got is not None and abs(got - ref) <= DRIFT_TOL * abs(ref)


# a 0.01 ms dwell rarely switches stochastically, so the L->H jump lands on
# the drift-shifted peak itself
@pytest.mark.parametrize("dt", [1.0, 0.01])
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("legs", LEGS.values(), ids=LEGS.keys())
def test_sweep_matches_step_device_oracle(sigma, legs, dt):
    params = DeviceParams(drift_sigma=sigma)
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    state, ref_state = DeviceState(), DeviceState()
    switches = 0
    for start, stop in itertools.islice(itertools.cycle(legs), 24):
        got = sweep_current(params, start, stop, 150, dt, rng, state=state)
        currents, voltages, switch = sweep_current_oracle(
            params, start, stop, 150, dt, ref_rng, state=ref_state
        )
        assert np.array_equal(got.currents, currents)
        assert np.array_equal(got.voltages, voltages)
        _assert_same_switch(got.switch_current, switch, currents)
        _assert_same_state(state, ref_state, sigma)
        switches += switch is not None
    assert switches > 0


def test_sweep_without_state_matches_oracle():
    params = DeviceParams(drift_sigma=0.03)
    got = sweep_current(params, 0.0, TOP, 300, 1.0, np.random.default_rng(4))
    currents, voltages, switch = sweep_current_oracle(
        params, 0.0, TOP, 300, 1.0, np.random.default_rng(4)
    )
    assert np.array_equal(got.voltages, voltages) and got.switch_current == switch


def test_sweep_rejects_nonpositive_dwell():
    with pytest.raises(ValueError, match="dt must be positive"):
        sweep_current(DeviceParams(), 0.0, 1.0, 10, 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_trace_matches_step_device_oracle(sigma):
    params = DeviceParams(drift_sigma=sigma)
    cfg = PulseConfig(amplitude=1.515, width=1.0, substep=0.05)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    state, ref_state = DeviceState(), DeviceState()
    for _ in range(5):
        got = trace_pulses(state, params, cfg, 20, rng)
        times, voltages = trace_pulses_oracle(ref_state, params, cfg, 20, ref_rng)
        assert np.array_equal(got.times, times)
        assert np.array_equal(got.voltages, voltages)
    _assert_same_state(state, ref_state, sigma)


def test_trace_last_on_sample_is_acquired_bit():
    params = DeviceParams(drift_sigma=0.03)
    cfg = PulseConfig(amplitude=1.515, width=1.0, substep=0.03)
    n_pulses = 400
    state, ref_state = DeviceState(drift=0.01), DeviceState(drift=0.01)
    trace = trace_pulses(state, params, cfg, n_pulses, np.random.default_rng(9))
    bits = acquire_bits(ref_state, params, cfg, n_pulses, np.random.default_rng(9)).to_array()
    high = params.v_valley + (cfg.amplitude - params.i_valley) / params.g_high
    last_on = trace.voltages.reshape(n_pulses, -1)[:, -1]
    assert np.array_equal(last_on == high, bits.astype(bool))
    assert 0.2 < bits.mean() < 0.8
    assert (state.branch, state.drift) == (ref_state.branch, ref_state.drift)


@pytest.mark.parametrize("drift", [0.0, 0.03, -0.05])
@pytest.mark.parametrize("dt", [0.1, 1.0])
def test_array_kernel_matches_scalar_hazard(drift, dt):
    params = DeviceParams()
    state = DeviceState(drift=drift)

    def scalar(points):
        return np.array([-math.expm1(-switching_hazard(params, state, i) * dt) for i in points])

    valley = params.i_valley + drift
    peak = params.i_peak + drift
    ends = np.array([valley, np.nextafter(peak, np.inf)])
    assert scalar(ends).tolist() == _switch_probability(params, ends, drift, dt).tolist() == [0, 1]
    inside = np.concatenate(([peak], np.linspace(valley, peak, 401)[1:-1]))
    array = _switch_probability(params, inside, drift, dt)
    np.testing.assert_array_max_ulp(array, scalar(inside), maxulp=4)
