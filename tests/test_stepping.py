"""The sweep latch and the array kernel against references.

sweep_branches draws every step in bulk and decides branches from
switching thresholds; the oracles step the same model one DeviceState
and one scalar uniform at a time, so at one repeat (oracles.sweep_current,
sweep_branches' one group with each point's branch voltage) every
voltage, time, branch and grid switch current must agree bit for bit.
The drift, and a switch current on the drift-shifted peak or valley,
agree within the drift scan's bound.
sweep_branches runs many repeats of one ramp in lockstep, and must equal
chained oracle sweeps and chained one-repeat calls the same way: the group
walks its drift in one scan, the calls one sweep at a time.  A sweep and a
pulse train of the same steps walk the drift exactly alike (device._drawn).
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (
    DRIFT_TOL,
    drift_close,
    switch_probability,
    switching_hazard,
    sweep_current,
    sweep_current_oracle,
)
import rtdrng.device as device
from rtdrng.device import (
    Branch,
    DeviceParams,
    DeviceState,
    _branch_voltage_unchecked,
    streams,
    sweep_branches,
)
from rtdrng.pulses import PulseConfig, acquire_bits

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
    assert state.branch is ref_state.branch
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
    rng, ref_rng = streams(31), streams(31)
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
    got = sweep_current(params, 0.0, TOP, 300, 1.0, streams(4))
    currents, voltages, switch = sweep_current_oracle(
        params, 0.0, TOP, 300, 1.0, streams(4)
    )
    assert np.array_equal(got.voltages, voltages) and got.switch_current == switch


def test_sweep_rejects_nonpositive_dwell():
    with pytest.raises(ValueError, match="dt must be positive"):
        sweep_current(DeviceParams(), 0.0, 1.0, 10, 0.0, streams(0))


# one ramp per lockstep case, with the branch the state starts on; a start
# inside the window makes every later sweep start on the branch the one
# before it ended on, and a start on the peak or the valley does so only
# while the drift entering the sweep keeps it inside
RAMPS = {
    "forward": (0.0, TOP, Branch.L),
    "reverse": (TOP, 0.0, Branch.L),
    "inside-up": (1.0, 1.7, Branch.L),
    "inside-down": (1.0, 0.2, Branch.H),
    "from-peak": (1.55, 0.4, Branch.L),
    "from-valley": (0.4, 1.55, Branch.H),
}
DRIFTS = {
    "sigma0": DeviceParams(drift_sigma=0.0),
    "sigma0.03": DeviceParams(drift_sigma=0.03),
    "sigma0.3": DeviceParams(drift_sigma=0.3, drift_tau=0.5),
}
STEPS, REPEATS = 60, 8


def _lockstep(monkeypatch, params, start, stop, dt, rng, state):
    """(voltages, switch current) of each of REPEATS lockstep sweeps, in groups of 3."""
    monkeypatch.setattr(device, "_CHUNK_PULSES", 3 * STEPS + 7)
    currents, groups = sweep_branches(params, start, stop, STEPS, dt, REPEATS, rng, state)
    high_v = _branch_voltage_unchecked(params, Branch.H, currents)
    low_v = _branch_voltage_unchecked(params, Branch.L, currents)
    sweeps = []
    for group, (high, switches) in enumerate(groups):
        assert len(switches) == (3 if group < 2 else 2)
        sweeps += [(np.where(row, high_v, low_v), s) for row, s in zip(high, switches)]
    assert len(sweeps) == REPEATS
    return currents, sweeps


@pytest.mark.parametrize("dt", [1.0, 0.01])
@pytest.mark.parametrize("params", DRIFTS.values(), ids=DRIFTS.keys())
@pytest.mark.parametrize("ramp", RAMPS.values(), ids=RAMPS.keys())
def test_lockstep_matches_chained_oracle(monkeypatch, ramp, params, dt):
    start, stop, branch = ramp
    state, ref_state = DeviceState(branch=branch), DeviceState(branch=branch)
    rng, ref_rng = streams(12), streams(12)
    currents, sweeps = _lockstep(monkeypatch, params, start, stop, dt, rng, state)
    for voltages, switch in sweeps:
        _, ref_voltages, ref_switch = sweep_current_oracle(
            params, start, stop, STEPS, dt, ref_rng, state=ref_state
        )
        assert np.array_equal(voltages, ref_voltages)
        _assert_same_switch(switch, ref_switch, currents)
    _assert_same_state(state, ref_state, params.drift_sigma)


@pytest.mark.parametrize("dt", [1.0, 0.01])
@pytest.mark.parametrize("params", DRIFTS.values(), ids=DRIFTS.keys())
@pytest.mark.parametrize("ramp", RAMPS.values(), ids=RAMPS.keys())
def test_lockstep_equals_chained_sweeps(monkeypatch, ramp, params, dt):
    start, stop, branch = ramp
    state, ref_state = DeviceState(branch=branch), DeviceState(branch=branch)
    rng, ref_rng = streams(13), streams(13)
    currents, sweeps = _lockstep(monkeypatch, params, start, stop, dt, rng, state)
    for voltages, switch in sweeps:
        ref = sweep_current(params, start, stop, STEPS, dt, ref_rng, state=ref_state)
        assert np.array_equal(voltages, ref.voltages)
        _assert_same_switch(switch, ref.switch_current, currents)
    _assert_same_state(state, ref_state, params.drift_sigma)
    # both runs leave the streams at the same place
    assert rng.switch.random() == ref_rng.switch.random()
    assert rng.drift.standard_normal() == ref_rng.drift.standard_normal()


def test_sweep_walks_the_drift_like_acquisition():
    # 40 sweeps of 300 steps and 12,000 pulses, each one chunk of 1 ms steps
    params = DeviceParams(drift_sigma=0.03)
    cfg = PulseConfig(width=0.5, duty_cycle=0.5)
    rng, ref_rng = streams(21), streams(21)
    state, ref_state = DeviceState(drift=0.01), DeviceState(drift=0.01)
    _, groups = sweep_branches(params, 0.0, TOP, 300, 1.0, 40, rng, state)
    assert sum(len(switches) for _, switches in groups) == 40
    acquire_bits(ref_state, params, cfg, 12_000, ref_rng)
    assert state.drift == ref_state.drift
    assert rng.switch.random() == ref_rng.switch.random()
    assert rng.drift.standard_normal() == ref_rng.drift.standard_normal()


def test_lockstep_checks_arguments_before_drawing():
    rng = streams(0)
    with pytest.raises(ValueError, match="repeats"):
        sweep_branches(DeviceParams(), 0.0, 1.0, 10, 1.0, 0, rng)
    with pytest.raises(ValueError, match="finite"):
        sweep_branches(DeviceParams(), 0.0, math.nan, 10, 1.0, 5, rng)
    assert rng.switch.random() == streams(0).switch.random()


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
    assert scalar(ends).tolist() == switch_probability(params, ends, drift, dt).tolist() == [0, 1]
    inside = np.concatenate(([peak], np.linspace(valley, peak, 401)[1:-1]))
    array = switch_probability(params, inside, drift, dt)
    np.testing.assert_array_max_ulp(array, scalar(inside), maxulp=4)
