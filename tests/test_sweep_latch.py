"""The sweep latch run in sub-groups of a drift chunk, against the whole chunk at once.

sweep_branches takes its thresholds from device._drawn, whose docstring
gives the draw contract, in chunks of at most _CHUNK_PULSES points and
latch groups of at most _BLOCK_PULSES points, each whole sweeps (one sweep
at least), and runs the latch a group at a time.  _BLOCK_PULSES is also
acquisition's block, so one setting sizes both.  Latching a whole chunk at
once is the reference.  At groups of one
sweep, seven sweeps and more than a chunk, every sweep's branch rows and
switch current, the state at each chunk's end and at the end (branch and
drift) and both streams' next draws must be exactly the
reference's, and the state at a chunk's end must be that of a run of
only the sweeps so far, read to its end.  sweep_current reads only the
first group, so it must leave the state where a one-sweep run read to its
end does.
"""

import numpy as np
import pytest

import rtdrng.device as device
from rtdrng.device import Branch, DeviceParams, DeviceState, streams, sweep_branches, sweep_current
from rtdrng.pulses import PulseConfig, acquire_bits

STEPS, CHUNK_SWEEPS, REPEATS = 60, 23, 50
TOP = 1.2 * 1.55
# start, stop and the branch the state starts on
RAMPS = {
    "forward": (0.0, TOP, Branch.L),
    "reverse": (TOP, 0.0, Branch.L),
    "inside-up": (1.0, 1.7, Branch.L),
    "inside-down": (1.0, 0.2, Branch.H),
}
DRIFTS = {
    "sigma0": DeviceParams(drift_sigma=0.0),
    "sigma0.03": DeviceParams(drift_sigma=0.03),
    "sigma0.3": DeviceParams(drift_sigma=0.3, drift_tau=0.5),
}
# sweeps per latch group; more than a chunk latches each chunk whole
GROUPS = [1, 7, CHUNK_SWEEPS, 3 * CHUNK_SWEEPS]


def _start_state(branch):
    return DeviceState(branch=branch, drift=0.004)


def _snapshot(state):
    return (state.branch, state.drift)


def _run(monkeypatch, group, params, start, stop, branch, seed):
    """Rows, switches, group sizes, state at each yield, end state and rng of one run."""
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK_SWEEPS * STEPS)
    monkeypatch.setattr(device, "_BLOCK_PULSES", group * STEPS)
    state, rng = _start_state(branch), streams(seed)
    _, groups = sweep_branches(params, start, stop, STEPS, 1.0, REPEATS, rng, state)
    rows, switches, sizes, states = [], [], [], {}
    for high, group_switches in groups:
        assert high.shape == (len(group_switches), STEPS)
        rows.append(high.copy())
        switches += group_switches
        sizes.append(len(group_switches))
        states[len(switches)] = _snapshot(state)
    return np.concatenate(rows), switches, sizes, states, state, rng


def _exhausted(params, start, stop, branch, seed, repeats):
    """The state after a run of `repeats` sweeps, read to its end."""
    state = _start_state(branch)
    _, groups = sweep_branches(params, start, stop, STEPS, 1.0, repeats, streams(seed), state)
    for _ in groups:
        pass
    return state


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("params", DRIFTS.values(), ids=DRIFTS.keys())
@pytest.mark.parametrize("ramp", RAMPS.values(), ids=RAMPS.keys())
def test_latch_groups_match_whole_chunks(monkeypatch, ramp, params, group):
    ref = _run(monkeypatch, CHUNK_SWEEPS, params, *ramp, 21)
    rows, switches, sizes, states, state, rng = _run(monkeypatch, group, params, *ramp, 21)
    ref_rows, ref_switches, ref_sizes, ref_states, ref_state, ref_rng = ref
    assert ref_sizes == [CHUNK_SWEEPS, CHUNK_SWEEPS, REPEATS - 2 * CHUNK_SWEEPS]
    # groups never straddle a chunk
    per_group = min(group, CHUNK_SWEEPS)
    assert sizes == [
        min(per_group, n - lo) for n in ref_sizes for lo in range(0, n, per_group)
    ]
    assert np.array_equal(rows, ref_rows)
    assert switches == ref_switches
    # each chunk ends on the same branch and drift, and so does the run
    assert {n: states[n] for n in ref_states} == ref_states
    assert state == ref_state
    for n, snapshot in ref_states.items():
        assert _snapshot(_exhausted(params, *ramp, 21, n)) == snapshot, n
    assert rng.switch.random() == ref_rng.switch.random()
    assert rng.drift.standard_normal() == ref_rng.drift.standard_normal()


def test_state_after_each_group_is_where_its_last_sweep_ends(monkeypatch):
    # the drift after a group's last point is the drift entering the next
    # group's first point, so a group's state seeds the next one's latch
    params = DRIFTS["sigma0.03"]
    _, _, _, states, _, _ = _run(monkeypatch, 7, params, *RAMPS["inside-up"], 22)
    _, _, _, one_by_one, _, _ = _run(monkeypatch, 1, params, *RAMPS["inside-up"], 22)
    assert {n: one_by_one[n] for n in states} == states
    assert len(one_by_one) == REPEATS


@pytest.mark.parametrize("points", [1, STEPS, 7 * STEPS, 10**9])
@pytest.mark.parametrize("params", DRIFTS.values(), ids=DRIFTS.keys())
@pytest.mark.parametrize("ramp", RAMPS.values(), ids=RAMPS.keys())
def test_sweep_current_reads_its_one_group(monkeypatch, ramp, params, points):
    # three chained sweeps on one state; each reads only the first yield
    start, stop, branch = ramp

    def chained(latch_points):
        monkeypatch.setattr(device, "_BLOCK_PULSES", latch_points)
        state, rng = _start_state(branch), streams(23)
        traces = [sweep_current(params, start, stop, STEPS, 1.0, rng, state) for _ in range(3)]
        return traces, state, rng

    traces, state, rng = chained(points)
    ref_traces, ref_state, ref_rng = chained(device._CHUNK_PULSES)
    # one call leaves the state where a one-sweep run read to its end does
    one = _start_state(branch)
    sweep_current(params, start, stop, STEPS, 1.0, streams(23), one)
    assert one == _exhausted(params, start, stop, branch, 23, 1)
    for trace, ref in zip(traces, ref_traces):
        assert np.array_equal(trace.voltages, ref.voltages)
        assert trace.switch_current == ref.switch_current
    assert state == ref_state
    assert rng.switch.random() == ref_rng.switch.random()
    assert rng.drift.standard_normal() == ref_rng.drift.standard_normal()


@pytest.mark.parametrize("block", [1, STEPS - 1, STEPS, 7 * STEPS + 5])
def test_one_block_size_for_pulses_and_sweeps(monkeypatch, block):
    # one setting sizes acquisition's blocks and a sweep's latch groups,
    # which it rounds down to whole sweeps, one sweep at least
    monkeypatch.setattr(device, "_BLOCK_PULSES", block)
    params = DRIFTS["sigma0.03"]
    seen = []

    def read(thresholds, bits):
        seen.append(thresholds.size)
        bits[:] = False

    acquire_bits(DeviceState(), params, PulseConfig(), 3 * block + 1, streams(24), read)
    assert seen == [block, block, block, 1]
    _, groups = sweep_branches(params, 0.0, TOP, STEPS, 1.0, REPEATS, streams(24))
    per_group = max(1, block // STEPS)
    assert [len(switches) for _, switches in groups] == [
        min(per_group, REPEATS - lo) for lo in range(0, REPEATS, per_group)
    ]
