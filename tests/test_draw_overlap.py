"""Acquisition and sweeps with a thread drawing ahead, against drawing in line.

While chunk k is scanned and read, its switch uniforms drawn a block at a
time (or chunk k of lockstep sweeps is latched), a short-lived thread draws
chunk k + 1's drift normals, so the bits, the final device state and the
streams' positions must equal those of the loop that draws every chunk in
line (oracles.serial_threshold_chunks; test_stepping checks lockstep
sweeps against chained one-repeat calls, oracles.sweep_current), a
one-chunk call must start no thread, and no thread may outlive a call,
whether it returns, raises or is abandoned.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import rtdrng.control as control
import rtdrng.device as device
from oracles import serial_acquire, serial_closed_loop, sweep_current
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import (
    DeviceParams,
    DeviceState,
    ModelRangeError,
    Streams,
    streams,
    sweep_branches,
)
from rtdrng.pulses import PulseConfig, acquire_bits

CHUNK = 257
CFG = PulseConfig(amplitude=1.515, width=1.0)
COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
# lockstep sweeps of STEPS points, GROUP to a group, over four groups
STEPS, GROUP, REPEATS = 60, 3, 11
RAMP = (DeviceParams(drift_sigma=0.03), 0.0, 1.2 * 1.55, STEPS, 1.0)


def _assert_same_next_draws(rng, ref):
    # nothing drawn past the last chunk: both streams sit where the reference's do
    assert rng.switch.random() == ref.switch.random()
    assert rng.drift.standard_normal() == ref.drift.standard_normal()


def _no_helper_alive():
    return not any(thread.name == "rtdrng-draws" for thread in threading.enumerate())


@pytest.fixture
def starts(monkeypatch):
    """The names of the threads started through device.threading.Thread."""
    names = []

    class Thread(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(device, "threading", SimpleNamespace(Thread=Thread))
    return names


class _FailingDrift:
    """A drift stream whose second fill raises, on whichever thread makes it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.fills = []

    def standard_normal(self, out):
        self.fills.append(threading.current_thread().name)
        if len(self.fills) == 2:
            raise RuntimeError("second fill failed")
        return self._rng.standard_normal(out=out)


@pytest.mark.parametrize("sigma", [0.0, 0.008, 0.03])
@pytest.mark.parametrize("count", COUNTS)
def test_open_loop_matches_serial_chunks(monkeypatch, count, sigma):
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=sigma)
    state, ref_state = DeviceState(drift=0.01), DeviceState(drift=0.01)
    rng, ref = streams(80 + count), streams(80 + count)
    stream = acquire_bits(state, params, CFG, count, rng)
    assert np.array_equal(stream.to_array(), serial_acquire(ref_state, params, CFG, count, ref))
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


@pytest.mark.parametrize("sigma", [0.0, 0.008, 0.03])
@pytest.mark.parametrize("count", COUNTS)
def test_closed_loop_matches_serial_chunks(monkeypatch, count, sigma):
    # one-pulse windows: the command moves after every pulse
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=sigma)
    ctrl = default_controller(params, window=1)
    state, ref_state = DeviceState(drift=0.01), DeviceState(drift=0.01)
    rng, ref = streams(90 + count), streams(90 + count)
    stream, ratios, amplitudes = run_closed_loop(state, params, CFG, ctrl, count, rng)
    ref_bits, ref_ratios, ref_amplitudes = serial_closed_loop(
        ref_state, params, CFG, ctrl, count, ref
    )
    assert np.array_equal(stream.to_array(), ref_bits)
    assert ratios.tolist() == ref_ratios.tolist()
    assert amplitudes.tolist() == ref_amplitudes.tolist()
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


def test_whole_chunks_match_serial_chunks():
    # the chunk size acquisition runs at, over three and a bit chunks
    count = 3 * device._CHUNK_PULSES + 5
    params = DeviceParams()
    state, ref_state = DeviceState(), DeviceState()
    rng, ref = streams(7), streams(7)
    stream = acquire_bits(state, params, CFG, count, rng)
    assert np.array_equal(stream.to_array(), serial_acquire(ref_state, params, CFG, count, ref))
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


def test_no_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    before = threading.active_count()
    acquire_bits(DeviceState(), DeviceParams(), CFG, 3 * CHUNK + 5, streams(1))
    assert threading.active_count() == before
    ctrl = default_controller(DeviceParams(), window=100)
    run_closed_loop(DeviceState(), DeviceParams(), CFG, ctrl, 20 * 100, streams(2))
    assert threading.active_count() == before


def test_no_thread_outlives_a_reset_failure(monkeypatch):
    # a fast, wide drift whose valley reaches 0 mA a few thousand pulses in
    # at seed 70: the first chunk runs clean and a later one fails
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=0.25, drift_tau=1.0)
    acquire_bits(DeviceState(), params, CFG, CHUNK, streams(70))
    before = threading.active_count()
    with pytest.raises(ModelRangeError):
        acquire_bits(DeviceState(), params, CFG, 20_000, streams(70))
    assert threading.active_count() == before
    ctrl = default_controller(params, window=100)
    with pytest.raises(ModelRangeError):
        run_closed_loop(DeviceState(), params, CFG, ctrl, 200 * 100, streams(70))
    assert threading.active_count() == before


def test_no_thread_outlives_an_abandoned_loop(monkeypatch):
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    calls = []

    def refuse_late(ctrl, amplitude, ratio):
        calls.append(ratio)
        if len(calls) == 5:
            raise ValueError("refused")
        return amplitude

    # the fifth window ends in the third chunk
    monkeypatch.setattr(control, "next_amplitude", refuse_late)
    ctrl = default_controller(DeviceParams(), window=120)
    before = threading.active_count()
    with pytest.raises(ValueError, match="refused"):
        run_closed_loop(DeviceState(), DeviceParams(), CFG, ctrl, 20 * 120, streams(3))
    assert len(calls) == 5
    assert threading.active_count() == before


def test_helper_failure_reaches_the_caller(monkeypatch):
    # chunk 0's drift normals are drawn in line and chunk 1's on the helper,
    # which fails; one chunk of GROUP sweeps is as many pulses
    monkeypatch.setattr(device, "_CHUNK_PULSES", GROUP * STEPS)
    before = threading.active_count()
    drift = _FailingDrift(4)
    broken = Streams(switch=np.random.default_rng(4), drift=drift)
    with pytest.raises(RuntimeError, match="second fill failed"):
        acquire_bits(DeviceState(), DeviceParams(), CFG, 3 * GROUP * STEPS, broken)
    assert drift.fills == [threading.current_thread().name, "rtdrng-draws"]
    drift = _FailingDrift(4)
    broken = Streams(switch=np.random.default_rng(4), drift=drift)
    _, groups = sweep_branches(*RAMP, REPEATS, broken)
    with pytest.raises(RuntimeError, match="second fill failed"):
        list(groups)
    assert drift.fills == [threading.current_thread().name, "rtdrng-draws"]
    assert threading.active_count() == before
    assert _no_helper_alive()


@pytest.mark.parametrize("count", COUNTS)
def test_one_thread_start_per_chunk_after_the_first(monkeypatch, starts, count):
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    acquire_bits(DeviceState(), DeviceParams(), CFG, count, streams(5))
    assert starts == ["rtdrng-draws"] * (-(-count // CHUNK) - 1)


def test_sweep_starts_one_thread_per_group_after_the_first(monkeypatch, starts):
    monkeypatch.setattr(device, "_CHUNK_PULSES", GROUP * STEPS)
    sweep_current(*RAMP, streams(6))
    _, groups = sweep_branches(*RAMP, GROUP, streams(6))
    assert len(list(groups)) == 1
    assert starts == []
    _, groups = sweep_branches(*RAMP, REPEATS, streams(6))
    assert len(list(groups)) == 4
    assert starts == ["rtdrng-draws"] * 3


def test_closed_sweep_leaves_no_helper(monkeypatch):
    monkeypatch.setattr(device, "_CHUNK_PULSES", GROUP * STEPS)
    before = threading.active_count()
    _, groups = sweep_branches(*RAMP, REPEATS, streams(7))
    assert len(next(groups)[1]) == GROUP
    groups.close()
    assert threading.active_count() == before
    assert _no_helper_alive()



def test_concurrent_calls_under_fast_switching(monkeypatch):
    # more calls than cores, each with its own draw threads, with the
    # interpreter switching threads every microsecond: a fill that overlapped
    # its caller's use of the same buffers would change the bits
    monkeypatch.setattr(device, "_CHUNK_PULSES", 64)
    count = 64 * 40 + 3
    expected = {
        seed: serial_acquire(DeviceState(), DeviceParams(), CFG, count, streams(seed))
        for seed in range(4)
    }
    got = {}

    def run(seed):
        got[seed] = acquire_bits(DeviceState(), DeviceParams(), CFG, count, streams(seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed, bits in expected.items():
        assert np.array_equal(got[seed].to_array(), bits), seed
