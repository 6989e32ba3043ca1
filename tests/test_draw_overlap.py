"""Acquisition with a helper thread drawing ahead, against the serial chunk loop.

A helper thread draws chunk k + 1's switch uniforms and drift normals while
chunk k is scanned and read, so the bits, the final device state and the
streams' positions must equal those of the loop that draws every chunk in
line (oracles.serial_threshold_chunks), and no thread may outlive a call,
whether it returns or raises.
"""

import sys
import threading

import numpy as np
import pytest

import rtdrng.control as control
import rtdrng.pulses as pulses
from oracles import serial_acquire, serial_closed_loop
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import DeviceParams, DeviceState, ModelRangeError, Streams, streams
from rtdrng.pulses import PulseConfig, acquire_bits

CHUNK = 257
CFG = PulseConfig(amplitude=1.515, width=1.0)
COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


def _assert_same_next_draws(rng, ref):
    # nothing drawn past the last chunk: both streams sit where the reference's do
    assert rng.switch.random() == ref.switch.random()
    assert rng.drift.standard_normal() == ref.drift.standard_normal()


@pytest.mark.parametrize("sigma", [0.0, 0.008, 0.03])
@pytest.mark.parametrize("count", COUNTS)
def test_open_loop_matches_serial_chunks(monkeypatch, count, sigma):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
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
    # one-pulse windows, so that any count is a whole number of windows
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=sigma)
    ctrl = default_controller(params, 1.515, window=1)
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
    count = 3 * pulses._CHUNK_PULSES + 5
    params = DeviceParams()
    state, ref_state = DeviceState(), DeviceState()
    rng, ref = streams(7), streams(7)
    stream = acquire_bits(state, params, CFG, count, rng)
    assert np.array_equal(stream.to_array(), serial_acquire(ref_state, params, CFG, count, ref))
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


def test_no_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    before = threading.active_count()
    acquire_bits(DeviceState(), DeviceParams(), CFG, 3 * CHUNK + 5, streams(1))
    assert threading.active_count() == before
    ctrl = default_controller(DeviceParams(), 1.515, window=100)
    run_closed_loop(DeviceState(), DeviceParams(), CFG, ctrl, 20, streams(2))
    assert threading.active_count() == before


def test_no_thread_outlives_a_reset_failure(monkeypatch):
    # a fast, wide drift whose valley reaches 0 mA a few thousand pulses in
    # at seed 70: the first chunk runs clean and a later one fails
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=0.25, drift_tau=1.0)
    acquire_bits(DeviceState(), params, CFG, CHUNK, streams(70))
    before = threading.active_count()
    with pytest.raises(ModelRangeError):
        acquire_bits(DeviceState(), params, CFG, 20_000, streams(70))
    assert threading.active_count() == before
    ctrl = default_controller(params, 1.515, window=100)
    with pytest.raises(ModelRangeError):
        run_closed_loop(DeviceState(), params, CFG, ctrl, 200, streams(70))
    assert threading.active_count() == before


def test_no_thread_outlives_an_abandoned_loop(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    calls = []

    def refuse_late(ctrl, amplitude, ratio):
        calls.append(ratio)
        if len(calls) == 5:
            raise ValueError("refused")
        return amplitude

    # the fifth window ends in the third chunk
    monkeypatch.setattr(control, "next_amplitude", refuse_late)
    ctrl = default_controller(DeviceParams(), 1.515, window=120)
    before = threading.active_count()
    with pytest.raises(ValueError, match="refused"):
        run_closed_loop(DeviceState(), DeviceParams(), CFG, ctrl, 20, streams(3))
    assert len(calls) == 5
    assert threading.active_count() == before


def test_helper_failure_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    broken = Streams(switch=object(), drift=np.random.default_rng(4))
    before = threading.active_count()
    with pytest.raises(AttributeError):
        acquire_bits(DeviceState(), DeviceParams(), CFG, 3 * CHUNK, broken)
    assert threading.active_count() == before


def test_concurrent_calls_under_fast_switching(monkeypatch):
    # more calls than cores, each with its own helper, with the interpreter
    # switching threads every microsecond: a lost handoff between a helper
    # and its caller would mix chunks and change the bits
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", 64)
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
