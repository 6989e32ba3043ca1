"""Acquisition read in blocks inside each chunk, against whole chunks read in line.

acquire_bits makes and reads a chunk's thresholds _BLOCK_PULSES pulses at a
time.  At every block size, open and closed loop must equal the serial
chunk loop (oracles.serial_acquire, oracles.serial_closed_loop), which
reads each chunk whole: the bits, the closed loop's ratios and amplitudes
(its windows straddle blocks and chunks), the end state and both streams'
next draws.  A reset failure or a reader failure part-way into a chunk must
leave the state as it was and no draw thread alive.
"""

import threading

import numpy as np
import pytest

import rtdrng.pulses as pulses
from oracles import serial_acquire, serial_closed_loop
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import Branch, DeviceParams, DeviceState, ModelRangeError, streams
from rtdrng.pulses import PulseConfig, acquire_bits

CHUNK = 1000
BLOCKS = [1, 7, 257, 500]
CFG = PulseConfig(amplitude=1.515, width=1.0)
# two whole chunks and a short one; a 300-pulse window straddles both
COUNT = 2 * CHUNK + 537
PARAMS = DeviceParams(drift_sigma=0.03)


@pytest.fixture(params=BLOCKS)
def block(request, monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", CHUNK)
    monkeypatch.setattr(pulses, "_BLOCK_PULSES", request.param)
    return request.param


def _start_state():
    return DeviceState(branch=Branch.H, drift=0.01, clock=7.0)


def _assert_same_next_draws(rng, ref):
    assert rng.switch.random() == ref.switch.random()
    assert rng.drift.standard_normal() == ref.drift.standard_normal()


def _no_helper_alive():
    return not any(thread.name == "rtdrng-draws" for thread in threading.enumerate())


def test_open_loop_matches_whole_chunks(block):
    state, ref_state = _start_state(), _start_state()
    rng, ref = streams(31), streams(31)
    stream = acquire_bits(state, PARAMS, CFG, COUNT, rng)
    assert np.array_equal(stream.to_array(), serial_acquire(ref_state, PARAMS, CFG, COUNT, ref))
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


@pytest.mark.parametrize("window", [1, 300, 1000])
def test_closed_loop_matches_whole_chunks(block, window):
    ctrl = default_controller(PARAMS, window=window)
    state, ref_state = _start_state(), _start_state()
    rng, ref = streams(32), streams(32)
    stream, ratios, amplitudes = run_closed_loop(state, PARAMS, CFG, ctrl, COUNT, rng)
    ref_bits, ref_ratios, ref_amplitudes = serial_closed_loop(
        ref_state, PARAMS, CFG, ctrl, COUNT, ref
    )
    assert np.array_equal(stream.to_array(), ref_bits)
    assert ratios.tolist() == ref_ratios.tolist()
    assert amplitudes.tolist() == ref_amplitudes.tolist()
    assert state == ref_state
    _assert_same_next_draws(rng, ref)


def test_reader_sees_each_chunk_in_blocks(block):
    seen = []

    def read(thresholds, bits):
        seen.append(thresholds.size)
        np.greater(CFG.amplitude, thresholds, out=bits)

    acquire_bits(DeviceState(), PARAMS, CFG, COUNT, streams(33), read)
    want = []
    for size in (CHUNK, CHUNK, COUNT - 2 * CHUNK):
        want += [min(block, size - lo) for lo in range(0, size, block)]
    assert seen == want


def test_reset_failure_mid_run_leaves_state_and_no_thread(block):
    # a fast, wide drift whose valley reaches 0 mA a few thousand pulses in
    # at seed 70: whole chunks are read before the failing one
    params = DeviceParams(drift_sigma=0.25, drift_tau=1.0)
    seen = []

    def read(thresholds, bits):
        seen.append(thresholds.size)
        bits[:] = False

    state = _start_state()
    before = threading.active_count()
    with pytest.raises(ModelRangeError):
        acquire_bits(state, params, CFG, 20 * CHUNK, streams(70), read)
    # the failing chunk reads none of its blocks
    assert 0 < sum(seen) < 20 * CHUNK and sum(seen) % CHUNK == 0
    with pytest.raises(ModelRangeError):
        serial_acquire(_start_state(), params, CFG, 20 * CHUNK, streams(70))
    ctrl = default_controller(params, window=300)
    with pytest.raises(ModelRangeError):
        run_closed_loop(state, params, CFG, ctrl, 20 * CHUNK, streams(70))
    assert state == _start_state()
    assert threading.active_count() == before
    assert _no_helper_alive()


def test_reader_failure_mid_chunk_leaves_state_and_no_thread(block):
    # the reader fails on the block holding pulse 1500, half-way into chunk 1
    done = 0

    def read(thresholds, bits):
        nonlocal done
        if done <= 1500 < done + thresholds.size:
            raise RuntimeError("reader failed")
        done += thresholds.size
        bits[:] = False

    state = _start_state()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="reader failed"):
        acquire_bits(state, PARAMS, CFG, COUNT, streams(34), read)
    # blocks start afresh at each chunk
    assert done == CHUNK + (1500 - CHUNK) // block * block
    assert state == _start_state()
    assert threading.active_count() == before
    assert _no_helper_alive()
