"""An acquisition that raises leaves the device state as it was and no thread alive.

pulses.acquire_bits advances the state only once every chunk has been read, and
closes its draws, joining their thread, in a finally clause; a reader that
raises, in the first chunk or in the last, and a mid-run reset failure must
both leave nothing behind.
"""

import threading

import pytest

import rtdrng.device as device
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import Branch, DeviceParams, DeviceState, ModelRangeError, streams
from rtdrng.pulses import PulseConfig, acquire_bits

CHUNK = 257
CFG = PulseConfig(amplitude=1.515, width=1.0)
SIZES = [CHUNK, CHUNK, CHUNK, 5]


def _start_state():
    return DeviceState(branch=Branch.H, drift=0.01)


def _no_helper_alive():
    return not any(thread.name == "rtdrng-draws" for thread in threading.enumerate())


@pytest.mark.parametrize("failing_chunk", [0, len(SIZES) - 1])
def test_reader_failure_leaves_state_and_no_thread(monkeypatch, failing_chunk):
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    seen = []

    def read(thresholds, bits):
        seen.append(thresholds.size)
        if len(seen) == failing_chunk + 1:
            raise RuntimeError("reader failed")
        bits[:] = False

    state = _start_state()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="reader failed"):
        acquire_bits(state, DeviceParams(), CFG, sum(SIZES), streams(5), read)
    assert seen == SIZES[: failing_chunk + 1]
    assert state == _start_state()
    assert threading.active_count() == before
    assert _no_helper_alive()


def test_reset_failure_leaves_state_and_no_thread(monkeypatch):
    # a fast, wide drift whose valley reaches 0 mA a few thousand pulses in
    # at seed 70: the first chunks are read and a later one fails
    monkeypatch.setattr(device, "_CHUNK_PULSES", CHUNK)
    params = DeviceParams(drift_sigma=0.25, drift_tau=1.0)
    seen = []

    def read(thresholds, bits):
        seen.append(thresholds.size)
        bits[:] = False

    before = threading.active_count()
    state = _start_state()
    with pytest.raises(ModelRangeError):
        acquire_bits(state, params, CFG, 20_000, streams(70), read)
    assert 0 < len(seen) < -(-20_000 // CHUNK)
    assert state == _start_state()
    with pytest.raises(ModelRangeError):
        acquire_bits(state, params, CFG, 20_000, streams(70))
    assert state == _start_state()
    ctrl = default_controller(params, window=100)
    with pytest.raises(ModelRangeError):
        run_closed_loop(state, params, CFG, ctrl, 200 * 100, streams(70))
    assert state == _start_state()
    assert threading.active_count() == before
    assert _no_helper_alive()
