"""Working sets that do not grow with the stream.

Each stage holds its input and output packed and works through the stream
in chunks of a fixed size, so quadrupling the input may raise the peak
traced allocation by the extra output and a small slack only.  A
byte-per-bit copy of the stream would add eight times the packed input.
The battery works through its sequences a group at a time, so more
sequences may not raise its peak by more than one group's bits.
"""

import tracemalloc

import numpy as np
import pytest

import rtdrng.bits as bits_module
import rtdrng.extractor as extractor
import rtdrng.nist.sequence as sequence_module
import rtdrng.pulses as pulses
from rtdrng.bits import BitStream, read_bits, write_bits
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import DeviceParams, DeviceState, streams
from rtdrng.extractor import ExtractorConfig, extract
from rtdrng.nist.battery import run_battery
from rtdrng.nist.sequence import battery_sequences
from rtdrng.nist.statistical_tests import TestParams
from rtdrng.pulses import PulseConfig, acquire_bits, window_fractions

P = DeviceParams()
CFG = PulseConfig(amplitude=1.515, width=1.0)
SLACK = 8 << 10


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_stream(length, seed):
    rng = np.random.default_rng(seed)
    return BitStream.from_array(rng.integers(0, 2, length, dtype=np.uint8))


def assert_growth_within(peaks, extra_output):
    small, large = peaks
    assert large - small <= extra_output + SLACK, (small, large, extra_output)


def test_extract(monkeypatch):
    n, l = 1000, 330
    monkeypatch.setattr(extractor, "_CHUNK_BYTES", 4 * n * 8)
    cfg = ExtractorConfig(n=n, l=l, seed=random_stream(n + l - 1, 1).to_array())
    inputs = [random_stream(blocks * n, blocks) for blocks in (64, 256)]
    peaks = [traced_peak(extract, stream, cfg) for stream in inputs]
    assert_growth_within(peaks, (256 - 64) * l // 8)


def test_acquire_bits(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", 4096)
    peaks = [
        traced_peak(acquire_bits, DeviceState(), P, CFG, count, streams(2))
        for count in (20_000, 80_000)
    ]
    assert_growth_within(peaks, 60_000 // 8)


def test_closed_loop(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", 4096)
    ctrl = default_controller(P, 1.515, window=100)
    peaks = [
        traced_peak(run_closed_loop, DeviceState(), P, CFG, ctrl, windows, streams(3))
        for windows in (200, 800)
    ]
    # packed bits plus a float64 ratio and amplitude per window
    assert_growth_within(peaks, 600 * 100 // 8 + 600 * 16)


def test_window_fractions(monkeypatch):
    monkeypatch.setattr(pulses, "_CHUNK_PULSES", 4096)
    inputs = [random_stream(windows * 500, windows) for windows in (100, 400)]
    peaks = [traced_peak(window_fractions, stream, 500) for stream in inputs]
    assert_growth_within(peaks, 300 * 8)


def test_ones_fraction(monkeypatch):
    monkeypatch.setattr(bits_module, "_CHUNK_BITS", 4096)
    inputs = [random_stream(length, length) for length in (50_000, 200_000)]
    peaks = [traced_peak(BitStream.ones_fraction, stream) for stream in inputs]
    assert_growth_within(peaks, 0)


def test_battery_groups(monkeypatch):
    n = 120_000
    params = TestParams(n=n, universal_l=4, serial_m=8)  # every test applies at 120k bits
    monkeypatch.setattr(sequence_module, "_GROUP_BYTES", 2 * n)

    def battery(stream, count):
        for seq in battery_sequences(stream, count, n):
            run_battery(seq, params)

    peaks = [traced_peak(battery, random_stream(count * n, count), count) for count in (2, 8)]
    # at most the byte-per-bit rows of one group
    assert_growth_within(peaks, 2 * n)


@pytest.mark.parametrize("length", [800_000, 3_200_000])
def test_read_bits_holds_one_payload(tmp_path, length):
    path = tmp_path / "x.bits"
    write_bits(path, random_stream(length, 4))
    assert traced_peak(read_bits, path) <= length // 8 + SLACK
