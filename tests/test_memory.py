"""Working sets that do not grow with the stream.

Each library call works through the stream in chunks of a fixed size, so
quadrupling the input may raise the peak traced allocation by the extra
in-memory output and a small slack only.  A byte-per-bit copy of the
stream would add eight times the packed input.  The battery works through
its sequences a group at a time, so more sequences may not raise its peak
by more than one group's bits.  A sweep stage writes its rows a group of
sweeps at a time.  The CLI stages hold no whole stream: a bit file is read
a byte range at a time and written as it is packed, so the peak RSS of a
fresh ``generate`` or ``extract`` process does not grow with the stream,
and ``report``'s grows by its per-window arrays only.
"""

import dataclasses
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rtdrng.bits as bits_module
import rtdrng.cli as cli
import rtdrng.device as device
import rtdrng.extractor as extractor
import rtdrng.nist.sequence as sequence_module
import rtdrng.nist.statistical_tests as statistical_tests
from rtdrng.bits import BitStream, read_bits, write_bits
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import DeviceParams, DeviceState, streams
from rtdrng.extractor import ExtractorConfig, extract
from rtdrng.nist.battery import run_battery
from rtdrng.nist.sequence import battery_sequences
from rtdrng.nist.statistical_tests import (
    SequenceTooShortError,
    TestParams,
    approximate_entropy_test,
    fft_test,
)
from rtdrng.pulses import PulseConfig, acquire_bits, window_fractions

P = DeviceParams()
CFG = PulseConfig(amplitude=1.515, width=1.0)
SLACK = 8 << 10
SRC = Path(__file__).resolve().parent.parent / "src"


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
    # eight blocks a chunk: a block's bytes, two ceil(l/8)-byte buffers, l output bits
    monkeypatch.setattr(extractor, "_CHUNK_BYTES", 8 * (n // 8 + 2 * -(-l // 8) + l))
    cfg = ExtractorConfig(n=n, l=l, seed=random_stream(n + l - 1, 1).to_array())
    inputs = [random_stream(blocks * n, blocks) for blocks in (64, 256)]
    peaks = [traced_peak(extract, stream, cfg) for stream in inputs]
    assert_growth_within(peaks, (256 - 64) * l // 8)


@pytest.mark.parametrize("l", [10, 990])
def test_extract_chunk_fits_its_budget(l):
    # the chunk's accumulated and gathered output bytes and its unpacked
    # output share one budget, so a wide output takes fewer rows; beside
    # them live only the 256-row shift table, 32 (n + l) bytes, and the
    # packed output
    n, blocks = 1000, 2000
    cfg = ExtractorConfig(n=n, l=l, seed=random_stream(n + l - 1, 1).to_array())
    peak = traced_peak(extract, random_stream(blocks * n, 2), cfg)
    budget = extractor._CHUNK_BYTES
    assert peak <= budget + 32 * (n + l) + blocks * l // 8 + SLACK, (peak, budget)


def test_acquire_bits(monkeypatch):
    monkeypatch.setattr(device, "_CHUNK_PULSES", 4096)
    peaks = [
        traced_peak(acquire_bits, DeviceState(), P, CFG, count, streams(2))
        for count in (20_000, 80_000)
    ]
    assert_growth_within(peaks, 60_000 // 8)


def test_closed_loop(monkeypatch):
    monkeypatch.setattr(device, "_CHUNK_PULSES", 4096)
    ctrl = default_controller(P, window=100)
    peaks = [
        traced_peak(run_closed_loop, DeviceState(), P, CFG, ctrl, windows * 100, streams(3))
        for windows in (200, 800)
    ]
    # packed bits plus a float64 ratio and amplitude per window
    assert_growth_within(peaks, 600 * 100 // 8 + 600 * 16)


def test_window_tables(tmp_path):
    # the closed loop's per-window tables are written a block of rows at a
    # time: only the ratio and amplitude arrays grow with the window count.
    # Both counts end on blocks of five-digit window numbers, whose lines are
    # the longest either writes.
    def tables(windows):
        rng = np.random.default_rng(windows)
        ratios, amplitudes = rng.random(windows), rng.random(windows)
        amplitudes += 1.5
        cli._write_window_tables(tmp_path / "raw.bits", ratios, amplitudes)

    counts = (3 * cli._TABLE_ROWS, 12 * cli._TABLE_ROWS)
    peaks = [traced_peak(tables, windows) for windows in counts]
    assert_growth_within(peaks, 2 * 8 * (counts[1] - counts[0]))
    assert len((tmp_path / "raw.bits.ratio.tsv").read_text().splitlines()) == 1 + counts[1]


def test_window_fractions(monkeypatch):
    monkeypatch.setattr(bits_module, "_CHUNK_BITS", 4096)
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


def test_short_sequence_rejected_before_serial_counts():
    # counting at serial_m = 24 would take a 2^24-entry int64 bincount (134 MB);
    # Serial rejects 400k bits first, and ApEn counts only at its own width
    bits = random_stream(400_000, 5).to_array()
    params = TestParams(n=bits.size, serial_m=24)
    tracemalloc.start()
    try:
        with pytest.raises(SequenceTooShortError, match="serial test"):
            run_battery(bits, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak
    standard = dataclasses.replace(params, serial_m=16)
    assert approximate_entropy_test(bits, params) == approximate_entropy_test(bits, standard)


def test_spectral_test_holds_one_half_length_buffer():
    # the half-length transform in place: 16 bytes a pair of bits, a byte a
    # pair for each comparison of the count and the twiddle table, 8.6 MiB
    # traced at 1M bits
    n = 1_000_000
    bits = random_stream(n, 8).to_array()
    peak = traced_peak(fft_test, bits, TestParams())
    assert peak <= 17 * (n // 2) + 48 * statistical_tests._SPECTRAL_BLOCK, peak


@pytest.mark.parametrize("length", [800_000, 3_200_000])
def test_read_bits_holds_no_payload(tmp_path, length):
    # the header, size and pad bits are checked at open; the payload stays on disk
    path = tmp_path / "x.bits"
    write_bits(path, random_stream(length, 4))
    assert traced_peak(read_bits, path) <= SLACK


def test_write_bits_copies_no_payload(tmp_path):
    # a copy of this stream's payload would take 1 MiB
    stream = random_stream(1 << 23, 6)
    path = tmp_path / "x.bits"
    assert traced_peak(write_bits, path, stream) < 64 << 10
    assert read_bits(path) == stream


def _fresh_peak_mb(code, *args):
    """VmHWM, in MB, of a fresh interpreter that imports rtdrng from src/ and runs `code`.

    A fresh process, so this session's own allocations do not count.  Its
    ru_maxrss would: exec keeps the spawning process's high-water mark,
    while VmHWM belongs to the new address space.
    """
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
        "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return int(out.stdout.split()[-2]) / 1024  # VmHWM is in kB


_STAGE = "from rtdrng.cli import main; assert main(sys.argv[2:]) == 0"
_PULSES = (8_000_000, 32_000_000)


@pytest.fixture(scope="module")
def open_loop_peaks(tmp_path_factory):
    """Fresh-process peaks of open-loop generate, then extract and report, at each of _PULSES."""
    peaks = {}
    for count in _PULSES:
        run = tmp_path_factory.mktemp(f"run{count}")
        raw, ext = run / "raw.bits", run / "ext.bits"
        generate = ("generate", "--seed", 1, "--count", count, "--out", raw)
        peaks[count] = {
            "generate": _fresh_peak_mb(_STAGE, *generate),
            "extract": _fresh_peak_mb(_STAGE, "extract", "--in", raw, "--out", ext),
            "report": _fresh_peak_mb(_STAGE, "report", "--run", run),
        }
    return peaks


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("stage", ["generate", "extract"])
def test_open_loop_stage_peak_rss_is_flat(open_loop_peaks, stage):
    # bits are packed straight into the output file and read a byte range at
    # a time: four times the pulses read within 0.1 MB here.  Holding the
    # streams, as the stages did, added about 3 MB.
    small, large = (open_loop_peaks[count][stage] for count in _PULSES)
    assert large - small <= 0.5, (small, large)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_report_stage_peak_rss_grows_by_its_windows(open_loop_peaks):
    # report holds a float64 ones-fraction for each 500-bit window, and while
    # it summarizes them a temporary of their size for the std and numpy's
    # histogram temporaries: 24 bytes a window covers them (0.9-1.0 MB here
    # over the 48,000 extra windows).  Holding the stream added 3.7 MB.
    small, large = (open_loop_peaks[count]["report"] for count in _PULSES)
    windows = (_PULSES[1] - _PULSES[0]) // 500
    assert large - small <= 0.5 + 24 * windows / 2**20, (small, large)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_extract_stage_peak_rss(tmp_path):
    # l = 912, drift_feedback's auto width: rows sized by 8 MiB of float32
    # input alone would add 15 MiB of sums and parity, about 32 MB above the
    # import alone on this input
    write_bits(tmp_path / "raw.bits", random_stream(4_000_000, 6))
    (tmp_path / "x.ini").write_text("[extractor]\nmode = fixed\nn = 1000\nl = 912\n")
    imported = _fresh_peak_mb("import rtdrng.cli")
    stage = _fresh_peak_mb(
        "from rtdrng.cli import main; "
        "argv = ['extract', '--config', sys.argv[2] + '/x.ini', '--in', sys.argv[2] + '/raw.bits', "
        "'--out', sys.argv[2] + '/out.bits']; assert main(argv) == 0",
        tmp_path,
    )
    assert stage - imported <= 20, (stage, imported)
    assert len(read_bits(tmp_path / "out.bits")) == 4000 * 912


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_closed_loop_generate_stage_peak_rss(tmp_path):
    # drift_feedback's device and window over 8000 windows.  The drift path
    # is scanned in place in its normals buffer, the switch uniforms are
    # drawn a block at a time and the bits are packed straight into the
    # file: about 7.5 MB above the import alone, and 8.0 MB with the packed
    # stream held until the end.  A 2 MiB path allocated per chunk beside a
    # 2 MiB chunk of uniforms read 14.0 MB.
    (tmp_path / "x.ini").write_text(
        "[device]\ndrift_sigma = 0.03\n[controller]\nwindow = 500\n[run]\nseed = 1\n"
    )
    imported = _fresh_peak_mb("import rtdrng.cli")
    stage = _fresh_peak_mb(
        "from rtdrng.cli import main; "
        "argv = ['generate', '--config', sys.argv[2] + '/x.ini', '--count', '4000000', "
        "'--out', sys.argv[2] + '/raw.bits']; assert main(argv) == 0",
        tmp_path,
    )
    assert stage - imported <= 7.5 + 1.0, (stage, imported)
    assert len(read_bits(tmp_path / "raw.bits")) == 4_000_000


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_sweep_stage_peak_rss_above_import(tmp_path):
    # drift_feedback's 1000 sweeps of 300 points: two drift chunks, latched
    # and written in groups of 109 sweeps, about 6.5 MB above the import
    # alone; latching and writing each chunk whole read 19.5 MB
    imported = _fresh_peak_mb("import rtdrng.cli")
    stage = _fresh_peak_mb(
        "from rtdrng.cli import main; "
        "argv = ['sweep', '--repeats', '1000', '--steps', '300', '--out-dir', sys.argv[2]]; "
        "assert main(argv) == 0",
        tmp_path,
    )
    assert stage - imported <= 12, (stage, imported)
    assert len((tmp_path / "switch_currents.tsv").read_text().splitlines()) == 1 + 1000


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_sweep_stage_peak_rss(tmp_path):
    # ten times the repeats of the test above, under the same bound: the
    # stage's peak does not grow with the repeats, about 9.5 MB above the
    # import alone.  The 3M rows take about 66 MB as text; holding every
    # line until the end peaked at 103 MB, and latching each drift chunk
    # whole read 21.7 MB above the import.
    imported = _fresh_peak_mb("import rtdrng.cli")
    stage = _fresh_peak_mb(
        "from rtdrng.cli import main; "
        "argv = ['sweep', '--repeats', '10000', '--steps', '300', '--out-dir', sys.argv[2]]; "
        "assert main(argv) == 0",
        tmp_path,
    )
    assert stage - imported <= 12, (stage, imported)
    assert (tmp_path / "sweeps.tsv").stat().st_size > 60 << 20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_test_stage_peak_rss(tmp_path):
    # the spectral test counts from the half-length transform in place (an
    # 8 MB buffer at 1M bits) on its helper thread, beside tests whose
    # working sets are small, in the one heap arena cli.main keeps, and
    # Serial counts its windows 2^18 at a time.  The stage reads 14.2-15.0
    # MB above the import alone; the bound is 15.0 MB + 5 %.
    write_bits(tmp_path / "in.bits", random_stream(6_000_000, 7))
    imported = _fresh_peak_mb("import rtdrng.cli")
    stage = _fresh_peak_mb(
        "from rtdrng.cli import main; "
        "argv = ['test', '--in', sys.argv[2] + '/in.bits', '--sequences', '6', "
        "'--sequence-length', '1000000', '--out-dir', sys.argv[2]]; "
        "assert main(argv) in (0, 1)",
        tmp_path,
    )
    assert stage - imported <= 15.0 * 1.05, (stage, imported)
    assert (tmp_path / "report.json").is_file()
