"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical checks use fixed seeds so the whole suite is
deterministic.
"""

import filecmp
import json
import math
import time

import mpmath
import numpy as np
import pytest

import oracles
from rtdrng.bits import BitStream, read_bits, write_bits
from rtdrng.cli import main as cli_main
from rtdrng.control import ControllerState, run_closed_loop
from rtdrng.device import DeviceParams, DeviceState, streams, sweep_current
from rtdrng.nist.battery import analyze_suite, pass_threshold, run_battery
from rtdrng.nist.gf2 import column_complexities, gf2_ranks
from rtdrng.nist.special import igamc
from rtdrng.nist.statistical_tests import TestParams, aperiodic_template_values, frequency_test
from rtdrng.pulses import PulseConfig, acquire_bits, window_fractions

mpmath.mp.dps = 40

QUIET = DeviceParams(drift_sigma=0.0)


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def report(number, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"\n[acceptance] criterion {number:2d} ({name}): PASS ({elapsed:.1f}s)")


def test_c01_hysteresis_loop():
    t0 = time.perf_counter()
    rng = streams(101)
    top = 1.2 * QUIET.i_peak
    forward = []
    for _ in range(100):
        trace = sweep_current(QUIET, 0.0, top, 300, 1.0, rng)
        forward.append(trace.switch_current)
    reverse = []
    for _ in range(100):
        trace = sweep_current(QUIET, top, 0.0, 300, 1.0, rng)
        reverse.append(trace.switch_current)
    forward = np.asarray(forward, dtype=np.float64)
    assert np.all(forward > QUIET.i_valley)
    assert np.all(forward <= QUIET.i_peak)
    assert forward.std() > 0.0
    assert all(s == pytest.approx(QUIET.i_valley, abs=1e-12) for s in reverse)
    report(1, "hysteresis loop", t0, budget=5.0)


def test_c02_switching_histogram():
    t0 = time.perf_counter()
    steps, dt, sweeps = 300, 1.0, 10**4
    top = 1.2 * QUIET.i_peak
    rng = streams(2024)
    switches = np.empty(sweeps)
    for k in range(sweeps):
        switches[k] = sweep_current(QUIET, 0.0, top, steps, dt, rng).switch_current
    # closed-form threshold distribution over the same grid
    currents = np.linspace(0.0, top, steps)
    expected = np.asarray(oracles.switch_current_distribution(QUIET, currents, dt)) * sweeps
    observed = np.bincount(
        np.searchsorted(currents, switches - 1e-12, side="left"), minlength=steps
    )
    # merge grid cells until each carries expected mass >= 5
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    merged_obs[-1] += acc_o
    merged_exp[-1] += acc_e
    merged_obs = np.asarray(merged_obs)
    merged_exp = np.asarray(merged_exp)
    chi2 = float(((merged_obs - merged_exp) ** 2 / merged_exp).sum())
    p_value = igamc((merged_obs.size - 1) / 2.0, chi2 / 2.0)
    assert p_value >= 0.01
    report(2, "switching histogram GOF", t0, budget=30.0)


def test_c03_ratio_tuning():
    t0 = time.perf_counter()
    params = DeviceParams()
    window = 500
    stats = {}
    for seed, amplitude in ((31, 1.50), (32, 1.53)):
        cfg = PulseConfig(amplitude=amplitude, width=1.0)
        stream = acquire_bits(DeviceState(), params, cfg, 10**6, streams(seed))
        stats[amplitude] = window_fractions(stream, window)
    lo, hi = stats[1.50], stats[1.53]
    assert lo.mean() < 0.5 < hi.mean()
    combined_se = math.sqrt(lo.var() / lo.size + hi.var() / hi.size)
    assert hi.mean() - lo.mean() > 5.0 * combined_se
    report(3, "H-fraction tuning", t0, budget=120.0)


def test_c04_closed_form_bias():
    t0 = time.perf_counter()
    for seed, (amplitude, width) in enumerate(((1.50, 1.0), (1.53, 1.0), (1.45, 2.0))):
        cfg = PulseConfig(amplitude=amplitude, width=width)
        stream = acquire_bits(
            DeviceState(), QUIET, cfg, 10**5, streams(400 + seed)
        )
        expected = oracles.switch_probability(QUIET, amplitude, 0.0, width)
        assert abs(stream.ones_fraction() - expected) < 0.01
    report(4, "closed-form bit bias", t0, budget=60.0)


def test_c05_drift_and_feedback():
    t0 = time.perf_counter()
    drifty = DeviceParams(drift_sigma=0.03)
    cfg = PulseConfig(amplitude=1.515, width=1.0)
    ctrl = ControllerState(setpoint=0.5, window=500, gain=0.2875, amp_min=1.40, amp_max=1.55)
    n_windows = 200
    seed = 6
    _, ratios, _ = run_closed_loop(
        DeviceState(), drifty, cfg, ctrl, 500 * n_windows, streams(seed)
    )
    stream = acquire_bits(
        DeviceState(), drifty, cfg, 500 * n_windows, streams(seed)
    )
    assert abs(ratios.mean() - ctrl.setpoint) < 0.02
    # the drift's effect, per window: without feedback the window ratios stray
    # from the setpoint at least 1.5x as far (RMS) as with it; the ratio's
    # minimum over seeds 0-19 is 1.64, where the open-loop mean alone sits
    # more than 0.05 from 0.5 at only 13 of them
    open_rms = np.sqrt(np.mean((window_fractions(stream, 500) - ctrl.setpoint) ** 2))
    closed_rms = np.sqrt(np.mean((ratios - ctrl.setpoint) ** 2))
    assert open_rms >= 1.5 * closed_rms
    report(5, "drift correction by feedback", t0, budget=120.0)


def test_c06_extraction_ratio(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(600)
    raw = tmp_path / "raw.bits"
    write_bits(raw, BitStream.from_array(rng.integers(0, 2, 50_000_000, dtype=np.uint8)))
    out = tmp_path / "ext.bits"
    assert run_cli("extract", "--in", raw, "--out", out) == 0
    assert len(read_bits(out)) == 16_500_000
    report(6, "50e6 -> 16.5e6 extraction ratio", t0, budget=60.0)


def test_c07_two_universal_collisions():
    t0 = time.perf_counter()
    n, l, trials = 32, 8, 10**5
    rng = np.random.default_rng(7001)
    x = (rng.random(n) < 0.5).astype(np.uint8)
    y = x.copy()
    y[5] ^= 1
    y[17] ^= 1
    seeds = (rng.random((trials, n + l - 1)) < 0.5).astype(np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(seeds, n, axis=1)[:, :l, :]
    hx = (windows.astype(np.int64) @ x.astype(np.int64)) & 1
    hy = (windows.astype(np.int64) @ y.astype(np.int64)) & 1
    collisions = float(np.mean(np.all(hx == hy, axis=1)))
    assert collisions <= 2.0**-l * 1.15
    # spot-check the batched hashing against the single-block reference
    for row in (0, 1, trials - 1):
        assert np.array_equal(hx[row], oracles.seeded_hash_block(seeds[row], x, l))
    report(7, "two-universal collision bound", t0, budget=10.0)


def test_c08_suite_calibration():
    t0 = time.perf_counter()
    params = TestParams()
    rng = np.random.default_rng(800_22)
    bits = rng.integers(0, 2, 30 * 1_000_000, dtype=np.uint8)
    results = [
        run_battery(bits[s * 1_000_000 : (s + 1) * 1_000_000], params) for s in range(30)
    ]
    suite = analyze_suite(results, alpha=params.alpha)
    assert len(suite.rows) == 188
    for row in suite.rows:
        if row.test.value.startswith("RandomExcursions"):
            assert row.threshold == pass_threshold(row.applicable, params.alpha)
        else:
            assert row.applicable == 30
            assert row.threshold == pass_threshold(30, params.alpha) == 24
        assert row.meets_threshold, f"{row.test.value} {row.label} {row.proportion}"
    applicable = sum(row.applicable for row in suite.rows)
    fraction = sum(row.applicable - row.passed for row in suite.rows) / applicable
    assert 0.03 <= fraction <= 0.07
    report(8, "suite calibration on 30x1e6 PRNG bits", t0, budget=600.0)


def test_c09_suite_sensitivity(tmp_path):
    t0 = time.perf_counter()
    # (a) Bernoulli(0.52) fails the frequency test decisively on every sequence
    rng = np.random.default_rng(901)
    params = TestParams()
    for _ in range(30):
        seq = (rng.random(1_000_000) < 0.52).astype(np.uint8)
        assert frequency_test(seq, params).pvalues[0] < 1e-6
    # (b) raw drifting device output fails the suite...
    cfg_file = tmp_path / "pipeline.ini"
    cfg_file.write_text(
        "[pulse]\namplitude = 1.515\nwidth = 1.0\n"
        "[extractor]\nn = 1000\nl = 330\n"
        "[run]\nseed = 72\n"
    )
    raw = tmp_path / "raw.bits"
    assert run_cli("generate", "--config", cfg_file, "--count", 16_500_000, "--out", raw) == 0
    raw_dir = tmp_path / "raw_report"
    code = run_cli(
        "test", "--config", cfg_file, "--in", raw,
        "--sequences", 30, "--sequence-length", 550_000, "--out-dir", raw_dir,
    )
    assert code == 1
    raw_report = json.loads((raw_dir / "report.json").read_text())
    failing = [r for r in raw_report["rows"] if not r["meets_threshold"]]
    assert len(failing) >= 1
    # ...(c) while the same data passes after extraction
    ext = tmp_path / "ext.bits"
    assert run_cli("extract", "--config", cfg_file, "--in", raw, "--out", ext) == 0
    assert len(read_bits(ext)) == 5_445_000
    ext_dir = tmp_path / "ext_report"
    code = run_cli(
        "test", "--config", cfg_file, "--in", ext,
        "--sequences", 9, "--sequence-length", 550_000, "--out-dir", ext_dir,
    )
    assert code == 0
    ext_report = json.loads((ext_dir / "report.json").read_text())
    assert ext_report["overall_pass"] is True
    assert all(r["meets_threshold"] for r in ext_report["rows"])
    report(9, "raw fails, distilled passes", t0, budget=900.0)


def test_c10_kernel_oracles():
    t0 = time.perf_counter()
    # linear complexity vs exhaustive LFSR search on every 12-bit sequence,
    # bit k of value v being column v's bit k
    columns = ((np.arange(2**12) >> np.arange(12)[:, None]) & 1).astype(np.uint8)
    assert column_complexities(columns).tolist() == [
        oracles.brute_force_lfsr_length(seq.tolist()) for seq in columns.T
    ]
    # rank vs an independent elimination oracle
    rng = np.random.default_rng(1001)
    matrices = (rng.random((100, 32, 32)) < 0.5).astype(np.uint8)
    assert gf2_ranks(matrices).tolist() == [oracles.gf2_rank_oracle(m) for m in matrices]
    # special functions vs a high-precision oracle on 50-point grids
    for x in np.linspace(-4.0, 8.0, 50):
        want = float(mpmath.erfc(mpmath.mpf(float(x))))
        assert abs(math.erfc(float(x)) - want) <= 1e-10 * max(abs(want), 1e-300)
    for k in range(50):
        a = 0.5 + 12.0 * k
        x = 0.25 + 11.0 * k
        want = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert abs(igamc(a, x) - want) <= 1e-10 * max(abs(want), 1e-300)
    # aperiodic template enumeration
    assert len(aperiodic_template_values(9)) == 148
    report(10, "kernel oracles", t0, budget=60.0)


def test_c11_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()

    def full_run(run_dir):
        run_dir.mkdir()
        cfg_file = run_dir / "pipeline.ini"
        cfg_file.write_text(
            "[pulse]\namplitude = 1.515\nwidth = 1.0\n"
            "[controller]\nwindow = 500\n"
            "[extractor]\nn = 1000\nl = 330\n"
            "[run]\nseed = 1100\n"
        )
        raw = run_dir / "raw.bits"
        assert run_cli("generate", "--config", cfg_file, "--count", 1_200_000, "--out", raw) == 0
        assert run_cli(
            "sweep", "--config", cfg_file, "--repeats", 5, "--steps", 120,
            "--out-dir", run_dir,
        ) == 0
        assert run_cli(
            "extract", "--config", cfg_file, "--in", raw, "--out", run_dir / "ext.bits"
        ) == 0
        run_cli(
            "test", "--config", cfg_file, "--in", raw,
            "--sequences", 2, "--sequence-length", 550_000, "--out-dir", run_dir,
        )
        assert run_cli("report", "--run", run_dir) == 0

    a = tmp_path / "a"
    b = tmp_path / "b"
    full_run(a)
    full_run(b)
    names_a = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file())
    assert names_a == names_b and len(names_a) >= 10
    for name in names_a:
        assert filecmp.cmp(a / name, b / name, shallow=False), f"{name} differs"
    report(11, "pipeline determinism", t0)
