import ctypes
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from rtdrng.bits import BitStream, read_bits, write_bits
from rtdrng.cli import build_parser, main
from rtdrng.config import _SCHEMA, ConfigError, _stage_keys, default_config, load_config
from rtdrng.nist import TestParams
from rtdrng.pulses import window_fractions
from rtdrng.sidecar import read_sidecar, write_sidecar

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.device.i_peak == 1.55
        assert cfg.pulse.amplitude == 1.50
        assert cfg.controller is None
        assert cfg.extractor.n == 1000 and cfg.extractor.l == 330
        assert cfg.suite.n == 1_000_000
        assert cfg.suite.sequences == 30
        assert cfg.seed == 0

    def test_roundtrip_sections(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text(
            "[device]\ndrift_sigma = 0\n"
            "[pulse]\namplitude = 1.53\nwidth = 0.5\n"
            "[controller]\nsetpoint = 0.45\n"
            "[extractor]\nmode = auto\nn = 500\nl = 100\n"
            "[suite]\nsequences = 4\nsequence_length = 550000\n"
            "[run]\nseed = 99\n"
        )
        cfg = load_config(path)
        assert cfg.device.drift_sigma == 0.0
        assert cfg.pulse.amplitude == 1.53
        assert cfg.controller is not None
        assert cfg.controller.setpoint == 0.45
        assert cfg.extractor.l is None  # auto mode sizes l per run
        assert cfg.suite.sequences == 4
        assert cfg.suite.n == 550_000
        assert cfg.seed == 99

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dev1ce]\ni_peak = 2\n")
        with pytest.raises(ConfigError, match="dev1ce"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[device]\ni_peek = 2\n")
        with pytest.raises(ConfigError, match="i_peek"):
            load_config(path)

    def test_bad_value_names_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[pulse]\nwidth = wide\n")
        with pytest.raises(ConfigError, match=r"\[pulse\] width"):
            load_config(path)

    def test_invariant_violation_names_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[device]\ni_valley = 2.0\n")
        with pytest.raises(ConfigError, match=r"\[device\]"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/pipeline.ini")


_SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
# a valid value other than the default for every INI key
_NON_DEFAULTS = {
    ("device", "i_peak"): "1.6",
    ("device", "i_valley"): "0.45",
    ("device", "v_peak"): "0.45",
    ("device", "v_valley"): "0.75",
    ("device", "g_high"): "2.0",
    ("device", "lambda0"): "0.5",
    ("device", "i_scale"): "0.07",
    ("device", "drift_sigma"): "0.02",
    ("device", "drift_tau"): "30",
    ("pulse", "amplitude"): "1.53",
    ("pulse", "width"): "0.5",
    ("pulse", "duty_cycle"): "0.25",
    ("controller", "setpoint"): "0.45",
    ("controller", "window"): "100",
    ("controller", "gain"): "0.1",
    ("controller", "amp_min"): "0.5",
    ("controller", "amp_max"): "1.5",
    ("extractor", "mode"): "auto",
    ("extractor", "n"): "2000",
    ("extractor", "l"): "600",
    ("extractor", "epsilon_exponent"): "16",
    ("extractor", "seed_hex"): "ab" * 167,  # n + l - 1 = 1329 bits at the default n, l
    ("suite", "sequences"): "4",
    ("suite", "sequence_length"): "550000",
    ("suite", "alpha"): "0.01",
    ("suite", "block_frequency_m"): "64",
    ("suite", "longest_run_m"): "128",
    ("suite", "nonoverlapping_m"): "10",
    ("suite", "nonoverlapping_blocks"): "4",
    ("suite", "overlapping_m"): "10",
    ("suite", "overlapping_block_len"): "1000",
    ("suite", "universal_l"): "6",
    ("suite", "universal_q"): "640",
    ("suite", "approx_entropy_m"): "8",
    ("suite", "serial_m"): "12",
    ("suite", "linear_complexity_block"): "1000",
    ("run", "seed"): "7",
    ("run", "out_dir"): "elsewhere",
}
# where the keys that are not stage fields land
_EXTRA_KEYS = {
    ("extractor", "mode"): lambda cfg: "auto" if cfg.extractor.l is None else "fixed",
    ("extractor", "seed_hex"): lambda cfg: cfg.extractor_seed_hex,
    ("suite", "sequence_length"): lambda cfg: cfg.suite.n,
    ("run", "seed"): lambda cfg: cfg.seed,
    ("run", "out_dir"): lambda cfg: cfg.out_dir,
}


def _setting(cfg, section, key):
    if (section, key) in _EXTRA_KEYS:
        return _EXTRA_KEYS[section, key](cfg)
    return getattr(getattr(cfg, section), key)


@pytest.mark.parametrize("section, key", _SCHEMA_KEYS)
def test_every_schema_key_lands_on_its_setting(tmp_path, section, key):
    text = _NON_DEFAULTS[section, key]
    # the empty section gives the defaults (a [controller] section enables feedback)
    base = tmp_path / "base.ini"
    base.write_text(f"[{section}]\n")
    path = tmp_path / "one.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    got = _setting(load_config(path), section, key)
    assert got != _setting(load_config(base), section, key)
    assert got == _SCHEMA[section][key](text)


def test_schema_covers_the_table():
    assert set(_NON_DEFAULTS) == set(_SCHEMA_KEYS)


def test_field_without_parser_rejected():
    @dataclasses.dataclass
    class Stage:
        name: str = "x"

    with pytest.raises(TypeError, match="Stage.name"):
        _stage_keys(Stage)


def test_tsv_cells_written_as_str(tmp_path):
    from rtdrng.cli import _write_tsv

    path = tmp_path / "table.tsv"
    rows = [(0, 0.1, "x"), (12, 1e-17, ""), (-3, 1.515, "1.500000")]
    _write_tsv(path, ["window", "value", "text"], iter(rows))
    assert path.read_bytes() == (
        b"window\tvalue\ttext\n0\t0.1\tx\n12\t1e-17\t\n-3\t1.515\t1.500000\n"
    )
    _write_tsv(path, ["window", "value", "text"], [])
    assert path.read_bytes() == b"window\tvalue\ttext\n"


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.meta"
        write_sidecar(path, {"stage": "generate", "count": 8, "ratio": 0.5, "flag": True})
        entries = read_sidecar(path)
        assert entries["stage"] == "generate"
        assert entries["count"] == "8"
        assert entries["ratio"] == "0.5"
        assert entries["flag"] == "1"

    # every str.splitlines boundary but "\n", which the writer refuses
    @pytest.mark.parametrize(
        "char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_values_with_line_boundaries_read_back(self, tmp_path, char):
        path = tmp_path / "x.meta"
        entries = {"input": f"a{char}b=c", "tail": f"{char}", "count": "8"}
        write_sidecar(path, entries)
        assert read_sidecar(path) == entries


class TestGenerateCommand:
    def test_eight_bits_one_payload_byte(self, tmp_path):
        out = tmp_path / "raw.bits"
        assert run_cli("generate", "--count", 8, "--out", out, "--seed", 5) == 0
        data = out.read_bytes()
        assert len(data) == 16 + 1
        assert read_sidecar(tmp_path / "raw.bits.meta")["count"] == "8"

    def test_deterministic_reruns(self, tmp_path):
        a = tmp_path / "a.bits"
        b = tmp_path / "b.bits"
        run_cli("generate", "--count", 4096, "--out", a, "--seed", 7)
        run_cli("generate", "--count", 4096, "--out", b, "--seed", 7)
        assert a.read_bytes() == b.read_bytes()
        meta_a = read_sidecar(tmp_path / "a.bits.meta")
        meta_b = read_sidecar(tmp_path / "b.bits.meta")
        assert meta_a == meta_b

    def test_controller_emits_traces(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[controller]\nwindow = 100\n[run]\nseed = 3\n")
        out = tmp_path / "c.bits"
        assert run_cli("generate", "--config", cfg, "--count", 950, "--out", out) == 0
        stream = read_bits(out)
        assert len(stream) == 950
        ratio = (tmp_path / "c.bits.ratio.tsv").read_text().strip().split("\n")
        amplitude = (tmp_path / "c.bits.amplitude.tsv").read_text().strip().split("\n")
        assert ratio[0] == "window\tratio"
        assert amplitude[0] == "window\tamplitude_ma"
        assert len(ratio) == len(amplitude) == 1 + 10  # ceil(950 / 100) windows
        assert read_sidecar(tmp_path / "c.bits.meta")["controller"] == "on"

    def test_trace_tables_match_the_cell_writer(self, tmp_path, monkeypatch):
        # generate formats each value once per row; the bytes are those of the
        # table writer the sweep stage uses, given "{:.6f}" cells
        import rtdrng.cli as cli

        loops = []
        run_closed_loop = cli.run_closed_loop

        def recording(*args):
            loops.append(run_closed_loop(*args))
            return loops[-1]

        monkeypatch.setattr(cli, "run_closed_loop", recording)
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[device]\ndrift_sigma = 0.03\n[controller]\nwindow = 50\n[run]\nseed = 4\n")
        out = tmp_path / "raw.bits"
        assert run_cli("generate", "--config", cfg, "--count", 20_001, "--out", out) == 0
        (_, ratios, amplitudes), = loops
        for suffix, column, values in (
            ("ratio", "ratio", ratios),
            ("amplitude", "amplitude_ma", amplitudes),
        ):
            want = tmp_path / f"want.{suffix}.tsv"
            cells = ((w, f"{v:.6f}") for w, v in enumerate(values.tolist()))
            cli._write_tsv(want, ["window", column], cells)
            assert (tmp_path / f"raw.bits.{suffix}.tsv").read_bytes() == want.read_bytes()
        assert len(ratios) == 401

    @pytest.mark.parametrize("count", [1000, 1001])
    def test_ratio_table_matches_the_written_stream(self, tmp_path, capsys, count):
        # the loop draws exactly --count pulses; a last window of one pulse
        # has the written last bit as its ratio
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[pulse]\namplitude = 1.53\n[controller]\nwindow = 500\n[run]\nseed = 9\n")
        out = tmp_path / "raw.bits"
        assert run_cli("generate", "--config", cfg, "--count", count, "--out", out) == 0
        stream = read_bits(out)
        assert len(stream) == count
        bits = stream.to_array()
        ratio_tsv = (tmp_path / "raw.bits.ratio.tsv").read_text()
        rows = [line.split("\t") for line in ratio_tsv.splitlines()]
        assert rows[0] == ["window", "ratio"]
        starts = range(0, count, 500)
        assert [int(w) for w, _ in rows[1:]] == list(range(len(starts)))
        for (_, ratio), lo in zip(rows[1:], starts):
            piece = BitStream.from_array(bits[lo : lo + 500])
            assert ratio == f"{window_fractions(piece, len(piece))[0]:.6f}"
        if count % 500:
            assert len(piece) == 1 and float(rows[-1][1]) == bits[-1]
        amplitudes = (tmp_path / "raw.bits.amplitude.tsv").read_text().splitlines()
        assert len(amplitudes) == len(rows)
        assert run_cli("report", "--run", tmp_path) == 0
        reported = re.search(r"amplitude_ma: (\S+)", capsys.readouterr().out).group(1)
        assert float(reported) == float(amplitudes[1].split("\t")[1]) == 1.53

    def test_bad_count(self, tmp_path):
        assert run_cli("generate", "--count", 0, "--out", tmp_path / "x.bits") == 2

    def test_failed_reset_check_leaves_no_output(self, tmp_path, monkeypatch):
        # a fast, wide drift whose valley reaches 0 mA a few thousand pulses
        # in at seed 70: the reset check passes on the first chunks of 257
        # pulses and fails on a later one, after bits were written
        import rtdrng.device as device
        import rtdrng.pulses as pulses

        monkeypatch.setattr(device, "_CHUNK_PULSES", 257)
        checked = []
        require_reset = pulses._require_reset

        def counting(params, drift):
            checked.append(drift.size)
            require_reset(params, drift)

        monkeypatch.setattr(pulses, "_require_reset", counting)
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[device]\ndrift_sigma = 0.25\ndrift_tau = 1.0\n[run]\nseed = 70\n")
        out = tmp_path / "out"
        argv = ["generate", "--config", cfg, "--count", 20_000, "--out", out / "raw.bits"]
        assert run_cli(*argv) == 2
        assert 1 < len(checked) < -(-20_000 // 257)
        assert list(out.iterdir()) == []

    def test_timestamps_add_only_a_created_line(self, tmp_path):
        assert run_cli("generate", "--count", 1000, "--seed", 3, "--out", tmp_path / "a.bits") == 0
        stamped_argv = ("--count", 1000, "--seed", 3, "--out", tmp_path / "b.bits", "--timestamps")
        assert run_cli("generate", *stamped_argv) == 0
        plain = (tmp_path / "a.bits.meta").read_text().splitlines()
        stamped = (tmp_path / "b.bits.meta").read_text().splitlines()
        created = [line for line in stamped if line.startswith("created=")]
        assert len(created) == 1
        datetime.strptime(created[0][len("created=") :], "%Y-%m-%dT%H:%M:%S%z")
        assert [line for line in stamped if line not in created] == plain

    def test_removed_sample_offset_key_rejected(self, tmp_path):
        # the voltage is read at the end of the pulse: the width is the exposure
        cfg = tmp_path / "old.ini"
        cfg.write_text("[pulse]\nsample_offset = 0.5\n")
        out = tmp_path / "x.bits"
        assert run_cli("generate", "--config", cfg, "--count", 8, "--out", out) == 2
        assert not out.exists()


class TestSweepCommand:
    def test_forward_outputs(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[device]\ndrift_sigma = 0\n[run]\nseed = 2\n")
        assert (
            run_cli(
                "sweep", "--config", cfg, "--repeats", 5, "--steps", 120,
                "--out-dir", tmp_path,
            )
            == 0
        )
        hist = (tmp_path / "switch_hist.tsv").read_text().strip().split("\n")
        total = sum(int(line.split("\t")[2]) for line in hist[1:])
        assert total == 5
        meta = read_sidecar(tmp_path / "sweep.meta")
        assert meta["switches_recorded"] == "5"

    @pytest.mark.parametrize(
        "flag, value", [("--steps", 1), ("--dt", 0), ("--dt", "nan"), ("--bins", 0)]
    )
    def test_bad_flag_rejected_before_sweeping(self, tmp_path, flag, value):
        assert run_cli("sweep", "--repeats", 2, flag, value, "--out-dir", tmp_path) == 2
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_records_bins(self, tmp_path):
        code = run_cli("sweep", "--repeats", 3, "--steps", 50, "--bins", 7, "--out-dir", tmp_path)
        assert code == 0
        assert read_sidecar(tmp_path / "sweep.meta")["bins"] == "7"
        assert len((tmp_path / "switch_hist.tsv").read_text().strip().split("\n")) == 1 + 7

    def test_reverse_switches_at_valley(self, tmp_path):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[device]\ndrift_sigma = 0\n")
        run_cli("sweep", "--config", cfg, "--direction", "reverse", "--repeats", 3,
                "--steps", 100, "--out-dir", tmp_path)
        rows = (tmp_path / "switch_currents.tsv").read_text().strip().split("\n")[1:]
        values = {float(r.split("\t")[1]) for r in rows}
        assert values == {0.40}


@pytest.mark.parametrize("flag, value", [("--start", "nan"), ("--stop", "nan"), ("--stop", "inf")])
def test_sweep_non_finite_bound_rejected_before_sweeping(tmp_path, flag, value):
    out = tmp_path / "sweeps"
    assert run_cli("sweep", "--repeats", 2, flag, value, "--out-dir", out) == 2
    assert not out.exists()


CLOSED_LOOP = "[device]\ndrift_sigma = 0.03\n[controller]\nwindow = 500\n"
WINDOW_TABLES = ["raw.bits.amplitude.tsv", "raw.bits.ratio.tsv"]


@pytest.mark.parametrize(
    "argv, ini, outputs, undigested",
    [
        (["sweep", "--repeats", 3], "", ["sweeps.tsv", "switch_currents.tsv", "switch_hist.tsv"], []),
        # below the valley nothing switches, so no histogram is written
        (["sweep", "--repeats", 2, "--stop", 0.3], "", ["sweeps.tsv", "switch_currents.tsv"], []),
        (["test", "--sequences", 1, "--sequence-length", 400_000], "", ["report.json", "report.tsv"], []),
        # generate and extract digest the one bit file their sidecar is named for
        (["generate", "--count", 30_001], "", ["raw.bits"], []),
        (["generate", "--count", 30_001], CLOSED_LOOP, ["raw.bits"], WINDOW_TABLES),
        (["extract"], "", ["ext.bits"], []),
        (["extract"], "[extractor]\nmode = auto\n", ["ext.bits"], []),
    ],
    ids=[
        "sweep", "sweep-no-switch", "test",
        "generate-open-loop", "generate-closed-loop", "extract-fixed", "extract-auto",
    ],
)
def test_stage_sidecar_digests_each_output(tmp_path, argv, ini, outputs, undigested):
    if argv[0] in ("test", "extract"):
        raw = tmp_path / "raw.bits"
        rng = np.random.default_rng(18)
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 400_000).astype(np.uint8)))
        argv = [*argv, "--in", raw]
    if ini:
        (tmp_path / "x.ini").write_text(ini)
        argv = [*argv, "--config", tmp_path / "x.ini"]
    out = tmp_path / "out"
    if argv[0] in ("generate", "extract"):
        meta_name = f"{outputs[0]}.meta"
        assert run_cli(*argv, "--out", out / outputs[0]) == 0
    else:
        meta_name = f"{argv[0]}.meta"
        assert run_cli(*argv, "--out-dir", out) in (0, 1)
    meta = read_sidecar(out / meta_name)
    digests = {k[len("sha256.") :]: v for k, v in meta.items() if k.startswith("sha256.")}
    if "sha256" in meta:
        digests[meta_name[: -len(".meta")]] = meta["sha256"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, *undigested, meta_name])
    assert sorted(digests) == outputs
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestExtractCommand:
    def test_fixed_mode_and_metadata(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 25_000).astype(np.uint8)))
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nn = 1000\nl = 330\n")
        out = tmp_path / "ext.bits"
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", out) == 0
        stream = read_bits(out)
        assert len(stream) == 25 * 330
        meta = read_sidecar(tmp_path / "ext.bits.meta")
        assert meta["n"] == "1000" and meta["l"] == "330"
        assert meta["seed_derived"] == "1"
        assert len(meta["seed_fingerprint"]) == 16
        assert meta["input_bits"] == "25000"

    def test_auto_mode_compresses_biased_input(self, tmp_path):
        rng = np.random.default_rng(12)
        raw = tmp_path / "raw.bits"
        bits = (rng.random(50_000) < 0.6).astype(np.uint8)
        write_bits(raw, BitStream.from_array(bits))
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nmode = auto\nn = 1000\n")
        out = tmp_path / "ext.bits"
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", out) == 0
        meta = read_sidecar(tmp_path / "ext.bits.meta")
        assert int(meta["l"]) < 1000
        assert float(meta["h_min"]) < 1.0

    def test_explicit_seed_fingerprint(self, tmp_path):
        rng = np.random.default_rng(13)
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 2_000).astype(np.uint8)))
        seed_hex = rng.bytes(17).hex()  # 136 bits >= 64 + 70 - 1
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(f"[extractor]\nn = 64\nl = 16\nseed_hex = {seed_hex}\n")
        out = tmp_path / "ext.bits"
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", out) == 0
        meta = read_sidecar(tmp_path / "ext.bits.meta")
        assert meta["seed_derived"] == "0"

    def test_insufficient_entropy_exit_code(self, tmp_path):
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(np.zeros(20_000, dtype=np.uint8)))
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nmode = auto\nn = 1000\n")
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", tmp_path / "e.bits") == 1

    def test_missing_input_is_io_error(self, tmp_path):
        assert run_cli("extract", "--in", tmp_path / "nope.bits", "--out", tmp_path / "e.bits") == 3

    def test_output_over_its_input_matches_a_separate_output(self, tmp_path):
        rng = np.random.default_rng(14)
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 25_000).astype(np.uint8)))
        assert run_cli("extract", "--in", raw, "--out", tmp_path / "ext.bits") == 0
        assert run_cli("extract", "--in", raw, "--out", raw) == 0
        assert raw.read_bytes() == (tmp_path / "ext.bits").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ext.bits", "ext.bits.meta", "raw.bits", "raw.bits.meta"
        ]

    def test_output_over_its_input_records_the_input_digest(self, tmp_path):
        rng = np.random.default_rng(15)
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 25_000).astype(np.uint8)))
        input_sha256 = hashlib.sha256(raw.read_bytes()).hexdigest()
        assert run_cli("extract", "--in", raw, "--out", raw) == 0
        meta = read_sidecar(tmp_path / "raw.bits.meta")
        assert meta["input_sha256"] == input_sha256
        assert meta["sha256"] == hashlib.sha256(raw.read_bytes()).hexdigest()


class TestTestCommand:
    def test_good_bits_pass(self, tmp_path):
        rng = np.random.default_rng(14)
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 2 * 550_000).astype(np.uint8)))
        code = run_cli(
            "test", "--in", raw, "--sequences", 2, "--sequence-length", 550_000,
            "--out-dir", tmp_path,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overall_pass"] is True
        assert report["sequences"] == 2
        table = (tmp_path / "report.tsv").read_text().strip().split("\n")
        assert len(table) == 2 + 188

    @pytest.mark.parametrize("broken", ["no mallopt", "no C library"])
    def test_same_outputs_where_heap_policy_is_skipped(self, tmp_path, monkeypatch, broken):
        raw = tmp_path / "raw.bits"
        rng = np.random.default_rng(15)
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 400_000).astype(np.uint8)))

        def stage(out_dir):
            code = run_cli(
                "test", "--in", raw, "--sequences", 1, "--sequence-length", 400_000,
                "--out-dir", out_dir,
            )
            names = sorted(p.name for p in out_dir.iterdir())
            return code, {name: (out_dir / name).read_bytes() for name in names}

        want = stage(tmp_path / "with")
        opened = []

        def cdll(name, *args, **kwargs):
            opened.append(name)
            if broken == "no C library":
                raise OSError("cannot open the C library")
            return object()  # a C library without mallopt

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert stage(tmp_path / "without") == want
        assert opened == [None]
        assert sorted(want[1]) == ["report.json", "report.tsv", "test.meta"]

    def test_sidecar_records_the_suite(self, tmp_path):
        # a non-standard battery's sidecar names every suite field it ran with
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[suite]\noverlapping_m = 10\nblock_frequency_m = 200\n")
        raw = tmp_path / "raw.bits"
        rng = np.random.default_rng(16)
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 400_000).astype(np.uint8)))
        code = run_cli(
            "test", "--config", cfg, "--in", raw, "--sequences", 1,
            "--sequence-length", 400_000, "--out-dir", tmp_path,
        )
        assert code in (0, 1)  # the sidecar is written whatever the verdict
        meta = read_sidecar(tmp_path / "test.meta")
        assert meta["suite.overlapping_m"] == "10"
        assert meta["suite.block_frequency_m"] == "200"
        params = dataclasses.replace(load_config(cfg).suite, n=400_000, sequences=1)
        assert {k: v for k, v in meta.items() if k.startswith("suite.")} == {
            f"suite.{f.name}": str(getattr(params, f.name))
            for f in dataclasses.fields(params)
            if getattr(params, f.name) is not None
        }

    def test_standard_sidecar_rebuilds_its_suite(self, tmp_path):
        # a length-dependent (None) field is left out, so an INI made of the
        # sidecar's suite entries loads back to the suite the run used
        raw = tmp_path / "raw.bits"
        rng = np.random.default_rng(17)
        write_bits(raw, BitStream.from_array(rng.integers(0, 2, 400_000).astype(np.uint8)))
        code = run_cli(
            "test", "--in", raw, "--sequences", 1, "--sequence-length", 400_000,
            "--out-dir", tmp_path / "run",
        )
        assert code in (0, 1)
        meta = read_sidecar(tmp_path / "run" / "test.meta")
        assert "None" not in meta.values()
        suite = {k[len("suite.") :]: v for k, v in meta.items() if k.startswith("suite.")}
        suite["sequence_length"] = suite.pop("n")
        ini = tmp_path / "rerun.ini"
        ini.write_text("[suite]\n" + "".join(f"{k} = {v}\n" for k, v in suite.items()))
        assert load_config(ini).suite == TestParams(n=400_000, sequences=1)

    def test_all_zeros_fail_with_exit_one(self, tmp_path):
        # 4 sequences so the three-sigma bound is above zero and can bite
        raw = tmp_path / "zeros.bits"
        write_bits(raw, BitStream.from_array(np.zeros(4 * 550_000, dtype=np.uint8)))
        code = run_cli(
            "test", "--in", raw, "--sequences", 4, "--sequence-length", 550_000,
            "--out-dir", tmp_path,
        )
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        freq_row = next(r for r in report["rows"] if r["test"] == "Frequency")
        assert freq_row["passed"] == 0
        assert not freq_row["meets_threshold"]

    def test_insufficient_data_is_config_error(self, tmp_path):
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(np.zeros(1000, dtype=np.uint8)))
        assert run_cli("test", "--in", raw, "--sequences", 2, "--sequence-length", 550_000) == 2

    @pytest.mark.parametrize("flag", ["--sequences", "--sequence-length"])
    def test_bad_geometry_flag_checked_before_reading(self, tmp_path, flag):
        # a usage error (2) wins over the missing input (3)
        assert run_cli("test", "--in", tmp_path / "missing.bits", flag, 0) == 2


class TestReportCommand:
    def test_empty_directory_errors(self, tmp_path):
        assert run_cli("report", "--run", tmp_path) == 3

    def test_full_run_summary(self, tmp_path, capsys):
        run_cli("generate", "--count", 30_000, "--out", tmp_path / "raw.bits", "--seed", 15)
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nn = 1000\nl = 330\n")
        run_cli("extract", "--config", cfg, "--in", tmp_path / "raw.bits",
                "--out", tmp_path / "ext.bits")
        assert run_cli("report", "--run", tmp_path) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "generated stream raw.bits" in summary
        assert "extraction:" in summary
        assert "ratio 0.3300" in summary
        assert "stages not present: test" in summary

    def test_input_named_with_a_line_separator(self, tmp_path):
        # extract records the input's file name in its sidecar, and report
        # must read back what extract wrote
        raw = tmp_path / "raw\u2028x.bits"
        run_cli("generate", "--count", 30_000, "--out", raw, "--seed", 15)
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nn = 1000\nl = 330\n")
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", tmp_path / "ext.bits") == 0
        assert read_sidecar(tmp_path / "ext.bits.meta")["input"] == raw.name
        assert run_cli("report", "--run", tmp_path) == 0
        assert "ratio 0.3300" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "sidecar",
        [
            b"stage=extract\noutput_bits=330\n",
            b"stage=extract\ninput_bits\n",
            b"stage=extract\ninput_bits=many\noutput_bits=330\n",
            b"stage=extract\ninput_bits=0\noutput_bits=0\n",
            b"stage=test\nrows=188\n",
            b"stage=sweep\nswitch_mean_ma=1.2\n",
            b"stage=extract\n\xff\xfe\n",
        ],
    )
    def test_malformed_sidecar_is_file_error(self, tmp_path, capsys, sidecar):
        run_cli("generate", "--count", 1000, "--out", tmp_path / "raw.bits")
        (tmp_path / "ext.bits.meta").write_bytes(sidecar)
        assert run_cli("report", "--run", tmp_path) == 3
        assert "ext.bits.meta" in capsys.readouterr().err

    def test_sweeps_in_subdirectories_are_summarized(self, tmp_path):
        run_cli("generate", "--count", 1000, "--out", tmp_path / "raw.bits")
        for direction in ("reverse", "forward"):
            assert run_cli(
                "sweep", "--direction", direction, "--repeats", 4, "--steps", 100,
                "--out-dir", tmp_path / f"sweep_{direction}",
            ) == 0
        assert run_cli("report", "--run", tmp_path) == 0
        summary = (tmp_path / "summary.txt").read_text()
        sections = summary.split("sweep:\n")[1:]
        assert len(sections) == 2
        # sorted by path: sweep_forward before sweep_reverse
        assert sections[0].startswith("  direction: forward\n  repeats: 4\n  switch current mean")
        assert sections[1].startswith("  direction: reverse\n  repeats: 4\n  switch current mean")

    def test_two_amplitude_run_shows_both_histograms(self, tmp_path):
        for name, amplitude in (("lo.bits", 1.50), ("hi.bits", 1.53)):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(f"[pulse]\namplitude = {amplitude}\n[run]\nseed = 16\n")
            run_cli("generate", "--config", cfg, "--count", 20_000, "--out", tmp_path / name)
        assert run_cli("report", "--run", tmp_path) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "amplitude_ma: 1.5\n" in summary
        assert "amplitude_ma: 1.53" in summary
        means = [
            float(line.split("mean ")[1].split(",")[0])
            for line in summary.splitlines()
            if "H fraction over" in line
        ]
        assert len(means) == 2
        assert min(means) < 0.5 < max(means)


def _command_args(tmp_path):
    # each subcommand's required arguments, with an input that does not exist
    return {
        "generate": ["--count", 8],
        "sweep": ["--repeats", 1],
        "extract": ["--in", tmp_path / "missing.bits"],
        "test": ["--in", tmp_path / "missing.bits"],
    }


class TestUsageErrors:
    @pytest.mark.parametrize(
        "stage, flags",
        [
            ("extract", ["--out", "extracted.bits"]),
            ("test", ["--sequences", 1, "--sequence-length", 1000, "--out-dir", "."]),
        ],
    )
    def test_input_name_with_newline_rejected_before_output(
        self, tmp_path, capsys, monkeypatch, stage, flags
    ):
        # a sidecar value is one line of UTF-8: such a name used to fail only
        # after the stage had written its outputs, leaving them without a sidecar
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text("[extractor]\nn = 1000\nl = 330\n")
        bits = BitStream.from_array(np.random.default_rng(4).integers(0, 2, 25_000))
        # "\udcff" is a file name's byte 0xff, which has no UTF-8 encoding
        for case, (name, message) in enumerate(
            [("raw\n.bits", "holds a newline"), ("raw\udcff.bits", "not valid UTF-8")]
        ):
            raw = tmp_path / name
            write_bits(raw, bits)
            out_dir = tmp_path / f"out{case}"
            out_dir.mkdir()
            monkeypatch.chdir(out_dir)
            assert run_cli(stage, "--config", cfg, "--in", raw, *flags) == 2
            assert message in capsys.readouterr().err
            assert list(out_dir.iterdir()) == []

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[device]\nbogus = 1\n")
        assert run_cli("generate", "--config", cfg, "--count", 8, "--out", tmp_path / "x.bits") == 2

    def test_removed_substep_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "old.ini"
        cfg.write_text("[pulse]\nsubstep = 0.01\n")
        assert run_cli("generate", "--config", cfg, "--count", 8, "--out", tmp_path / "x.bits") == 2
        assert "unknown key [pulse] substep" in capsys.readouterr().err
        assert not (tmp_path / "x.bits").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pulse", "amplitude", "nan"),
            ("device", "lambda0", "nan"),
            ("controller", "gain", "nan"),
            ("device", "i_scale", "inf"),
            ("pulse", "width", "-inf"),
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        code = run_cli("generate", "--config", cfg, "--count", 20_000, "--out", tmp_path / "x.bits")
        assert code == 2
        assert not list(tmp_path.glob("*.bits"))
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("amp_min", ["0", "-1"])
    def test_nonpositive_amp_min_rejected_at_load(self, tmp_path, capsys, amp_min):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[controller]\namp_min = {amp_min}\n")
        code = run_cli("generate", "--config", cfg, "--count", 20_000, "--out", tmp_path / "x.bits")
        assert code == 2
        assert not list(tmp_path.glob("*.bits"))
        assert "[controller]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "sweep", "extract", "test"])
    def test_start_outside_the_clamp_rejected_at_load(self, tmp_path, capsys, command):
        # the loop starts at the pulse amplitude, here above amp_max
        out_dir = tmp_path / "run"
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[pulse]\namplitude = 1.53\n[controller]\namp_max = 1.52\n"
            f"[run]\nout_dir = {out_dir}\n"
        )
        assert run_cli(command, "--config", cfg, *_command_args(tmp_path)[command]) == 2
        assert "[controller]: pulse amplitude 1.53 must lie within" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "ini, flags, name",
        [("seed = -5\n", [], "[run] seed"), ("", ["--seed", -1], "--seed")],
        ids=["ini", "flag"],
    )
    @pytest.mark.parametrize("command", ["generate", "test"])
    def test_negative_seed_rejected_before_output(
        self, tmp_path, capsys, command, ini, flags, name
    ):
        # refused when the config loads, before a stage makes its output directory
        out_dir = tmp_path / "o"
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(f"[run]\nout_dir = {out_dir}\n{ini}")
        args = _command_args(tmp_path)[command]
        assert run_cli(command, "--config", cfg, *args, *flags) == 2
        assert f"config error: {name} must be nonnegative" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "ini", ["[extractor]\nn = 16777217\nl = 330\n", "[extractor]\nepsilon_exponent = 0\n"]
    )
    @pytest.mark.parametrize("command", ["generate", "sweep", "extract", "test"])
    def test_extractor_settings_checked_at_load(self, tmp_path, capsys, ini, command):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini + f"[run]\nout_dir = {tmp_path}\n")
        assert run_cli(command, "--config", cfg, *_command_args(tmp_path)[command]) == 2
        assert "[extractor]" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.bits"))

    @pytest.mark.parametrize("n", [0, -5])
    def test_auto_mode_block_length_checked_at_load(self, tmp_path, capsys, n):
        # auto mode leaves l unset, so no 0 < l < n check bounds n
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[extractor]\nmode = auto\nn = {n}\n[run]\nout_dir = {tmp_path}\n")
        assert run_cli("extract", "--config", cfg, *_command_args(tmp_path)["extract"]) == 2
        assert "config error: [extractor]: n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("seed_hex = zz\n", "bad value for [extractor] seed_hex"),
            # fixed mode: n + l - 1 = 79 bits are needed, 72 given
            ("n = 64\nl = 16\nseed_hex = " + "ab" * 9 + "\n", "seed_hex holds 72 bits, need 79"),
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "sweep", "extract", "test"])
    def test_seed_hex_checked_at_load(self, tmp_path, capsys, ini, message, command):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[extractor]\n" + ini + f"[run]\nout_dir = {tmp_path}\n")
        assert run_cli(command, "--config", cfg, *_command_args(tmp_path)[command]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.bits"))

    def test_short_seed_hex_in_auto_mode_checked_once_l_is_sized(self, tmp_path, capsys):
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(np.random.default_rng(4).integers(0, 2, 20_000)))
        cfg = tmp_path / "auto.ini"
        cfg.write_text("[extractor]\nmode = auto\nn = 1000\nseed_hex = abcd\n")
        assert load_config(cfg).extractor.l is None
        assert run_cli("extract", "--config", cfg, "--in", raw, "--out", tmp_path / "e.bits") == 2
        assert "seed_hex holds 16 bits" in capsys.readouterr().err

    def test_out_of_range_pvalue_is_an_error(self, tmp_path, capsys, monkeypatch):
        from rtdrng.nist import statistical_tests as st

        monkeypatch.setitem(
            st._DISPATCH,
            st.TestId.Frequency,
            lambda bits, params: st.TestResult(st.TestId.Frequency, (1.5,), ("",)),
        )
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(np.random.default_rng(3).integers(0, 2, 1000)))
        code = run_cli(
            "test", "--in", raw, "--sequences", 1, "--sequence-length", 1000,
            "--out-dir", tmp_path,
        )
        assert code == 2
        assert "Frequency produced P-value 1.5 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini",
        [
            "nonoverlapping_m = 0\n",
            "overlapping_m = 63\n",
            "overlapping_m = 70\n",  # used to give P = nan
            "overlapping_m = 2000\n",  # used to raise OverflowError
            "overlapping_m = 20\noverlapping_block_len = 19\n",
            "overlapping_m = 1\noverlapping_block_len = 4000\n",
            "overlapping_m = 1\noverlapping_block_len = 1075\n",  # 2^-1075 underflows
            "overlapping_m = 49\noverlapping_block_len = 49\n",  # one window a block
            "universal_q = -5\n",  # used to fail in a numpy broadcast
            "universal_l = 17\n",  # used to fail only once the battery ran
            "longest_run_m = 9\n",  # used to fail only once the battery ran
        ],
    )
    def test_template_window_checked_at_load(self, tmp_path, capsys, ini):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[suite]\n" + ini)
        # a load-time error wins over the missing input (exit 3)
        assert run_cli("test", "--config", cfg, "--in", tmp_path / "missing.bits") == 2
        assert "config error: [suite]: " in capsys.readouterr().err

    def test_nan_pvalue_is_an_error(self, tmp_path, capsys, monkeypatch):
        from rtdrng.nist import statistical_tests as st

        monkeypatch.setitem(
            st._DISPATCH,
            st.TestId.Frequency,
            lambda bits, params: st.TestResult(st.TestId.Frequency, (math.nan,), ("",)),
        )
        raw = tmp_path / "raw.bits"
        write_bits(raw, BitStream.from_array(np.random.default_rng(3).integers(0, 2, 1000)))
        code = run_cli(
            "test", "--in", raw, "--sequences", 1, "--sequence-length", 1000,
            "--out-dir", tmp_path,
        )
        assert code == 2
        assert "Frequency produced P-value nan outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "field",
        [
            "sequences",
            "block_frequency_m",
            "nonoverlapping_m",
            "nonoverlapping_blocks",
            "overlapping_m",
            "overlapping_block_len",
            "linear_complexity_block",
        ],
    )
    def test_zero_suite_block_size_rejected(self, tmp_path, field):
        # zero sizes used to reach the battery, which divides by them
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[suite]\n{field} = 0\n")
        with pytest.raises(ConfigError, match=rf"\[suite\]: {field} must be at least 1"):
            load_config(cfg)


def _readme_blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_ini_example_loads(tmp_path):
    [text] = _readme_blocks("ini")
    path = tmp_path / "pipeline.ini"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.controller is not None


def test_readme_command_lines_parse():
    lines = [
        line
        for block in _readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("rtdrng ")
    ]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_python_example_runs():
    [code] = _readme_blocks("python")
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=README.parent,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout in ("True\n", "False\n")
