import dataclasses
import json
import math

import numpy as np
import pytest

from rtdrng.bits import BitStream, read_bits, write_bits
from rtdrng.cli import main
from rtdrng.config import _SCHEMA, ConfigError, _stage_keys, default_config, load_config
from rtdrng.sidecar import read_sidecar, write_sidecar


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
        assert cfg.controller.amplitude == 1.53  # inherits the pulse amplitude
        assert cfg.extractor.l is None  # auto mode sizes l per run
        assert cfg.suite.sequences == 4
        assert cfg.suite.n == 550_000
        assert cfg.seed == 99

    def test_controller_can_be_disabled(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[controller]\nenabled = false\nsetpoint = 0.4\n")
        assert load_config(path).controller is None

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
    ("pulse", "sample_offset"): "0.5",
    ("pulse", "substep"): "0.002",
    ("controller", "enabled"): "false",
    ("controller", "amplitude"): "1.45",
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
    ("controller", "enabled"): lambda cfg: cfg.controller is not None,
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


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.meta"
        write_sidecar(path, {"stage": "generate", "count": 8, "ratio": 0.5, "flag": True})
        entries = read_sidecar(path)
        assert entries["stage"] == "generate"
        assert entries["count"] == "8"
        assert entries["ratio"] == "0.5"
        assert entries["flag"] == "1"


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

    def test_bad_count(self, tmp_path):
        assert run_cli("generate", "--count", 0, "--out", tmp_path / "x.bits") == 2


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
    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[device]\nbogus = 1\n")
        assert run_cli("generate", "--config", cfg, "--count", 8, "--out", tmp_path / "x.bits") == 2

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
