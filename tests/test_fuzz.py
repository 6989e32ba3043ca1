"""Fuzzing of the program's outside inputs: INI documents, bit files and sidecars.

Every document and file, well formed or not, must map to an exit code of
the CLI (0, 1, 2 or 3), never to a traceback, and no non-finite float may
survive configuration loading.  `report` reads only files, so it exits 0 or 3.
"""

import dataclasses
import math
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rtdrng.cli import main
from rtdrng.config import _SCHEMA, ConfigError, load_config

_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_HEADER = struct.Struct("<8sQ")
_MAGIC = b"RTDBITS1"

# arbitrary text, plus values near the parsers' edges so documents get past
# the first converter often enough to reach validation and the battery
_values = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "0", "1", "-1", "0x10", "1.5", "on", "auto"]),
    st.integers(-(2**40), 2**40).map(str),
    st.floats().map(repr),
)


@st.composite
def ini_documents(draw):
    entries = draw(st.lists(st.tuples(st.sampled_from(_KEYS), _values), max_size=6))
    sections: dict[str, list[str]] = {}
    for (section, key), value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


@st.composite
def bit_files(draw):
    kind = draw(st.sampled_from(["valid", "truncated", "bad_magic", "dirty_pad", "arbitrary"]))
    if kind == "arbitrary":
        return draw(st.binary(max_size=4096))
    n_bits = draw(st.integers(0, 8 * (4096 - _HEADER.size)))
    payload = bytearray(draw(st.binary(min_size=(n_bits + 7) // 8, max_size=(n_bits + 7) // 8)))
    spare = -n_bits % 8
    if payload:
        payload[-1] &= 0xFF << spare & 0xFF
    magic = _MAGIC
    if kind == "bad_magic":
        magic = draw(st.binary(min_size=8, max_size=8).filter(lambda m: m != _MAGIC))
    elif kind == "dirty_pad" and spare:
        payload[-1] |= 1 << draw(st.integers(0, spare - 1))
    data = _HEADER.pack(magic, n_bits) + bytes(payload)
    if kind == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


# the keys report reads, from every stage's sidecar
_SIDECAR_KEYS = [
    "count", "pulse.amplitude", "controller", "device.drift_sigma", "direction", "repeats",
    "switch_mean_ma", "switch_std_ma", "input_bits", "output_bits", "n", "l",
    "epsilon_exponent", "seed_fingerprint", "seed_derived", "overall_pass", "rows",
    "rows_failing", "sequences", "sequence_length",
]


@st.composite
def sidecars(draw, stage):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=512))
    entries = draw(st.lists(st.tuples(st.sampled_from(_SIDECAR_KEYS), _values), max_size=12))
    lines = [f"stage={stage}"] + [f"{key}={value}" for key, value in entries]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_values))
    return "\n".join(lines).encode("utf-8")


def _floats(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))
    elif isinstance(obj, float):
        yield obj


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ini=ini_documents(), bits=bit_files())
# a zero block size once escaped as ZeroDivisionError from the battery
@example(
    ini="[suite]\nsequences = 1\nsequence_length = 1000\nblock_frequency_m = 0\n",
    bits=_HEADER.pack(_MAGIC, 1000) + bytes(range(125)),
)
def test_outside_inputs_map_to_exit_codes(tmp_path, capsys, ini, bits):
    ini_path = tmp_path / "fuzz.ini"
    bits_path = tmp_path / "fuzz.bits"
    ini_path.write_text(ini, encoding="utf-8")
    bits_path.write_bytes(bits)
    try:
        cfg = load_config(ini_path)
    except ConfigError:
        pass
    else:
        assert all(math.isfinite(x) for x in _floats(cfg))
    # --out-dir keeps report files in tmp_path whatever out_dir the document names
    argv = ["test", "--config", str(ini_path), "--in", str(bits_path), "--out-dir", str(tmp_path)]
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    generate=sidecars("generate"),
    other=st.sampled_from(["sweep", "extract", "test"]).flatmap(sidecars),
    bits=bit_files(),
)
# an extract sidecar without input_bits once escaped as a KeyError, and an
# empty generated stream as a ValueError (exit 2)
@example(
    generate=b"stage=generate\n",
    other=b"stage=extract\noutput_bits=330\n",
    bits=_HEADER.pack(_MAGIC, 8) + b"\x0f",
)
@example(generate=b"stage=generate\n", other=b"stage=test\n", bits=_HEADER.pack(_MAGIC, 0))
def test_sidecars_map_to_exit_codes(tmp_path, capsys, generate, other, bits):
    # fixed names, so each example overwrites the last one's files
    (tmp_path / "raw.bits").write_bytes(bits)
    (tmp_path / "raw.bits.meta").write_bytes(generate)
    (tmp_path / "other.meta").write_bytes(other)
    assert main(["report", "--run", str(tmp_path)]) in (0, 3)
    capsys.readouterr()
