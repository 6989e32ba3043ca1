"""The benchmark's workloads: CLI stages, their inputs and their output checks.

Each workload is a list of ``rtdrng`` invocations run one after another in a
fresh directory, the way a user's shell would run them.  The seed given to
the benchmark goes into the generated INI file (and, for ``suite_standard``,
into the reference generator that writes the input); the program sees only
those generated files.

Every stage has an output check.  A stage whose exit code, bit counts or
report contents are wrong counts as a failed operation; the checks pin
invariants of the pipeline, never golden digests, so a change that
legitimately alters the bits a seed produces still passes.

``smoke`` selects tiny inputs with the same stages, for the benchmark's own
tests.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SUITE_ROWS = 188
RATIO_TOLERANCE = 0.02
_BITS_HEADER = struct.Struct("<8sQ")
_BITS_MAGIC = b"RTDBITS1"


@dataclass(frozen=True)
class Stage:
    """One CLI invocation.

    ``work`` is the size the stage's end-to-end rate is taken over: raw bits
    for generate, input bits for extract, sequences for test, repeats for
    sweep.  ``outputs`` are the artifact paths (relative to the pass
    directory) the stage writes, used to attribute an artifact whose digest
    changes between repeats.  ``check(pass_dir, exit_code)`` returns the list
    of problems with the stage's outputs.
    """

    label: str
    argv: tuple[str, ...]
    work: int
    outputs: tuple[str, ...]
    check: Callable[[Path, int], list[str]]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    stages: tuple[Stage, ...]
    # writes untimed inputs into the run directory; the passes read them there
    make_inputs: Callable[[Path], None] | None = None


class CheckError(Exception):
    """An artifact is missing or malformed."""


def bit_count(path: Path) -> int:
    """Bit length of an RTDBITS1 file, after checking its header and size."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc.strerror}") from exc
    if len(data) < _BITS_HEADER.size:
        raise CheckError(f"{path.name}: truncated header")
    magic, length = _BITS_HEADER.unpack_from(data)
    if magic != _BITS_MAGIC:
        raise CheckError(f"{path.name}: bad magic")
    if len(data) != _BITS_HEADER.size + (length + 7) // 8:
        raise CheckError(f"{path.name}: size does not match its bit count {length}")
    return length


def write_bit_file(path: Path, bits) -> None:
    """Write a 0/1 uint8 array as an RTDBITS1 file (the program's format)."""
    import numpy as np

    with open(path, "wb") as fh:
        fh.write(_BITS_HEADER.pack(_BITS_MAGIC, bits.size))
        fh.write(np.packbits(bits).tobytes())


def read_meta(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc.strerror}") from exc
    return dict(line.partition("=")[::2] for line in text.splitlines() if line)


def read_tsv_column(path: Path, column: int) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc.strerror}") from exc
    return [line.split("\t")[column] for line in lines[1:]]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checked(fn):
    """Turn a check that raises CheckError on its first problem into a list."""

    def check(pass_dir: Path, code: int) -> list[str]:
        try:
            return fn(pass_dir, code) or []
        except CheckError as exc:
            return [str(exc)]
        except (ValueError, IndexError) as exc:
            return [f"malformed output: {exc}"]

    return check


def _expect_code(code: int, expected: int) -> None:
    if code != expected:
        raise CheckError(f"exit code {code}, expected {expected}")


def _check_bits(pass_dir: Path, rel: str, expected: int) -> None:
    path = pass_dir / rel
    got = bit_count(path)
    if got != expected:
        raise CheckError(f"{rel}: {got} bits, expected {expected}")
    meta = read_meta(path.with_name(path.name + ".meta"))
    if meta.get("sha256") != _sha256(path):
        raise CheckError(f"{rel}: sidecar sha256 does not match the file")


def generate_check(rel: str, count: int, windows: int | None = None):
    @_checked
    def check(pass_dir, code):
        _expect_code(code, 0)
        _check_bits(pass_dir, rel, count)
        if windows is None:
            return
        ratios = [float(r) for r in read_tsv_column(pass_dir / (rel + ".ratio.tsv"), 1)]
        if len(ratios) != windows:
            raise CheckError(f"{len(ratios)} ratio rows, expected {windows}")
        mean = sum(ratios) / len(ratios)
        if abs(mean - 0.5) >= RATIO_TOLERANCE:
            raise CheckError(f"mean window ratio {mean:.4f} is {RATIO_TOLERANCE} or more from 0.5")

    return check


def extract_check(rel: str, blocks: int, fixed_l: int | None = None):
    """Output must be blocks * l bits, with l fixed or read from the sidecar."""

    @_checked
    def check(pass_dir, code):
        _expect_code(code, 0)
        meta = read_meta(pass_dir / (rel + ".meta"))
        l = fixed_l if fixed_l is not None else int(meta.get("l", 0))
        _check_bits(pass_dir, rel, blocks * l)

    return check


def suite_check(out_dir: str):
    """188 rows, each uniformity P-value in [0, 1] or null, exit code by verdict."""

    @_checked
    def check(pass_dir, code):
        try:
            report = json.loads((pass_dir / out_dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckError(f"report.json unreadable: {exc}") from exc
        rows = report.get("rows", [])
        if len(rows) != SUITE_ROWS:
            raise CheckError(f"report.json holds {len(rows)} rows, expected {SUITE_ROWS}")
        for row in rows:
            p = row.get("uniformity_p")
            if p is not None and not 0.0 <= p <= 1.0:
                raise CheckError(f"{row.get('test')} {row.get('label')}: uniformity_p {p}")
        # the verdict depends on the seed, so it is a count, not a failure
        _expect_code(code, 0 if report.get("overall_pass") else 1)

    return check


def sweep_check(out_dir: str, repeats: int):
    @_checked
    def check(pass_dir, code):
        _expect_code(code, 0)
        meta = read_meta(pass_dir / out_dir / "sweep.meta")
        switches = [s for s in read_tsv_column(pass_dir / out_dir / "switch_currents.tsv", 1) if s]
        if int(meta.get("switches_recorded", -1)) != repeats or len(switches) != repeats:
            raise CheckError(f"{len(switches)} switches recorded over {repeats} repeats")

    return check


@_checked
def report_check(pass_dir, code):
    _expect_code(code, 0)
    try:
        text = (pass_dir / "run" / "summary.txt").read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"summary.txt: {exc.strerror}") from exc
    if not text.startswith("run summary"):
        raise CheckError("summary.txt does not start with the run summary header")


def _report_stage() -> Stage:
    return Stage("report", ("report", "--run", "run"), 0, ("run/summary.txt",), report_check)


def paper_pipeline(seed: int, smoke: bool) -> Workload:
    """The paper's experiment: 50M raw bits -> 16.5M extracted -> 30 x 550k suite.

    nist does most of the work and pulses runs as one bulk acquisition;
    control and device sweeps are absent, so this is their bypass.
    """
    raw, sequences, seq_len = (1_300_000, 1, 400_000) if smoke else (50_000_000, 30, 550_000)
    n, l = 1000, 330
    blocks = raw // n
    config = (
        "[pulse]\namplitude = 1.515\nwidth = 1.0\n"
        f"[extractor]\nmode = fixed\nn = {n}\nl = {l}\n"
        f"[run]\nseed = {seed}\nout_dir = run\n"
    )
    ini = ("--config", "pipeline.ini")
    stages = (
        Stage(
            "generate",
            ("generate", *ini, "--count", str(raw), "--out", "run/raw.bits"),
            raw,
            ("run/raw.bits",),
            generate_check("run/raw.bits", raw),
        ),
        Stage(
            "extract",
            ("extract", *ini, "--in", "run/raw.bits", "--out", "run/extracted.bits"),
            raw,
            ("run/extracted.bits",),
            extract_check("run/extracted.bits", blocks, l),
        ),
        Stage(
            "test",
            (
                "test", *ini, "--in", "run/extracted.bits", "--sequences", str(sequences),
                "--sequence-length", str(seq_len), "--out-dir", "run",
            ),
            sequences,
            ("run/report.", "run/test.meta"),
            suite_check("run"),
        ),
        _report_stage(),
    )
    return Workload("paper_pipeline", config, stages)


def drift_feedback(seed: int, smoke: bool) -> Workload:
    """A drifting device (sigma 0.03 mA) held at 0.5 by the controller.

    33000 per-window acquisitions exercise control and per-call pulses, auto
    extraction hashes to ~3x the output width of paper_pipeline, and the two
    sweeps exercise device; nist is absent, so this is its bypass.
    """
    # smoke keeps 8000 windows: the mean-ratio criterion needs thousands to settle
    count, repeats = (4_000_000, 20) if smoke else (16_500_000, 1000)
    window, n = 500, 1000
    config = (
        "[device]\ndrift_sigma = 0.03\n"
        "[pulse]\namplitude = 1.515\nwidth = 1.0\n"
        f"[controller]\nwindow = {window}\n"
        f"[extractor]\nmode = auto\nn = {n}\n"
        f"[run]\nseed = {seed}\nout_dir = run\n"
    )
    ini = ("--config", "pipeline.ini")
    sweeps = tuple(
        Stage(
            f"sweep_{direction}",
            (
                "sweep", *ini, "--direction", direction, "--repeats", str(repeats),
                "--out-dir", f"run/sweep_{direction}",
            ),
            repeats,
            (f"run/sweep_{direction}/",),
            sweep_check(f"run/sweep_{direction}", repeats),
        )
        for direction in ("forward", "reverse")
    )
    stages = (
        Stage(
            "generate",
            ("generate", *ini, "--count", str(count), "--out", "run/raw.bits"),
            count,
            ("run/raw.bits",),
            generate_check("run/raw.bits", count, windows=count // window),
        ),
        Stage(
            "extract",
            ("extract", *ini, "--in", "run/raw.bits", "--out", "run/extracted.bits"),
            count,
            ("run/extracted.bits",),
            extract_check("run/extracted.bits", count // n),
        ),
        *sweeps,
        _report_stage(),
    )
    return Workload("drift_feedback", config, stages)


def suite_standard(seed: int, smoke: bool) -> Workload:
    """The battery alone on reference-PRNG bits in 1M-bit sequences.

    Only nist and bits run; 1M bits take branches 550k does not (longest-run
    M=10000, universal K), and no device change can move the input.
    """
    sequences, seq_len = (1, 400_000) if smoke else (6, 1_000_000)

    def make_inputs(run_dir: Path) -> None:
        import numpy as np

        bits = np.random.default_rng(seed).integers(0, 2, sequences * seq_len, dtype=np.uint8)
        write_bit_file(run_dir / "input.bits", bits)

    stage = Stage(
        "test",
        (
            "test", "--config", "pipeline.ini", "--in", "../input.bits",
            "--sequences", str(sequences), "--sequence-length", str(seq_len),
            "--out-dir", "run",
        ),
        sequences,
        ("run/report.", "run/test.meta"),
        suite_check("run"),
    )
    config = f"[run]\nseed = {seed}\nout_dir = run\n"
    return Workload("suite_standard", config, (stage,), make_inputs)


_BUILDERS = {w.__name__: w for w in (paper_pipeline, drift_feedback, suite_standard)}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return _BUILDERS[name](seed, smoke)
