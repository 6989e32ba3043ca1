"""Command-line pipeline: generate, sweep, extract, test, report.

Every file a stage writes goes through ``sidecar.output_file``, so it appears
only once whole and is hashed as it is written.  Each stage but ``report``
then writes a key=value sidecar: what re-runs the stage (an INI seed_hex only
by fingerprint) and the sha256 of every file it wrote; an output of an earlier
run that it did not write again is removed.  No stage holds a whole bit
stream: ``generate`` and ``extract`` pack their bits straight into their file;
``extract``, ``test`` and ``report`` read their input a byte range at a time.
Exit codes: 0 success/pass, 1 statistical failure (suite below threshold,
insufficient extractable entropy), 2 usage or configuration error, 3 I/O or
malformed-file error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bits import BitFileError, BitWriter, read_bits

# kept only so that perfbench/worker.py's patch list resolves: generate and
# extract write through output_file, so the bits.write layer reads 0 until
# that list changes
from .bits import write_bits  # noqa: F401
from .config import ConfigError, PipelineConfig, default_config, load_config, seed_bits
from .control import run_closed_loop
from .device import Branch, DeviceState, _branch_voltage_unchecked, streams, sweep_branches
from .extractor import (
    InsufficientEntropyError,
    choose_block_params,
    derive_seed,
    extract,
    min_entropy_estimate,
)
from .nist.battery import analyze_suite, render_table, report_records, run_battery
from .nist.sequence import battery_sequences
from .pulses import acquire_bits, window_fractions
from .sidecar import SidecarError, output_file, read_sidecar, write_sidecar

# sweep_current is gone and nothing calls this name: it is bound only so that
# perfbench/worker.py's patch list resolves, and goes with the write_bits re-import
sweep_current = None


def _sha256(path) -> str:
    # of an input: every output is hashed as it is written
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _digest_entries(out_dir: Path, digests: dict, optional=()) -> dict:
    # a sha256.<file> entry per file written into out_dir; an optional output
    # not written this run is removed, so no earlier run's file stays unlisted
    for name in optional:
        if name not in digests:
            (out_dir / name).unlink(missing_ok=True)
    return {f"sha256.{name}": digest for name, digest in digests.items()}


def _flatten(prefix: str, obj) -> dict:
    # a None field (a length-dependent default) is left out: no INI key parses "None"
    return {f"{prefix}.{k}": v for k, v in dataclasses.asdict(obj).items() if v is not None}


def _load_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, not {args.seed}")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _file_name(path, what: str, in_key: bool = False) -> str:
    # checked before any output is written: a sidecar line is UTF-8, a value
    # holds no newline and a key no "=" either
    name = Path(path).name
    if "\n" in name:
        raise ConfigError(f"{what} file name {name!r} holds a newline")
    if in_key and "=" in name:
        raise ConfigError(f"{what} file name {name!r} holds '=', which a sidecar key cannot")
    if name.encode("utf-8", "replace").decode("utf-8") != name:
        raise ConfigError(f"{what} file name {name!r} is not valid UTF-8")
    return name


def _out_path(args, cfg: PipelineConfig, default_name: str) -> Path:
    path = Path(args.out) if getattr(args, "out", None) else Path(cfg.out_dir) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# rows of a table formatted and written together
_TABLE_ROWS = 1 << 12


def _write_table(path, header: list[str], line: str, *columns) -> str:
    """Write a TSV table of `columns` through output_file and return its sha256.

    `line` formats one row's cells.  The rows are formatted and written
    _TABLE_ROWS at a time, an array's block converted by tolist, so the
    text held at once does not grow with the row count.
    """
    with output_file(path) as fh:
        fh.write("\t".join(header) + "\n")
        for lo in range(0, len(columns[0]), _TABLE_ROWS):
            block = [column[lo : lo + _TABLE_ROWS] for column in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            fh.write("".join(map(line.format, *block)))
    return fh.sha256


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    control_on = cfg.controller is not None
    if control_on:
        # the window tables' digests are keyed by the output's name
        _file_name(args.out or "raw.bits", "output", in_key=True)
    out = _out_path(args, cfg, "raw.bits")
    tables = [f"{out.name}.ratio.tsv", f"{out.name}.amplitude.tsv"]
    rng = streams(cfg.seed)
    state = DeviceState()
    digests = {}
    with output_file(out) as fh:
        sink = BitWriter(args.count, fh)
        if control_on:
            stream, *traces = run_closed_loop(
                state, cfg.device, cfg.pulse, cfg.controller, args.count, rng, sink
            )
            for name, column, values in zip(tables, ("ratio", "amplitude_ma"), traces):
                digests[name] = _write_table(
                    out.with_name(name), ["window", column], "{}\t{:.6f}\n",
                    range(len(values)), values,
                )
        else:
            stream = acquire_bits(state, cfg.device, cfg.pulse, args.count, rng, sink=sink)
    meta = {"stage": "generate", "count": args.count, "seed": cfg.seed}
    if args.timestamps:
        meta["created"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    meta["controller"] = "on" if control_on else "off"
    meta.update(_flatten("device", cfg.device))
    meta.update(_flatten("pulse", cfg.pulse))
    if control_on:
        meta.update(_flatten("controller", cfg.controller))
    meta["sha256"] = fh.sha256
    meta.update(_digest_entries(out.parent, digests, tables))
    write_sidecar(out.with_name(out.name + ".meta"), meta)
    print(f"wrote {len(stream)} bits to {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    top = 1.2 * cfg.device.i_peak
    start, stop = (0.0, top) if args.direction == "forward" else (top, 0.0)
    if args.start is not None:
        start = args.start
    if args.stop is not None:
        stop = args.stop
    # sweep_branches checks --repeats, --steps, --dt, --start and --stop
    # before it draws anything: nothing is written on a bad flag
    currents, groups = sweep_branches(
        cfg.device, start, stop, args.steps, args.dt, args.repeats, streams(cfg.seed)
    )
    # a point's voltage depends only on its grid current and its branch, so
    # each point's L and H line texts are formatted once
    texts = {}
    for branch in (Branch.L, Branch.H):
        volts = _branch_voltage_unchecked(cfg.device, branch, currents).tolist()
        lines = [f"\t{i:.6f}\t{v:.6f}\n" for i, v in zip(currents.tolist(), volts)]
        texts[branch] = np.array(lines, dtype=object)
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    switches = []
    with output_file(out_dir / "sweeps.tsv") as fh:
        fh.write("sweep\tcurrent_ma\tvoltage_v\n")
        for branches, group_switches in groups:
            # written as each group is made, so the stage holds one group's lines
            rows = np.where(branches, texts[Branch.H], texts[Branch.L]).tolist()
            idx = map(str, range(len(switches), len(switches) + len(rows)))
            for k, row in zip(idx, rows):
                fh.write(k + k.join(row))
            switches.extend(group_switches)
    digests = {"sweeps.tsv": fh.sha256}
    cells = ["" if s is None else f"{s:.6f}" for s in switches]
    digests["switch_currents.tsv"] = _write_table(
        out_dir / "switch_currents.tsv",
        ["sweep", "switch_current_ma"], "{}\t{}\n", range(len(cells)), cells,
    )
    observed = np.array([s for s in switches if s is not None])
    if observed.size:
        counts, edges = np.histogram(observed, bins=args.bins)
        digests["switch_hist.tsv"] = _write_table(
            out_dir / "switch_hist.tsv",
            ["bin_lo_ma", "bin_hi_ma", "count"], "{:.6f}\t{:.6f}\t{}\n",
            edges[:-1], edges[1:], counts,
        )
    meta = {
        "stage": "sweep",
        "direction": args.direction,
        "repeats": args.repeats,
        "steps": args.steps,
        "dt_per_step_ms": args.dt,
        "start_ma": start,
        "stop_ma": stop,
        "bins": args.bins,
        "seed": cfg.seed,
        "switches_recorded": int(observed.size),
    }
    if observed.size:
        meta["switch_mean_ma"] = float(observed.mean())
        meta["switch_std_ma"] = float(observed.std())
    meta.update(_flatten("device", cfg.device))
    meta.update(_digest_entries(out_dir, digests, ["switch_hist.tsv"]))
    write_sidecar(out_dir / "sweep.meta", meta)
    print(f"recorded {observed.size} switches over {args.repeats} sweeps in {out_dir}")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    input_name = _file_name(args.input, "input")
    stream = read_bits(args.input)
    n, l, k = cfg.extractor.n, cfg.extractor.l, cfg.extractor.epsilon_exponent
    h_min = None
    if l is None:
        h_min = min_entropy_estimate(stream)
        try:
            l = choose_block_params(h_min, n, k)
        except InsufficientEntropyError as exc:
            print(f"extract: {exc}", file=sys.stderr)
            return 1
    if cfg.extractor_seed_hex is not None:
        seed = seed_bits(cfg.extractor_seed_hex, n, l)
        seed_derived = False
    else:
        seed = derive_seed(stream, n, l)
        seed_derived = True
    ext_cfg = dataclasses.replace(cfg.extractor, l=l, seed=seed)
    # hashed before the output can replace it: --out may name the input
    input_sha256 = _sha256(args.input)
    out = _out_path(args, cfg, "extracted.bits")
    with output_file(out) as fh:
        out_stream = extract(stream, ext_cfg, BitWriter(len(stream) // n * l, fh))
    meta = {
        "stage": "extract",
        "mode": "fixed" if h_min is None else "auto",
        "n": n,
        "l": l,
        "epsilon_exponent": k,
    }
    if h_min is not None:
        meta["h_min"] = h_min
    meta.update(
        {
            "seed_fingerprint": ext_cfg.seed_fingerprint(),
            "seed_derived": seed_derived,
            "input": input_name,
            "input_sha256": input_sha256,
            "input_bits": len(stream),
            "output_bits": len(out_stream),
            "sha256": fh.sha256,
        }
    )
    write_sidecar(out.with_name(out.name + ".meta"), meta)
    print(f"extracted {len(out_stream)} bits from {len(stream)} into {out}")
    return 0


def cmd_test(args) -> int:
    cfg = _load_config(args)
    input_name = _file_name(args.input, "input")
    sequences = args.sequences if args.sequences is not None else cfg.suite.sequences
    seq_len = args.sequence_length if args.sequence_length is not None else cfg.suite.n
    params = dataclasses.replace(cfg.suite, n=seq_len, sequences=sequences)
    stream = read_bits(args.input)
    need = sequences * seq_len
    if len(stream) < need:
        raise ConfigError(f"input holds {len(stream)} bits, need {need}")
    results = [run_battery(seq, params) for seq in battery_sequences(stream, sequences, seq_len)]
    report = analyze_suite(results, params.alpha)
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in (
        ("report.json", json.dumps(report_records(report), indent=2, sort_keys=True) + "\n"),
        ("report.tsv", render_table(report)),
    ):
        with output_file(out_dir / name) as fh:
            fh.write(text)
        digests[name] = fh.sha256
    failing = sum(1 for row in report.rows if not row.meets_threshold)
    write_sidecar(
        out_dir / "test.meta",
        {
            "stage": "test",
            "input": input_name,
            "input_sha256": _sha256(args.input),
            "rows": len(report.rows),
            "rows_failing": failing,
            "overall_pass": report.overall_pass,
            **_flatten("suite", params),
            **_digest_entries(out_dir, digests),
        },
    )
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(f"suite {verdict}: {len(report.rows) - failing}/{len(report.rows)} rows meet threshold")
    return 0 if report.overall_pass else 1


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    stages = {}
    # a sweep stage may write into its own subdirectory of the run
    for meta_path in sorted([*run_dir.glob("*.meta"), *run_dir.glob("*/sweep.meta")]):
        entries = read_sidecar(meta_path)
        stages.setdefault(entries.get("stage", "?"), []).append((meta_path, entries))
    missing = [stage for stage in ("generate", "extract", "test") if stage not in stages]
    if "generate" not in stages:
        raise FileNotFoundError(
            f"{run_dir}: no pipeline artifacts found; missing stages: {', '.join(missing)}"
        )
    lines = ["run summary", "==========="]
    for meta_path, entries in stages["generate"]:
        bits_path = meta_path.with_name(meta_path.name[: -len(".meta")])
        lines.append(f"generated stream {bits_path.name}:")
        lines.append(f"  pulses: {entries.get('count')}")
        lines.append(f"  amplitude_ma: {entries.get('pulse.amplitude')}")
        lines.append(f"  controller: {entries.get('controller')}")
        lines.append(f"  drift_sigma_ma: {entries.get('device.drift_sigma')}")
        if bits_path.exists():
            stream = read_bits(bits_path)
            if len(stream) == 0:
                raise BitFileError(f"{bits_path}: generated stream holds no bits")
            window = 500
            if len(stream) >= window:
                fractions = window_fractions(stream, window)
                lines.append(
                    f"  H fraction over {fractions.size} windows of {window}: "
                    f"mean {fractions.mean():.4f}, std {fractions.std():.4f}"
                )
                counts, edges = np.histogram(fractions, bins=10, range=(0.0, 1.0))
                for i in range(10):
                    lines.append(f"    [{edges[i]:.2f}, {edges[i + 1]:.2f}): {int(counts[i])}")
            else:
                lines.append(f"  ones fraction: {stream.ones_fraction():.4f}")
    # on failure meta_path is the sidecar whose entries were being read
    try:
        for meta_path, entries in stages.get("sweep", []):
            lines.append("sweep:")
            lines.append(f"  direction: {entries.get('direction')}")
            lines.append(f"  repeats: {entries.get('repeats')}")
            if "switch_mean_ma" in entries:
                lines.append(
                    f"  switch current mean {float(entries['switch_mean_ma']):.4f} mA, "
                    f"std {float(entries['switch_std_ma']):.4f} mA"
                )
        for meta_path, entries in stages.get("extract", []):
            in_bits = int(entries["input_bits"])
            out_bits = int(entries["output_bits"])
            lines.append("extraction:")
            lines.append(f"  {in_bits} -> {out_bits} bits (ratio {out_bits / in_bits:.4f})")
            lines.append(
                f"  n={entries['n']} l={entries['l']} k={entries['epsilon_exponent']} "
                f"seed={entries['seed_fingerprint']} derived={entries['seed_derived']}"
            )
        for meta_path, entries in stages.get("test", []):
            verdict = "PASS" if entries.get("overall_pass") == "1" else "FAIL"
            lines.append("suite:")
            lines.append(
                f"  {verdict}: {int(entries['rows']) - int(entries['rows_failing'])}"
                f"/{entries['rows']} rows meet threshold "
                f"({entries['suite.sequences']} sequences of {entries['suite.n']} bits)"
            )
    except KeyError as exc:
        raise SidecarError(f"{meta_path}: sidecar lacks {exc}") from None
    except (ValueError, ArithmeticError) as exc:
        raise SidecarError(f"{meta_path}: bad sidecar value: {exc}") from None
    if missing:
        lines.append(f"stages not present: {', '.join(missing)}")
    text = "\n".join(lines) + "\n"
    with output_file(run_dir / "summary.txt") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtdrng",
        description="Simulated tunnelling-diode random bit pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, help="override the configured rng seed")

    p = sub.add_parser("generate", help="acquire raw bits from the simulated device")
    common(p)
    p.add_argument("--count", type=int, required=True, help="number of bits")
    p.add_argument("--out", help="output bitstream file")
    p.add_argument(
        "--timestamps", action="store_true", help="record wall-clock time in the sidecar"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="trace current sweeps and the switching histogram")
    common(p)
    p.add_argument("--direction", choices=("forward", "reverse"), default="forward")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--dt", type=float, default=1.0, help="dwell per point, ms")
    p.add_argument("--start", type=float, help="start current, mA")
    p.add_argument("--stop", type=float, help="stop current, mA")
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--out-dir", help="directory for sweep tables")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("extract", help="distill a bitstream by two-universal hashing")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="input bitstream file")
    p.add_argument("--out", help="output bitstream file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("test", help="run the statistical suite on a bitstream")
    common(p)
    p.add_argument("--in", dest="input", required=True, help="input bitstream file")
    p.add_argument("--sequences", type=int, help="number of disjoint sequences")
    p.add_argument("--sequence-length", type=int, help="bits per sequence")
    p.add_argument("--out-dir", help="directory for report files")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("report", help="summarize a pipeline run directory")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(func=cmd_report)

    return parser


# glibc mallopt parameters, and the values main sets them to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_TRIM_BYTES = 256 << 20
_MMAP_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Let the C heap keep what a stage frees, in one arena, where glibc's ``mallopt`` exists.

    The test stage allocates and frees the same arrays for every sequence
    (the FFT's input, output and pocketfft scratch, the walk, the runs).
    By default glibc serves each from a fresh ``mmap`` or trims it off the
    heap when it is freed, so every sequence faults its pages in again
    (about 24 MB per 550k bits).  Arrays under 32 MiB now come from the
    heap, and up to 256 MiB of free heap stays mapped.  Both are set:
    setting either turns off glibc's dynamic mmap threshold, so the trim
    threshold alone would leave every array above 128 KiB a fresh
    ``mmap``.  Every thread allocates from the one main arena: the battery's
    spectral helper would otherwise keep the transform's memory in an arena
    of its own, beside what the calling thread's tests keep in theirs, where
    one heap lets each reuse what the other freed.  The policy is the
    program's, so it is set here and not when the package is imported.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BitFileError, SidecarError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
