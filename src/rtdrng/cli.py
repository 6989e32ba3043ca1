"""Command-line pipeline: generate, sweep, extract, test, report.

Every output file gets a key=value metadata sidecar sufficient to re-run its
producing stage.  Exit codes: 0 success/pass, 1 statistical failure (suite
below threshold, insufficient extractable entropy), 2 usage or configuration
error, 3 I/O or malformed-file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bits import BitFileError, BitStream, read_bits, write_bits
from .config import ConfigError, PipelineConfig, default_config, load_config
from .control import run_closed_loop
from .device import DeviceState, sweep_current
from .extractor import (
    InsufficientEntropyError,
    choose_block_params,
    derive_seed,
    extract,
    min_entropy_estimate,
)
from .nist.battery import analyze_suite, render_table, report_records, run_battery
from .pulses import acquire_bits, window_fractions
from .sidecar import SidecarError, read_sidecar, write_sidecar


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _flatten(prefix: str, obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None or isinstance(value, np.ndarray):
            continue
        out[f"{prefix}.{f.name}"] = value
    return out


def _load_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_path(args, cfg: PipelineConfig, default_name: str) -> Path:
    path = Path(args.out) if getattr(args, "out", None) else Path(cfg.out_dir) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_tsv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(cell) for cell in row) + "\n")


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    out = _out_path(args, cfg, "raw.bits")
    rng = np.random.default_rng(cfg.seed)
    state = DeviceState()
    control_on = cfg.controller is not None
    if control_on:
        windows = -(-args.count // cfg.controller.window)
        stream, ratios, amplitudes = run_closed_loop(
            state, cfg.device, cfg.pulse, cfg.controller, windows, rng
        )
        if len(stream) > args.count:
            stream = BitStream.from_array(stream.to_array()[: args.count])
        _write_tsv(
            out.with_name(out.name + ".ratio.tsv"),
            ["window", "ratio"],
            ((w, f"{ratios[w]:.6f}") for w in range(len(ratios))),
        )
        _write_tsv(
            out.with_name(out.name + ".amplitude.tsv"),
            ["window", "amplitude_ma"],
            ((w, f"{amplitudes[w]:.6f}") for w in range(len(amplitudes))),
        )
    else:
        stream = acquire_bits(state, cfg.device, cfg.pulse, args.count, rng)
    write_bits(out, stream)
    meta = {"stage": "generate", "count": args.count, "seed": cfg.seed}
    if args.timestamps:
        meta["created"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    meta["controller"] = "on" if control_on else "off"
    meta.update(_flatten("device", cfg.device))
    meta.update(_flatten("pulse", cfg.pulse))
    if control_on:
        meta.update(_flatten("controller", cfg.controller))
    meta["sha256"] = _sha256(out)
    write_sidecar(out.with_name(out.name + ".meta"), meta)
    print(f"wrote {len(stream)} bits to {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if args.repeats < 1:
        raise ConfigError("--repeats must be at least 1")
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    if not args.dt > 0.0:
        raise ConfigError("--dt must be positive")
    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    top = 1.2 * cfg.device.i_peak
    start, stop = (0.0, top) if args.direction == "forward" else (top, 0.0)
    if args.start is not None:
        start = args.start
    if args.stop is not None:
        stop = args.stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("--start and --stop must be finite")
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    state = DeviceState()
    blocks = []
    current_cells = None
    switches = []
    for sweep_idx in range(args.repeats):
        trace = sweep_current(
            cfg.device, start, stop, args.steps, args.dt, rng, state=state
        )
        # every sweep runs the same current grid
        if current_cells is None:
            current_cells = [f"\t{i:.6f}\t" for i in trace.currents.tolist()]
        idx = str(sweep_idx)
        blocks.append(
            "".join(
                f"{idx}{cell}{v:.6f}\n" for cell, v in zip(current_cells, trace.voltages.tolist())
            )
        )
        switches.append(trace.switch_current)
    with open(out_dir / "sweeps.tsv", "w", encoding="utf-8") as fh:
        fh.write("sweep\tcurrent_ma\tvoltage_v\n")
        fh.writelines(blocks)
    _write_tsv(
        out_dir / "switch_currents.tsv",
        ["sweep", "switch_current_ma"],
        (
            (idx, "" if s is None else f"{s:.6f}")
            for idx, s in enumerate(switches)
        ),
    )
    observed = np.array([s for s in switches if s is not None])
    if observed.size:
        counts, edges = np.histogram(observed, bins=args.bins)
        _write_tsv(
            out_dir / "switch_hist.tsv",
            ["bin_lo_ma", "bin_hi_ma", "count"],
            (
                (f"{edges[i]:.6f}", f"{edges[i + 1]:.6f}", int(counts[i]))
                for i in range(counts.size)
            ),
        )
    meta = {
        "stage": "sweep",
        "direction": args.direction,
        "repeats": args.repeats,
        "steps": args.steps,
        "dt_per_step_ms": args.dt,
        "start_ma": start,
        "stop_ma": stop,
        "seed": cfg.seed,
        "switches_recorded": int(observed.size),
    }
    if observed.size:
        meta["switch_mean_ma"] = float(observed.mean())
        meta["switch_std_ma"] = float(observed.std())
    meta.update(_flatten("device", cfg.device))
    write_sidecar(out_dir / "sweep.meta", meta)
    print(f"recorded {observed.size} switches over {args.repeats} sweeps in {out_dir}")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    stream = read_bits(args.input)
    n = cfg.extractor.n
    k = cfg.extractor.epsilon_exponent
    h_min = None
    if cfg.extractor_mode == "auto":
        h_min = min_entropy_estimate(stream)
        try:
            l = choose_block_params(h_min, n, k)
        except InsufficientEntropyError as exc:
            print(f"extract: {exc}", file=sys.stderr)
            return 1
    else:
        l = cfg.extractor.l
    seed_len = n + l - 1
    if cfg.extractor_seed_hex is not None:
        raw = bytes.fromhex(cfg.extractor_seed_hex)
        if len(raw) * 8 < seed_len:
            raise ConfigError(
                f"[extractor] seed_hex holds {len(raw) * 8} bits, need {seed_len}"
            )
        seed = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:seed_len]
        seed_derived = False
    else:
        seed = derive_seed(stream, n, l)
        seed_derived = True
    ext_cfg = dataclasses.replace(cfg.extractor, l=l, seed=seed)
    out_stream = extract(stream, ext_cfg)
    out = _out_path(args, cfg, "extracted.bits")
    write_bits(out, out_stream)
    meta = {
        "stage": "extract",
        "mode": cfg.extractor_mode,
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
            "input": Path(args.input).name,
            "input_sha256": _sha256(args.input),
            "input_bits": len(stream),
            "output_bits": len(out_stream),
            "sha256": _sha256(out),
        }
    )
    write_sidecar(out.with_name(out.name + ".meta"), meta)
    print(f"extracted {len(out_stream)} bits from {len(stream)} into {out}")
    return 0


def cmd_test(args) -> int:
    cfg = _load_config(args)
    sequences = args.sequences if args.sequences is not None else cfg.sequences
    seq_len = args.sequence_length if args.sequence_length is not None else cfg.suite.n
    if sequences < 1 or seq_len < 1:
        raise ConfigError("sequences and sequence length must be positive")
    params = dataclasses.replace(cfg.suite, n=seq_len)
    stream = read_bits(args.input)
    need = sequences * seq_len
    if len(stream) < need:
        raise ConfigError(f"input holds {len(stream)} bits, need {need}")
    arr = stream.to_array()
    results = [
        run_battery(arr[s * seq_len : (s + 1) * seq_len], params) for s in range(sequences)
    ]
    report = analyze_suite(results, params.alpha)
    out_dir = Path(args.out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.tsv").write_text(render_table(report), encoding="utf-8")
    (out_dir / "report.json").write_text(
        json.dumps(report_records(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    failing = sum(1 for row in report.rows if not row.meets_threshold)
    write_sidecar(
        out_dir / "test.meta",
        {
            "stage": "test",
            "input": Path(args.input).name,
            "input_sha256": _sha256(args.input),
            "sequences": sequences,
            "sequence_length": seq_len,
            "alpha": params.alpha,
            "rows": len(report.rows),
            "rows_failing": failing,
            "overall_pass": report.overall_pass,
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
    for meta_path in sorted(run_dir.glob("*.meta")):
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
                f"({entries['sequences']} sequences of {entries['sequence_length']} bits)"
            )
    except KeyError as exc:
        raise SidecarError(f"{meta_path}: sidecar lacks {exc}") from None
    except (ValueError, ArithmeticError) as exc:
        raise SidecarError(f"{meta_path}: bad sidecar value: {exc}") from None
    if missing:
        lines.append(f"stages not present: {', '.join(missing)}")
    text = "\n".join(lines) + "\n"
    (run_dir / "summary.txt").write_text(text, encoding="utf-8")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
