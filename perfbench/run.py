"""rtdrng benchmark: runs one workload through the CLI and reports its metrics.

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's pipeline (one "pass") until
``--seconds`` have passed and reports the end-to-end metrics as medians over
passes.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of ``layers.py``.  Stages run
one at a time, each in a fresh ``worker.py`` process; workloads and output
checks are in ``workloads.py``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("main_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed with the gated metrics; n/a on workloads without the stage, so the
# JSON result cannot carry them
STAGE_METRICS = (
    ("generate_bits_per_s", "bit/s"),
    ("extract_bits_per_s", "bit/s"),
    ("test_s_per_sequence", "s"),
    ("sweep_s", "s"),
    ("failed_ratio", "ratio"),
)
SPAN_FIELDS = ("run_id", "name", "parent", "start", "end", "detail")
# set-up is timed in at least this many fresh processes per run
SETUP_SAMPLES = 5
# a run must end within 180 s; stages still pending at this point are failed
RUN_LIMIT_S = 170.0


class SetupError(RuntimeError):
    """The program cannot be started from this checkout."""


@dataclass
class StageRun:
    stage: workloads.Stage
    run_id: str
    code: int | None = None
    result: dict | None = None
    spans: list | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class PassRun:
    traced: bool
    wall_s: float
    stages: list[StageRun]
    digests: dict[str, str]


def spawn(worker_args: list[str], cwd: Path, result: Path, timeout: float):
    """Run one worker process; returns (exit code or None on timeout, wall s, result).

    The worker's output goes to ``result`` with the suffix ``.log``.
    """
    cmd = [sys.executable, str(WORKER), "--result", str(result), *worker_args]
    log = result.with_suffix(".log")
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        # a blocking wait sees the exit at once; wait(timeout=...) polls every 50 ms
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        code = proc.wait()
        wall = time.perf_counter() - t0
        watchdog.cancel()
        watchdog.join()
    if wall >= timeout and code < 0:
        code = None
    data = json.loads(result.read_text(encoding="utf-8")) if result.exists() else None
    return code, wall, data


def probe(run_dir: Path, index: int, deadline: float) -> dict:
    """Import rtdrng.cli in a fresh process: set-up time and environment."""
    result = run_dir / f"probe{index}.json"
    code, _, data = spawn([], run_dir, result, deadline - time.perf_counter())
    if code != 0 or data is None:
        log = result.with_suffix(".log").read_text(errors="replace")
        raise SetupError(f"cannot start rtdrng from {ROOT}:\n{log}")
    return data


def digest_tree(pass_dir: Path) -> dict[str, str]:
    return {
        path.relative_to(pass_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((pass_dir / "run").rglob("*"))
        if path.is_file()
    }


def run_pass(wl, pass_dir: Path, traced: bool, deadline: float, after_stage=None) -> PassRun:
    pass_dir.mkdir(parents=True)
    (pass_dir / "pipeline.ini").write_text(wl.config, encoding="utf-8")
    runs = [StageRun(stage, f"{pass_dir.name}.{i}.{stage.label}") for i, stage in enumerate(wl.stages)]
    first_start = last_end = None
    for run in runs:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            run.problems.append("not started: run time limit reached")
            continue
        extra = ["--trace", f"{run.run_id}.spans.json", "--run-id", run.run_id] if traced else []
        start = time.perf_counter()
        run.code, wall, run.result = spawn(
            [*extra, "--", *run.stage.argv], pass_dir, pass_dir / f"{run.run_id}.json", remaining
        )
        first_start = start if first_start is None else first_start
        last_end = start + wall
        if after_stage is not None:
            after_stage(run.stage, pass_dir)
    wall = last_end - first_start if first_start is not None else 0.0

    # outputs are checked once the pass is over, outside its timing
    for run in runs:
        if run.problems:
            continue
        if run.code is None:
            run.problems.append("timed out")
        elif run.result is None:
            run.problems.append(f"exit code {run.code} without a worker result")
        else:
            run.problems.extend(run.stage.check(pass_dir, run.code))
            if traced:
                trace = json.loads((pass_dir / f"{run.run_id}.spans.json").read_text(encoding="utf-8"))
                run.spans = trace["spans"]
    return PassRun(traced, wall, runs, digest_tree(pass_dir))


def _owner(wl, artifact: str) -> int:
    """Index of the stage that writes an artifact (the last stage if none claims it)."""
    for i, stage in enumerate(wl.stages):
        if any(artifact.startswith(prefix) for prefix in stage.outputs):
            return i
    return len(wl.stages) - 1


def flag_digest_changes(wl, reference: dict[str, str], run: PassRun, what: str) -> None:
    for artifact in sorted(reference.keys() | run.digests.keys()):
        if reference.get(artifact) != run.digests.get(artifact):
            run.stages[_owner(wl, artifact)].problems.append(f"{artifact}: sha256 differs from {what}")


def source_digest() -> str:
    """Digest of the program source and the workload definitions."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_repeats(wl, passes: list[PassRun], store: Path) -> None:
    """Artifacts of one seed must be byte-identical across every repeat."""
    for later in passes[1:]:
        flag_digest_changes(wl, passes[0].digests, later, "the run's first pass")
    source = source_digest()
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        if earlier["source"] == source:
            flag_digest_changes(wl, earlier["digests"], passes[0], "an earlier run")
    if not any(s.problems for s in passes[0].stages):
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"source": source, "digests": passes[0].digests}), encoding="utf-8")


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _stage_rate(run: PassRun, command: str, invert: bool = False):
    """Work per second of main() for one command's stages in a pass (or s per work)."""
    stages = [s for s in run.stages if s.stage.command == command and s.result is not None]
    if not stages:
        return None
    work = sum(s.stage.work for s in stages)
    seconds = sum(s.result["main_s"] for s in stages)
    return seconds / work if invert else work / seconds


def end_to_end(passes: list[PassRun], setup_samples: list[float], attempted: int, failed: int) -> dict:
    untraced = [p for p in passes if not p.traced]
    results = [s.result for p in untraced for s in p.stages if s.result is not None]
    sweep_times = [
        sum(s.result["main_s"] for s in p.stages if s.stage.command == "sweep" and s.result is not None)
        for p in untraced
        if any(s.stage.command == "sweep" for s in p.stages)
    ]
    return {
        "setup_s": statistics.median(setup_samples),
        "pipeline_s": statistics.median(p.wall_s for p in untraced),
        "main_s": statistics.median(
            sum(s.result["main_s"] for s in p.stages if s.result is not None) for p in untraced
        ),
        "peak_rss_mb": max((r["maxrss_mb"] for r in results), default=None),
        "generate_bits_per_s": _median_or_none(_stage_rate(p, "generate") for p in untraced),
        "extract_bits_per_s": _median_or_none(_stage_rate(p, "extract") for p in untraced),
        "test_s_per_sequence": _median_or_none(_stage_rate(p, "test", invert=True) for p in untraced),
        "sweep_s": _median_or_none(sweep_times),
        "failed_ratio": failed / attempted,
    }


def measure(wl, run_dir: Path, seconds: int, trace: bool, deadline: float, after_stage=None):
    """Warm up, run the passes and time set-up; returns (environment, passes, set-up samples)."""
    # untimed warm-up: compiles bytecode, fills the file cache, records the environment
    env = probe(run_dir, 0, deadline)["env"]
    if wl.make_inputs is not None:
        wl.make_inputs(run_dir)

    if trace:
        passes = [
            run_pass(wl, run_dir / "untraced", False, deadline, after_stage),
            run_pass(wl, run_dir / "traced", True, deadline, after_stage),
        ]
    else:
        passes = []
        start = time.perf_counter()
        while True:
            done = run_pass(wl, run_dir / f"pass{len(passes)}", False, deadline, after_stage)
            passes.append(done)
            now = time.perf_counter()
            if now - start >= seconds or now + done.wall_s > deadline:
                break

    setup_samples = [s.result["import_s"] for p in passes for s in p.stages if s.result is not None]
    while len(setup_samples) < SETUP_SAMPLES and time.perf_counter() < deadline:
        setup_samples.append(probe(run_dir, len(setup_samples) + 1, deadline)["import_s"])
    return env, passes, setup_samples


def run_benchmark(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    work_root: Path,
    smoke: bool = False,
    after_stage=None,
) -> dict:
    """Run one workload and return its record; raises SetupError if rtdrng cannot start."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = workloads.build(name, seed, smoke)
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    run_dir = work_root / f"{tag}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env, passes, setup_samples = measure(wl, run_dir, seconds, trace, deadline, after_stage)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    check_repeats(wl, passes, work_root / "digests" / f"{tag}.json")

    stage_runs = [s for p in passes for s in p.stages]
    attempted = len(stage_runs)
    failed = sum(1 for s in stage_runs if s.problems)
    problems = [f"{s.run_id}: {msg}" for s in stage_runs for msg in s.problems]
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        problems.append(f"environment: {env['blas_threads']} BLAS threads on {env['nproc']} CPUs")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "env": env,
        "passes": [p.wall_s for p in passes],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems,
        "end_to_end": end_to_end(passes, setup_samples, attempted, failed),
    }
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    if trace:
        untraced, traced = passes
        stage_spans = [s for s in traced.stages if s.spans is not None]
        record["per_layer"] = layers.layer_metrics(
            [s.spans for s in stage_spans], traced.wall_s / untraced.wall_s - 1.0
        )
        spans = [[s.run_id, *span] for s in stage_spans for span in s.spans]
        (results / f"{tag}.spans.json").write_text(
            json.dumps({"fields": SPAN_FIELDS, "spans": spans}), encoding="utf-8"
        )
    (results / f"{tag}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    return record


def result_line(record: dict) -> dict:
    """The benchmark's JSON result: the gated metrics of the run's mode."""
    if record["trace"]:
        values, names = record["per_layer"], layers.PER_LAYER
    else:
        values, names = record["end_to_end"], END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def print_report(record: dict) -> None:
    print(
        f"rtdrng benchmark: workload={record['workload']} seed={record['seed']} "
        f"trace={record['trace']} passes={len(record['passes'])} "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    print("environment: " + json.dumps(record["env"], sort_keys=True))
    rows = [(n, u, record["end_to_end"][n]) for n, u in END_TO_END + STAGE_METRICS]
    if record["trace"]:
        rows += [(n, u, record["per_layer"][n]) for n, u in layers.PER_LAYER]
    for name, unit, value in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result_line(record)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rtdrng CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir, args.smoke
        )
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print_report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
