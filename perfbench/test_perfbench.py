"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(tmp_path: Path, workload: str, trace: int, cwd: Path = run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke", "--work-dir", str(tmp_path),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_the_harness_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(expected)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    # stage metrics are printed too, with "n/a" where the workload has no such stage
    printed = {line.split()[0]: line.split()[1:] for line in lines if line.startswith("  ")}
    for name, unit in run.END_TO_END + run.STAGE_METRICS:
        value, shown_unit = printed[name]
        assert shown_unit == unit
        assert value == "n/a" or math.isfinite(float(value))


def test_truncated_artifact_counts_as_failed_stages(tmp_path):
    def truncate_raw(stage, pass_dir):
        if stage.label == "generate":
            raw = pass_dir / "run" / "raw.bits"
            raw.write_bytes(raw.read_bytes()[:100])

    record = run.run_benchmark(
        "paper_pipeline", 3, 1, False, tmp_path, smoke=True, after_stage=truncate_raw
    )
    # outputs are checked after the pass, so generate's check sees the cut file too,
    # and every later stage reads it
    assert record["attempted"] == 4
    assert record["failed"] == 4
    assert record["end_to_end"]["failed_ratio"] == 1.0
    assert record["correct"] is False
    assert run.result_line(record)["failed"] == 4


def test_changed_digest_fails_the_stage_that_wrote_it():
    wl = workloads.build("drift_feedback", 1, smoke=True)
    stages = [run.StageRun(stage, stage.label) for stage in wl.stages]
    reference = {"run/raw.bits": "a", "run/sweep_reverse/sweeps.tsv": "b"}
    later = run.PassRun(False, 1.0, stages, {"run/raw.bits": "a", "run/sweep_reverse/sweeps.tsv": "c"})
    run.flag_digest_changes(wl, reference, later, "pass 0")
    assert [s.run_id for s in stages if s.problems] == ["sweep_reverse"]


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_standard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
