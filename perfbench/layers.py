"""Per-layer metrics from the spans a traced pass records.

A span is ``[name, parent, start, end, detail]`` as written by
``worker.Tracer``; ``parent`` indexes the enclosing span of the same stage
process.  A span's self time is its duration minus the time its child spans
cover (children of one span never overlap: the program is single-threaded).

Every metric is emitted on every workload.  A layer a workload does not
reach reads 0 calls and 0 s, which is the prediction for that workload.
"""

from __future__ import annotations

from collections import Counter, defaultdict

TESTS = (
    "Frequency", "BlockFrequency", "CumulativeSums", "Runs", "LongestRun", "Rank", "FFT",
    "NonOverlappingTemplate", "OverlappingTemplate", "Universal", "ApproximateEntropy",
    "RandomExcursions", "RandomExcursionsVariant", "Serial", "LinearComplexity",
)
STAGES = ("generate", "extract", "test", "sweep", "report")
_BITS_HEADER_BYTES = 16
_FLOAT32_BYTES = 4

PER_LAYER = (
    ("pulses.acquire_s", "s"),
    ("pulses.bits_per_s", "bit/s"),
    ("pulses.acquire_calls", "count"),
    ("pulses.us_per_call", "us"),
    ("control.loop_s", "s"),
    ("control.self_s", "s"),
    ("control.windows", "count"),
    ("device.sweep_s", "s"),
    ("device.steps_per_s", "1/s"),
    ("device.sweep_calls", "count"),
    ("extractor.extract_s", "s"),
    ("extractor.in_bits_per_s", "bit/s"),
    ("extractor.yield_ratio", "ratio"),
    ("extractor.min_entropy_s", "s"),
    ("extractor.derive_seed_s", "s"),
    ("extractor.macs", "count"),
    ("extractor.bytes", "B"),
    ("nist.battery_s", "s"),
    ("nist.run_test_calls", "count"),
    *((f"nist.test.{test}_s", "s") for test in TESTS),
    ("nist.analyze_s", "s"),
    ("nist.excursion_applicable_ratio", "ratio"),
    ("nist.rows_meeting_threshold", "count"),
    ("bits.read_s", "s"),
    ("bits.write_s", "s"),
    ("bits.bytes_read", "B"),
    ("bits.bytes_written", "B"),
    ("bits.to_array_s", "s"),
    ("bits.to_array_calls", "count"),
    *((f"cli.{stage}_s", "s") for stage in STAGES),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bit_file_bytes(bits: int) -> int:
    return _BITS_HEADER_BYTES + (bits + 7) // 8


def layer_metrics(stage_spans: list[list[list]], overhead_ratio: float) -> dict[str, float]:
    """Aggregate the spans of every stage process of one traced pass."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls: Counter = Counter()
    details = defaultdict(list)
    test_time = defaultdict(float)
    for spans in stage_spans:
        covered = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, _, start, end, detail), child in zip(spans, covered):
            total[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
            details[name].append(detail)
            if name == "nist.run_test":
                test_time[detail["test"]] += end - start

    acquired = sum(details["pulses.acquire"])
    extract_runs = details["extractor.extract"]
    in_bits = sum(d["in_bits"] for d in extract_runs)
    blocks = [(d["in_bits"] // d["n"], d["n"], d["l"]) for d in extract_runs]
    excursions = [d["applicable"] for d in details["nist.run_test"] if d["test"] == "RandomExcursions"]

    return {
        "pulses.acquire_s": total["pulses.acquire"],
        "pulses.bits_per_s": _ratio(acquired, total["pulses.acquire"]),
        "pulses.acquire_calls": calls["pulses.acquire"],
        "pulses.us_per_call": 1e6 * _ratio(total["pulses.acquire"], calls["pulses.acquire"]),
        "control.loop_s": total["control.loop"],
        "control.self_s": self_time["control.loop"],
        "control.windows": sum(details["control.loop"]),
        "device.sweep_s": total["device.sweep"],
        "device.steps_per_s": _ratio(sum(details["device.sweep"]), total["device.sweep"]),
        "device.sweep_calls": calls["device.sweep"],
        "extractor.extract_s": total["extractor.extract"],
        "extractor.in_bits_per_s": _ratio(in_bits, total["extractor.extract"]),
        "extractor.yield_ratio": _ratio(sum(d["out_bits"] for d in extract_runs), in_bits),
        "extractor.min_entropy_s": total["extractor.min_entropy"],
        "extractor.derive_seed_s": total["extractor.derive_seed"],
        # GF(2) product as one float32 GEMM: blocks x n times n x l
        "extractor.macs": sum(b * n * l for b, n, l in blocks),
        "extractor.bytes": sum(_FLOAT32_BYTES * (b * n + n * l + b * l) for b, n, l in blocks),
        "nist.battery_s": total["nist.battery"],
        "nist.run_test_calls": calls["nist.run_test"],
        **{f"nist.test.{test}_s": test_time[test] for test in TESTS},
        "nist.analyze_s": total["nist.analyze"],
        "nist.excursion_applicable_ratio": _ratio(sum(excursions), len(excursions)),
        "nist.rows_meeting_threshold": sum(d["meeting"] for d in details["nist.analyze"]),
        "bits.read_s": total["bits.read"],
        "bits.write_s": total["bits.write"],
        "bits.bytes_read": sum(_bit_file_bytes(b) for b in details["bits.read"]),
        "bits.bytes_written": sum(_bit_file_bytes(b) for b in details["bits.write"]),
        "bits.to_array_s": total["bits.to_array"],
        "bits.to_array_calls": calls["bits.to_array"],
        **{f"cli.{stage}_s": total[f"cli.{stage}"] for stage in STAGES},
        "cli.self_s": sum(self_time[f"cli.{stage}"] for stage in STAGES),
        "trace.overhead_ratio": overhead_ratio,
    }
