"""Run one rtdrng CLI stage in a fresh interpreter and report how it went.

    python3 perfbench/worker.py --result R.json [--trace S.json --run-id ID] -- <rtdrng argv>

The worker imports ``rtdrng.cli`` from the ``src`` directory next to this
benchmark, timing the cold import, then calls ``cli.main(argv)`` exactly as
the ``rtdrng`` console script would.  With no argv after ``--`` it only
imports and reports, which the benchmark uses to time set-up and to record
the environment.

With ``--trace`` the public functions each layer exposes are wrapped where
they are looked up, every call becomes a span (name, start, end, parent,
detail), and the spans are kept in memory and written to the trace file when
the stage ends.  Wrapping changes no argument or result, so artifacts stay
byte-identical to an untraced run.

The result file holds the import and ``main`` times, the exit code, the
process's peak RSS and an environment record.  It is written only when
``main`` returns; a stage that crashes leaves no result behind.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end, detail]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, detail):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else None, clock(), None, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            span[4] = detail(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, detail):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), detail))


def _stream_len(args, result):
    return len(result)


def _first_arg_len(args, result):
    return len(args[0])


def _extract_detail(args, result):
    cfg = args[1]
    return {"in_bits": len(args[0]), "out_bits": len(result), "n": cfg.n, "l": cfg.l}


def _run_test_detail(args, result):
    return {"test": args[0].value, "applicable": bool(result.applicable)}


def _analyze_detail(args, result):
    return {"rows": len(result.rows), "meeting": sum(r.meets_threshold for r in result.rows)}


def install_tracing(tracer: Tracer, cli) -> None:
    """Wrap every patch point; ``cli`` and ``control`` import functions by name."""
    from rtdrng import control
    from rtdrng.bits import BitStream
    from rtdrng.nist import battery

    patches = [
        (cli, "acquire_bits", "pulses.acquire", _stream_len),
        (control, "acquire_bits", "pulses.acquire", _stream_len),
        (cli, "run_closed_loop", "control.loop", lambda args, result: len(result[1])),
        (cli, "sweep_current", "device.sweep", lambda args, result: len(result.currents)),
        (cli, "extract", "extractor.extract", _extract_detail),
        (cli, "min_entropy_estimate", "extractor.min_entropy", _first_arg_len),
        (cli, "derive_seed", "extractor.derive_seed", _first_arg_len),
        (cli, "run_battery", "nist.battery", _first_arg_len),
        (battery, "run_test", "nist.run_test", _run_test_detail),
        (cli, "analyze_suite", "nist.analyze", _analyze_detail),
        (cli, "read_bits", "bits.read", _stream_len),
        (cli, "write_bits", "bits.write", lambda args, result: len(args[1])),
        (BitStream, "to_array", "bits.to_array", _stream_len),
    ]
    for owner, attr, name, detail in patches:
        tracer.patch(owner, attr, name, detail)


def _openblas():
    """(config string, thread count) of the OpenBLAS bundled with numpy, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--run-id", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        from rtdrng import cli
    except ImportError as exc:
        print(f"worker: cannot import rtdrng from {SRC}: {exc}", file=sys.stderr)
        return 70
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"worker: rtdrng resolved to {cli.__file__}, outside {SRC}", file=sys.stderr)
        return 70

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer, cli)
        stage = tracer.wrap(f"cli.{argv[0]}", cli.main, lambda a, r: r)
    else:
        stage = cli.main
    code = 0
    t1 = time.perf_counter()
    if argv:
        code = stage(argv)
    main_s = time.perf_counter() - t1
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        Path(args.trace).write_text(
            json.dumps({"run_id": args.run_id, "spans": tracer.spans}), encoding="utf-8"
        )
    result = {
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "maxrss_mb": maxrss_mb,
        "env": environment(),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
