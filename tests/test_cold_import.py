"""What a stage process pays before cli.main, and that no stage needs scipy.

scipy is a test-only dependency: some tests use it, the package does not.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter in which any import of scipy fails, running the CLI's
# stages in process; it prints each stage's exit code as JSON
_WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
sys.path.insert(0, sys.argv[1])
from rtdrng.cli import main

print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""


def test_cli_import_leaves_scipy_out():
    # a fresh interpreter: this session's own imports must not count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rtdrng.cli; "
        "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_pipeline_runs_with_scipy_refused(tmp_path):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text(
        "[pulse]\namplitude = 1.515\nwidth = 1.0\n"
        "[extractor]\nn = 1000\nl = 330\n"
        f"[run]\nseed = 5\nout_dir = {tmp_path}\n"
    )
    raw, ext = tmp_path / "raw.bits", tmp_path / "ext.bits"
    stages = [
        ["generate", "--config", cfg, "--count", 1_250_000, "--out", raw],
        ["extract", "--config", cfg, "--in", raw, "--out", ext],
        ["test", "--config", cfg, "--in", ext, "--sequences", 1, "--sequence-length", 400_000],
        ["report", "--run", tmp_path],
    ]
    stages = [[str(arg) for arg in argv] for argv in stages]
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(SRC), json.dumps(stages)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    codes = json.loads(out.stdout.splitlines()[-1])
    # test exits 1 when the battery's verdict on one sequence is FAIL, a
    # statistical outcome; any stage that needed scipy would have raised
    assert codes[:2] == [0, 0] and codes[2] in (0, 1) and codes[3] == 0, out.stdout
    assert (tmp_path / "report.json").is_file()


def test_cli_import_leaves_concurrent_futures_out():
    # acquisition's helper thread comes from threading, which the interpreter
    # has loaded anyway; a cold concurrent.futures would add to every stage
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rtdrng.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('concurrent.futures')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
