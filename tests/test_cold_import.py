"""What a stage process pays before cli.main: the modules `import rtdrng.cli` loads."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_scipy_signal_out():
    # a fresh interpreter: this session's own imports must not count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rtdrng.cli; "
        "print(' '.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'signal']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
