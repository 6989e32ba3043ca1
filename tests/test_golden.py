"""Every artifact of a small pipeline against a committed manifest, golden.sha256.

The pipeline reaches every stage and path through cli.main, at seed 1: an
open-loop generate and a fixed extract; test on the extracted bits at the
standard parameters and on the raw bits with a non-standard suite; a
forward and a reverse sweep; a closed-loop generate on a drifting device
and an auto extract; report.

Bit files and fixed-format tables compare by sha256.  The sidecars and
report.json also hold floats written with repr, whose last digit another
libm or CPU may move, so in those files each float compares by value within
ULPS units in the last place and the rest of the text by the sha256 of the
file with every float replaced by a marker.  A manifest line is a digest and
a path, then, for those files, the floats in the order they appear.  Each
sidecar must also describe the run: every sha256 or sha256.<name> entry
matches its file, and every file but the sidecars and summary.txt is named by
one.

A change that moves an artifact on purpose rewrites the manifest, and says
why, in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
import re
import tempfile
from pathlib import Path

import pytest

from rtdrng.cli import main as cli_main
from rtdrng.sidecar import read_sidecar

MANIFEST = Path(__file__).with_name("golden.sha256")
# repr floats: a fraction or an exponent, never part of a longer word such as a hex digest
FLOAT = re.compile(r"(?<![\w.+-])-?(?:\d+\.\d+(?:e[+-]\d+)?|\d+e[+-]\d+)(?![\w.])")
# a repr float may move by a few units in the last place with the libm or CPU
ULPS = 4

# run in order, each exiting 0; {run} is the run directory, {ini} the INI files' directory
PIPELINE = [
    "generate --seed 1 --count 1300000 --out {run}/raw.bits",
    "extract --seed 1 --in {run}/raw.bits --out {run}/ext.bits",
    "test --seed 1 --in {run}/ext.bits --sequences 1 --sequence-length 400000 --out-dir {run}",
    "test --seed 1 --config {ini}/suite.ini --in {run}/raw.bits --sequences 2"
    " --sequence-length 120000 --out-dir {run}/raw_suite",
    "sweep --seed 1 --repeats 100 --direction forward --out-dir {run}/sweep_forward",
    "sweep --seed 1 --repeats 100 --direction reverse --out-dir {run}/sweep_reverse",
    "generate --seed 1 --config {ini}/closed.ini --count 1000000 --out {run}/closed/raw.bits",
    "extract --seed 1 --config {ini}/closed.ini --in {run}/closed/raw.bits"
    " --out {run}/closed/ext.bits",
    "report --run {run}",
]
INI = {
    "suite.ini": "[suite]\nuniversal_l = 4\nserial_m = 8\n",
    # a 1M-pulse closed loop on a drifting device, auto extraction
    "closed.ini": "[device]\ndrift_sigma = 0.03\n[controller]\nwindow = 500\n"
    "[extractor]\nmode = auto\n",
}


def run_pipeline(root: Path) -> Path:
    """Run PIPELINE under `root` and return its run directory; the INI files stay outside it."""
    ini, run = root / "ini", root / "run"
    ini.mkdir()
    for name, text in INI.items():
        (ini / name).write_text(text)
    for argv in PIPELINE:
        code = cli_main([arg.format(run=run, ini=ini) for arg in argv.split()])
        assert code == 0, f"{argv} exited {code}"
    return run


def manifest_line(run: Path, path: Path) -> str:
    data = path.read_bytes()
    floats = []
    if path.suffix == ".meta" or path.name == "report.json":
        text = data.decode("utf-8")
        floats = FLOAT.findall(text)
        data = FLOAT.sub("<float>", text).encode("utf-8")
    return " ".join([hashlib.sha256(data).hexdigest(), path.relative_to(run).as_posix(), *floats])


def by_path(lines) -> dict[str, str]:
    return {line.split()[1]: line for line in lines}


def manifest(run: Path) -> dict[str, str]:
    return by_path(manifest_line(run, p) for p in sorted(run.rglob("*")) if p.is_file())


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    return abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b)))


def _matches(got: str, want: str) -> bool:
    digest, _, *floats = got.split()
    want_digest, _, *want_floats = want.split()
    return (
        digest == want_digest
        and len(floats) == len(want_floats)
        and all(map(_close, floats, want_floats))
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


def test_every_artifact_matches_the_manifest(run):
    want = by_path(line for line in MANIFEST.read_text().splitlines() if not line.startswith("#"))
    got = manifest(run)
    faults = [f"{name}: not written; manifest: {want[name]}" for name in want.keys() - got.keys()]
    faults += [f"{name}: not in the manifest; got: {got[name]}" for name in got.keys() - want.keys()]
    for name in sorted(want.keys() & got.keys()):
        if not _matches(got[name], want[name]):
            faults.append(f"{name} differs\n  manifest: {want[name]}\n  got:      {got[name]}")
    assert not faults, "\n".join(sorted(faults))


def test_every_file_matches_its_sidecar(run):
    digested, faults = set(), []
    for meta in sorted(run.rglob("*.meta")):
        for key, digest in read_sidecar(meta).items():
            if not key.startswith("sha256"):
                continue
            # "sha256" is the file the sidecar is named for, "sha256.<name>" a sibling
            name = meta.stem if key == "sha256" else key.removeprefix("sha256.")
            path = meta.parent / name
            if name == key or not path.is_file():
                faults.append(f"{meta}: {key} names no file")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                faults.append(f"{meta}: {key} does not match {path}")
            digested.add(path)
    for path in sorted(run.rglob("*")):
        if path.is_file() and path.suffix != ".meta" and path.name != "summary.txt":
            if path not in digested:
                faults.append(f"{path}: digested by no sidecar")
    assert not faults, "\n".join(faults)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        lines = manifest(run_pipeline(Path(root))).values()
    header = f"# tests/test_golden.py's pipeline: sha256, path, then any repr floats ({ULPS} ulps)\n"
    MANIFEST.write_text(header + "".join(f"{line}\n" for line in lines))
    print(f"wrote {len(lines)} lines to {MANIFEST}")
