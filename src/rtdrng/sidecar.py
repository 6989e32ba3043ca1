"""How a stage writes a file: through ``output_file``, then lists it in a sidecar.

``output_file`` writes a temporary sibling that replaces its path only when
the block succeeds, and hashes the bytes as they go out.  A sidecar is one
UTF-8 "key=value" line per entry, written the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path


class SidecarError(ValueError):
    """Malformed or incomplete sidecar file; the message names the file."""


class _HashedFile:
    """A binary file that hashes what it writes; str is written as UTF-8."""

    def __init__(self, file):
        self._file, self.name, self.flush = file, file.name, file.flush
        self._digest = hashlib.sha256()

    def write(self, data) -> None:
        data = data.encode("utf-8") if isinstance(data, str) else data
        self._digest.update(data)
        self._file.write(data)

    @property
    def sha256(self) -> str:
        return self._digest.hexdigest()


@contextlib.contextmanager
def output_file(path):
    """A _HashedFile on a temporary sibling that replaces `path` on success, or is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield _HashedFile(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sidecar(path, entries: dict) -> None:
    """Write entries in insertion order; a key holds no "=" or newline, a value no newline."""
    lines = []
    for key, value in entries.items():
        text = format_value(value)
        if "\n" in text or "\n" in key or "=" in key:
            raise ValueError(f"unserializable sidecar entry {key!r}")
        lines.append(f"{key}={text}")
    with output_file(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_sidecar(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SidecarError(f"{path}: {exc}") from None
    # lines end at "\n" only, the one character a value cannot hold
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        if "=" not in line:
            raise SidecarError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


__all__ = ["SidecarError", "format_value", "output_file", "write_sidecar", "read_sidecar"]
