"""Plain-text metadata sidecars: one UTF-8 "key=value" line per entry."""

from __future__ import annotations

from pathlib import Path


class SidecarError(ValueError):
    """Malformed or incomplete sidecar file; the message names the file."""


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sidecar(path, entries: dict) -> None:
    """Write entries in insertion order; values must not contain newlines."""
    lines = []
    for key, value in entries.items():
        text = format_value(value)
        if "\n" in text or "=" in key:
            raise ValueError(f"unserializable sidecar entry {key!r}")
        lines.append(f"{key}={text}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


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


__all__ = ["SidecarError", "format_value", "write_sidecar", "read_sidecar"]
