"""Pipeline configuration: a strict INI document with one section per stage.

Unknown sections or keys are rejected so typos in the 42 keys fail fast.
Each stage section's keys are the fields of its dataclass (DeviceParams,
PulseConfig, ControllerState, ExtractorConfig, TestParams), parsed by their
annotations; a few extra keys configure the run around them.  Every key is
optional; defaults reproduce the calibrated device and the standard suite
geometry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .control import ControllerState, default_controller
from .device import DeviceParams
from .extractor import ExtractorConfig
from .nist.statistical_tests import TestParams
from .pulses import PulseConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _to_int(text: str) -> int:
    return int(text, 0)


def _to_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _to_mode(text: str) -> str:
    mode = text.strip().lower()
    if mode not in ("fixed", "auto"):
        raise ValueError(f"extractor mode must be 'fixed' or 'auto', not {text!r}")
    return mode


_PARSERS = {float: _to_float, float | None: _to_float, int: _to_int, int | None: _to_int}


def _stage_keys(cls, skip=()) -> dict:
    """INI key -> parser for each field of a stage dataclass, by annotation."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        if hints[f.name] not in _PARSERS:
            raise TypeError(f"no INI parser for {cls.__name__}.{f.name}: {hints[f.name]}")
        keys[f.name] = _PARSERS[hints[f.name]]
    return keys


# each section holds its stage's fields; the other keys configure the run
# (sequence_length is TestParams.n, mode = auto sets l = None, seed_hex is the hash seed)
_SCHEMA = {
    "device": _stage_keys(DeviceParams),
    "pulse": _stage_keys(PulseConfig),
    "controller": {"enabled": _to_bool, **_stage_keys(ControllerState)},
    "extractor": {
        "mode": _to_mode,
        **_stage_keys(ExtractorConfig, skip={"seed"}),
        "seed_hex": bytes.fromhex,
    },
    "suite": {
        "sequence_length": _to_int,
        **_stage_keys(TestParams, skip={"n"}),
    },
    "run": {"seed": _to_int, "out_dir": str},
}


@dataclass(frozen=True)
class PipelineConfig:
    """One stage object per INI section, plus the run's seed and output directory.

    controller is None when feedback is off, extractor.l is None under
    mode = auto, and extractor_seed_hex holds the decoded seed_hex bytes.
    """

    device: DeviceParams
    pulse: PulseConfig
    controller: ControllerState | None
    extractor: ExtractorConfig
    extractor_seed_hex: bytes | None
    suite: TestParams
    seed: int
    out_dir: str


def seed_bits(seed_hex: bytes, n: int, l: int) -> np.ndarray:
    """The hash seed for blocks of n -> l bits: the first n + l - 1 bits of seed_hex."""
    need = n + l - 1
    if len(seed_hex) * 8 < need:
        raise ConfigError(f"[extractor] seed_hex holds {len(seed_hex) * 8} bits, need {need}")
    return np.unpackbits(np.frombuffer(seed_hex, dtype=np.uint8))[:need]


def _parse_sections(path) -> dict[str, dict]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
    return values


def _construct(section: str, factory, /, *args, **kwargs):
    # stage objects validate themselves; name the INI section in their errors
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _build(values: dict[str, dict]) -> PipelineConfig:
    device = _construct("device", DeviceParams, **values.get("device", {}))
    pulse = _construct("pulse", PulseConfig, **values.get("pulse", {}))

    # a [controller] section turns feedback on unless it says enabled = false;
    # the command starts from the pulse amplitude unless the section sets one
    controller = None
    if "controller" in values:
        ctrl_values = dict(values["controller"])
        if ctrl_values.pop("enabled", True):
            amplitude = ctrl_values.pop("amplitude", pulse.amplitude)
            controller = _construct(
                "controller", default_controller, device, amplitude, **ctrl_values
            )

    ext = dict(values.get("extractor", {}))
    if ext.pop("mode", "fixed") == "auto":
        ext["l"] = None
    seed_hex = ext.pop("seed_hex", None)
    extractor = _construct("extractor", ExtractorConfig, **ext)
    if seed_hex is not None and extractor.l is not None:
        seed_bits(seed_hex, extractor.n, extractor.l)  # a fixed l fixes the seed length now

    suite_values = dict(values.get("suite", {}))
    if "sequence_length" in suite_values:
        suite_values["n"] = suite_values.pop("sequence_length")
    suite = _construct("suite", TestParams, **suite_values)

    run_values = values.get("run", {})
    return PipelineConfig(
        device=device,
        pulse=pulse,
        controller=controller,
        extractor=extractor,
        extractor_seed_hex=seed_hex,
        suite=suite,
        seed=run_values.get("seed", 0),
        out_dir=run_values.get("out_dir", "."),
    )


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return _build(_parse_sections(path))


def default_config() -> PipelineConfig:
    return _build({})


__all__ = ["ConfigError", "PipelineConfig", "load_config", "default_config", "seed_bits"]
