"""Pipeline configuration: a strict INI document with one section per stage.

Unknown sections or keys are rejected so typos in the ~25 numeric knobs fail
fast.  Every key is optional; defaults reproduce the calibrated device and
the standard suite geometry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

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


_SCHEMA = {
    "device": {
        "i_peak": _to_float,
        "i_valley": _to_float,
        "v_peak": _to_float,
        "v_valley": _to_float,
        "g_high": _to_float,
        "lambda0": _to_float,
        "i_scale": _to_float,
        "drift_sigma": _to_float,
        "drift_tau": _to_float,
    },
    "pulse": {
        "amplitude": _to_float,
        "width": _to_float,
        "duty_cycle": _to_float,
        "sample_offset": _to_float,
        "substep": _to_float,
    },
    "controller": {
        "enabled": _to_bool,
        "setpoint": _to_float,
        "window": _to_int,
        "gain": _to_float,
        "amplitude": _to_float,
        "amp_min": _to_float,
        "amp_max": _to_float,
    },
    "extractor": {
        "mode": _to_mode,
        "n": _to_int,
        "l": _to_int,
        "epsilon_exponent": _to_int,
        "seed_hex": str,
    },
    "suite": {
        "sequences": _to_int,
        "sequence_length": _to_int,
        "alpha": _to_float,
        "block_frequency_m": _to_int,
        "longest_run_m": _to_int,
        "nonoverlapping_m": _to_int,
        "nonoverlapping_blocks": _to_int,
        "overlapping_m": _to_int,
        "overlapping_block_len": _to_int,
        "universal_l": _to_int,
        "universal_q": _to_int,
        "approx_entropy_m": _to_int,
        "serial_m": _to_int,
        "linear_complexity_block": _to_int,
    },
    "run": {
        "seed": _to_int,
        "out_dir": str,
    },
}

_DEFAULT_PULSE = {"amplitude": 1.50, "width": 1.0}


@dataclass(frozen=True)
class PipelineConfig:
    device: DeviceParams
    pulse: PulseConfig
    controller: ControllerState | None
    extractor_mode: str
    # block sizes and security exponent; the hash seed is set per run
    extractor: ExtractorConfig
    extractor_seed_hex: str | None
    suite: TestParams
    sequences: int
    seed: int
    out_dir: str


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
    pulse = _construct("pulse", PulseConfig, **{**_DEFAULT_PULSE, **values.get("pulse", {})})

    # a [controller] section turns feedback on unless it says enabled = false
    controller = None
    if "controller" in values:
        ctrl_values = dict(values["controller"])
        if ctrl_values.pop("enabled", True):
            amplitude = ctrl_values.pop("amplitude", pulse.amplitude)
            controller = _construct(
                "controller", default_controller, device, amplitude, **ctrl_values
            )

    ext = dict(values.get("extractor", {}))
    mode = ext.pop("mode", "fixed")
    seed_hex = ext.pop("seed_hex", None)
    extractor = _construct("extractor", ExtractorConfig, **ext)

    suite_values = dict(values.get("suite", {}))
    sequences = suite_values.pop("sequences", 30)
    if sequences < 1:
        raise ConfigError("[suite]: sequences must be at least 1")
    sequence_length = suite_values.pop("sequence_length", 1_000_000)
    suite = _construct("suite", TestParams, n=sequence_length, **suite_values)

    run_values = values.get("run", {})
    return PipelineConfig(
        device=device,
        pulse=pulse,
        controller=controller,
        extractor_mode=mode,
        extractor=extractor,
        extractor_seed_hex=seed_hex,
        suite=suite,
        sequences=sequences,
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


__all__ = ["ConfigError", "PipelineConfig", "load_config", "default_config"]
