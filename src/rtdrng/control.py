"""Closed-loop bias control holding the H fraction at a setpoint.

Slow threshold drift shows up as a wandering ones-ratio.  The controller
watches the ratio over a window of pulses and nudges the pulse amplitude
against the error; because the amplitude-to-ratio map is monotone and
memoryless, one clamped accumulating term, next_amplitude, is sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream
from .device import DeviceParams, DeviceState, Streams
from .pulses import PulseConfig, acquire_bits


@dataclass(frozen=True, kw_only=True)
class ControllerState:
    """Setpoint tracking settings: target ratio, window, gain and clamp.

    gain is the amplitude correction (mA) per unit ratio error, and every
    command is clamped to [amp_min, amp_max].  The command starts at the
    pulse amplitude, so the controller holds no command of its own.
    default_controller derives gain and the clamp from the device geometry.
    """

    setpoint: float = 0.5
    window: int = 500
    gain: float
    amp_min: float
    amp_max: float

    def __post_init__(self):
        if not 0.0 < self.setpoint < 1.0:
            raise ValueError("setpoint must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 <= self.gain < math.inf:
            raise ValueError("gain must be nonnegative and finite")
        # the clamp then keeps every command a valid pulse amplitude
        if not 0.0 < self.amp_min < self.amp_max < math.inf:
            raise ValueError("require 0 < amp_min < amp_max < inf")


def default_controller(params: DeviceParams, **overrides) -> ControllerState:
    """Controller with gain a quarter of the bistable current range.

    The command is clamped to the bistable window; `overrides` set any
    ControllerState field, these derived ones included.
    """
    overrides.setdefault("gain", 0.25 * (params.i_peak - params.i_valley))
    overrides.setdefault("amp_min", params.i_valley)
    overrides.setdefault("amp_max", params.i_peak)
    return ControllerState(**overrides)


def _check_start(ctrl: ControllerState, amplitude: float) -> None:
    """Refuse a start command outside the clamp [amp_min, amp_max]."""
    if not ctrl.amp_min <= amplitude <= ctrl.amp_max:
        raise ValueError(f"pulse amplitude {amplitude} must lie within [amp_min, amp_max]")


def next_amplitude(ctrl: ControllerState, amplitude: float, observed_ratio: float) -> float:
    """One clamped proportional-on-error step of the command."""
    if not 0.0 <= observed_ratio <= 1.0:
        raise ValueError("observed_ratio must be in [0, 1]")
    amplitude = amplitude + ctrl.gain * (ctrl.setpoint - observed_ratio)
    return min(max(amplitude, ctrl.amp_min), ctrl.amp_max)


def run_closed_loop(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    ctrl: ControllerState,
    count: int,
    rng: Streams,
) -> tuple[BitStream, np.ndarray, np.ndarray]:
    """Acquire `count` bits, updating the command after each window.

    The command starts at cfg.amplitude.  Returns the bits plus per-window
    diagnostics: the observed ratio and the command in effect for each of
    the ceil(count / window) windows; when the window does not divide
    `count`, the last window is short and its ratio is over the pulses it
    holds.  The thresholds do not depend on the amplitude, so the windows
    are one acquire_bits call of `count` pulses whose reader compares each
    window's slice against the current command, counting its ones as they
    arrive (a window may straddle chunks); the bits equal one acquire_bits
    call per window, and the device state and streams end where
    acquire_bits of `count` pulses leaves them.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_start(ctrl, cfg.amplitude)
    window = ctrl.window
    n_windows = -(-count // window)
    ratios = np.empty(n_windows)
    amplitudes = np.empty(n_windows)
    amplitude = cfg.amplitude
    w = 0
    filled = 0  # pulses read so far in window w
    ones = 0  # ones among them

    def read(thresholds, bits):
        nonlocal amplitude, w, filled, ones
        used = 0
        while used < thresholds.size:
            if filled == 0:
                amplitudes[w] = amplitude
            take = min(thresholds.size - used, window - filled)
            piece = bits[used : used + take]
            np.greater(amplitude, thresholds[used : used + take], out=piece)
            ones += np.count_nonzero(piece)
            used += take
            filled += take
            if filled == window:
                ratio = ones / window
                ratios[w] = ratio
                amplitude = next_amplitude(ctrl, amplitude, ratio)
                w += 1
                filled = ones = 0

    stream = acquire_bits(state, params, cfg, count, rng, read)
    if filled:
        ratios[w] = ones / filled  # the short last window
    return stream, ratios, amplitudes


__all__ = ["ControllerState", "default_controller", "next_amplitude", "run_closed_loop"]
