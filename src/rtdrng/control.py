"""Closed-loop bias control holding the H fraction at a setpoint.

Slow threshold drift shows up as a wandering ones-ratio.  The controller
watches the ratio over a window of pulses and nudges the pulse amplitude
against the error; because the amplitude-to-ratio map is monotone and
memoryless, one clamped accumulating term, next_amplitude, is sufficient.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .bits import BitStream, _Packer
from .device import Branch, DeviceParams, DeviceState, Streams
from .pulses import PulseConfig, _threshold_chunks

# perfbench/worker.py patches control.acquire_bits to count per-window calls
from .pulses import acquire_bits  # noqa: F401


@dataclass(frozen=True)
class ControllerState:
    """Setpoint tracking state: target ratio, window, gain and command.

    gain is the amplitude correction (mA) per unit ratio error; amplitude is
    the current command, clamped to [amp_min, amp_max].  default_controller
    derives gain and the clamp from the device geometry.
    """

    amplitude: float
    _: KW_ONLY
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
        if not self.amp_min <= self.amplitude <= self.amp_max:
            raise ValueError("amplitude must lie within [amp_min, amp_max]")


def default_controller(params: DeviceParams, amplitude: float, **overrides) -> ControllerState:
    """Controller with gain a quarter of the bistable current range.

    The command is clamped to the bistable window; `overrides` set any
    ControllerState field, these derived ones included.
    """
    overrides.setdefault("gain", 0.25 * (params.i_peak - params.i_valley))
    overrides.setdefault("amp_min", params.i_valley)
    overrides.setdefault("amp_max", params.i_peak)
    return ControllerState(amplitude, **overrides)


def next_amplitude(ctrl: ControllerState, amplitude: float, observed_ratio: float) -> float:
    """One clamped proportional-on-error step of the command; ctrl gives only the settings."""
    if not 0.0 <= observed_ratio <= 1.0:
        raise ValueError("observed_ratio must be in [0, 1]")
    amplitude = amplitude + ctrl.gain * (ctrl.setpoint - observed_ratio)
    return min(max(amplitude, ctrl.amp_min), ctrl.amp_max)


def run_closed_loop(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    ctrl: ControllerState,
    n_windows: int,
    rng: Streams,
) -> tuple[BitStream, np.ndarray, np.ndarray]:
    """Alternate window acquisitions with controller updates.

    Returns the concatenated bits plus per-window diagnostics: the observed
    ratio and the amplitude command in effect for each window.  The pulse
    thresholds do not depend on the amplitude, so they are drawn in bulk
    and each window only compares its slice against the current command;
    the bits equal a loop of acquire_bits calls, one per window.  A window's
    ones are counted as its slices arrive, since a window may straddle
    threshold chunks, and each chunk's bits are packed once read, so only
    the packed bits and the per-window diagnostics grow with n_windows.
    The device state is advanced in place.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be at least 1")
    window = ctrl.window
    out = _Packer(n_windows * window)
    ratios = np.empty(n_windows)
    amplitudes = np.empty(n_windows)
    amplitude = ctrl.amplitude
    w = 0
    filled = 0  # pulses read so far in window w
    ones = 0  # ones among them
    with closing(_threshold_chunks(state, params, cfg, n_windows * window, rng)) as chunks:
        for thresholds, above in chunks:
            used = 0
            while used < thresholds.size:
                if filled == 0:
                    amplitudes[w] = amplitude
                take = min(thresholds.size - used, window - filled)
                piece = above[used : used + take]
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
            out.append(above)
    state.branch = Branch.H if above[-1] else Branch.L
    return out.stream(), ratios, amplitudes


__all__ = ["ControllerState", "default_controller", "next_amplitude", "run_closed_loop"]
