"""Closed-loop bias control holding the H fraction at a setpoint.

Slow threshold drift shows up as a wandering ones-ratio.  The controller
watches the ratio over a window of pulses and nudges the pulse amplitude
against the error; because the amplitude-to-ratio map is monotone and
memoryless, a single clamped accumulating term is sufficient.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .bits import BitStream
from .device import Branch, DeviceParams, DeviceState
from .pulses import PulseConfig, _check_amplitude, _threshold_chunks

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
        if not self.amp_min < self.amp_max:
            raise ValueError("require amp_min < amp_max")
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


def _next_amplitude(ctrl: ControllerState, amplitude: float, observed_ratio: float) -> float:
    # controller_update's rule on a bare amplitude, for loops that skip the
    # per-window ControllerState
    if not 0.0 <= observed_ratio <= 1.0:
        raise ValueError("observed_ratio must be in [0, 1]")
    amplitude = amplitude + ctrl.gain * (ctrl.setpoint - observed_ratio)
    return min(max(amplitude, ctrl.amp_min), ctrl.amp_max)


def controller_update(ctrl: ControllerState, observed_ratio: float) -> ControllerState:
    """One clamped proportional-on-error step on the amplitude command."""
    return replace(ctrl, amplitude=_next_amplitude(ctrl, ctrl.amplitude, observed_ratio))


def run_closed_loop(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    ctrl: ControllerState,
    n_windows: int,
    rng: np.random.Generator,
) -> tuple[BitStream, np.ndarray, np.ndarray]:
    """Alternate window acquisitions with controller updates.

    Returns the concatenated bits plus per-window diagnostics: the observed
    ratio and the amplitude command in effect for each window.  The pulse
    thresholds do not depend on the amplitude, so they are drawn in bulk
    and each window only compares its slice against the current command;
    the bits equal a loop of acquire_bits calls, one per window.  The device
    state is advanced in place.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be at least 1")
    window = ctrl.window
    bits = np.empty(n_windows * window, dtype=np.uint8)
    ratios = np.empty(n_windows)
    amplitudes = np.empty(n_windows)
    amplitude = ctrl.amplitude
    w = 0
    start = 0  # first pulse of window w
    end = 0  # pulses read so far; a window may straddle chunks
    for thresholds in _threshold_chunks(state, params, cfg, bits.size, rng):
        used = 0
        while used < thresholds.size:
            if end == start:
                _check_amplitude(amplitude)
                amplitudes[w] = amplitude
            take = min(thresholds.size - used, start + window - end)
            np.greater(amplitude, thresholds[used : used + take], out=bits[end : end + take])
            used += take
            end += take
            if end == start + window:
                ratio = np.count_nonzero(bits[start:end]) / window
                ratios[w] = ratio
                amplitude = _next_amplitude(ctrl, amplitude, ratio)
                w += 1
                start = end
    state.branch = Branch.H if bits[-1] else Branch.L
    return BitStream.from_array(bits), ratios, amplitudes


__all__ = ["ControllerState", "default_controller", "controller_update", "run_closed_loop"]
