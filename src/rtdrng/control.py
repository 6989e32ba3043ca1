"""Closed-loop bias control holding the H fraction at a setpoint.

Slow threshold drift shows up as a wandering ones-ratio.  The controller
watches the ratio over a window of pulses and nudges the pulse amplitude
against the error; because the amplitude-to-ratio map is monotone and
memoryless, a single clamped accumulating term is sufficient.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .bits import BitStream, concat_streams
from .device import DeviceParams, DeviceState
from .pulses import PulseConfig, acquire_bits


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
        if self.gain < 0.0:
            raise ValueError("gain must be nonnegative")
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


def controller_update(ctrl: ControllerState, observed_ratio: float) -> ControllerState:
    """One clamped proportional-on-error step on the amplitude command."""
    if not 0.0 <= observed_ratio <= 1.0:
        raise ValueError("observed_ratio must be in [0, 1]")
    amplitude = ctrl.amplitude + ctrl.gain * (ctrl.setpoint - observed_ratio)
    amplitude = min(max(amplitude, ctrl.amp_min), ctrl.amp_max)
    return replace(ctrl, amplitude=amplitude)


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
    ratio and the amplitude command in effect for each window.  The device
    state is advanced in place.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be at least 1")
    chunks = []
    ratios = np.empty(n_windows)
    amplitudes = np.empty(n_windows)
    for w in range(n_windows):
        window_cfg = replace(cfg, amplitude=ctrl.amplitude)
        chunk = acquire_bits(state, params, window_cfg, ctrl.window, rng)
        ratio = chunk.ones_fraction()
        ratios[w] = ratio
        amplitudes[w] = ctrl.amplitude
        ctrl = controller_update(ctrl, ratio)
        chunks.append(chunk)
    return concat_streams(chunks), ratios, amplitudes


__all__ = ["ControllerState", "default_controller", "controller_update", "run_closed_loop"]
