"""Current-pulse driving of the device and logical bit readout.

A pulse period is an off phase at zero current (which resets the device to
the L branch) followed by an on phase at the configured amplitude.  The
branch read at the sample instant maps to one bit: L -> 0, H -> 1.  Because
the hazard is constant during a pulse, the bit is an exact Bernoulli draw
with p = 1 - exp(-rate(amplitude) * width * sample_offset), so acquisition
does not need sub-stepping; sub-steps only matter for time-resolved traces.

Per pulse the generator consumes exactly two uniforms, in order: the switch
draw, then the drift-update normal (via the inverse CDF).  Uniform draws
from numpy's Generator are stream-stable under batching, so acquire_bits
produces bit-identical output to the equivalent loop of run_pulse calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from .bits import BitStream
from .device import (
    _MIN_UNIFORM,
    _branch_voltage_unchecked,
    _next_branch,
    _next_drift,
    _ou_coefficients,
    _switch_probability,
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
)

_CHUNK_PULSES = 1 << 20


@dataclass(frozen=True)
class PulseConfig:
    """Amplitude (mA), width (ms), duty cycle and sampling rule of a train.

    sample_offset is the fraction of the pulse width at which the voltage is
    read (1.0 = end of pulse, the SMU protocol).  substep is the integration
    step used for time-resolved traces, defaulting to width/100.
    """

    amplitude: float = 1.50
    width: float = 1.0
    duty_cycle: float = 0.5
    sample_offset: float = 1.0
    substep: float | None = None

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must be in (0, 1)")
        if not 0.0 < self.sample_offset <= 1.0:
            raise ValueError("sample_offset must be in (0, 1]")
        if self.substep is None:
            object.__setattr__(self, "substep", self.width / 100.0)
        if not 0.0 < self.substep <= self.width:
            raise ValueError("substep must be in (0, width]")

    @property
    def period(self) -> float:
        """Full pulse period in ms (on phase plus off phase)."""
        return self.width / self.duty_cycle

    @property
    def off_time(self) -> float:
        return self.period - self.width


@dataclass(frozen=True)
class PulseTrace:
    """Time-resolved voltage samples across one or more pulse periods."""

    times: np.ndarray
    voltages: np.ndarray

    @property
    def samples(self) -> np.ndarray:
        """(count, 2) array of (time ms, voltage V) pairs."""
        return np.column_stack((self.times, self.voltages))


def _require_reset(params: DeviceParams, drift) -> None:
    if np.any(params.i_valley + drift <= 0.0):
        raise ModelRangeError(
            "drift pushed the valley threshold to or below zero current; "
            "the off phase no longer guarantees the L-branch reset"
        )


def run_pulse(
    state: DeviceState, params: DeviceParams, cfg: PulseConfig, rng: np.random.Generator
) -> tuple[DeviceState, int]:
    """Apply one pulse period and read one bit.

    Off phase resets to L, the on phase runs at cfg.amplitude, the branch at
    width*sample_offset gives the bit, and the drift advances once per
    period.  Returns the post-pulse state and the bit.
    """
    drift = state.drift
    _require_reset(params, drift)
    p = _switch_probability(params, cfg.amplitude, drift, cfg.width * cfg.sample_offset)
    bit = 1 if rng.random() < p else 0
    drift = _next_drift(drift, *_ou_coefficients(params, cfg.period), rng)
    return DeviceState(Branch.H if bit else Branch.L, drift, state.clock + cfg.period), bit


def acquire_bits(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: np.random.Generator,
) -> BitStream:
    """Collect `count` bits from successive pulses; `state` threads through.

    Batched implementation of the run_pulse loop: drift follows the same
    recursion via an IIR filter and the switch draws use the same uniform
    stream, so the output is bit-identical to calling run_pulse `count`
    times.  The passed state is advanced in place.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    exposure = cfg.width * cfg.sample_offset
    period = cfg.period
    decay, scatter = _ou_coefficients(params, period)
    out = np.empty(count, dtype=np.uint8)
    drift = state.drift
    filter_state = np.array([decay * drift])
    done = 0
    while done < count:
        m = min(_CHUNK_PULSES, count - done)
        u = rng.random(2 * m)
        z = ndtri(np.maximum(u[1::2], _MIN_UNIFORM))
        path, filter_state = lfilter([scatter], [1.0, -decay], z, zi=filter_state)
        # bit k sees the drift value entering its pulse
        drifts = np.concatenate(([drift], path[:-1]))
        _require_reset(params, drifts)
        p = _switch_probability(params, cfg.amplitude, drifts, exposure)
        out[done : done + m] = u[0::2] < p
        drift = float(path[-1])
        done += m
    state.branch = Branch.H if out[-1] else Branch.L
    state.drift = drift
    state.clock = state.clock + count * period
    return BitStream.from_array(out)


def trace_pulses(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    n_pulses: int,
    rng: np.random.Generator,
) -> PulseTrace:
    """Oscilloscope-style voltage trace over n_pulses periods.

    The voltage is sampled every substep: zero during the off phase and the
    occupied branch's voltage during the on phase, so a mid-pulse L->H
    switch appears as an upward step between the LOW and HIGH levels.  The
    passed state is advanced in place.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    branch, drift = state.branch, state.drift
    decay, scatter = _ou_coefficients(params, cfg.period)
    n_off = max(1, round(cfg.off_time / cfg.substep))
    dt_off = cfg.off_time / n_off
    n_on = max(1, round(cfg.width / cfg.substep))
    dt_on = cfg.width / n_on
    times = []
    volts = []
    t = state.clock
    for _ in range(n_pulses):
        _require_reset(params, drift)
        for _ in range(n_off):
            branch = _next_branch(params, branch, drift, 0.0, dt_off, rng)
            t += dt_off
            times.append(t)
            volts.append(0.0)
        for _ in range(n_on):
            branch = _next_branch(params, branch, drift, cfg.amplitude, dt_on, rng)
            t += dt_on
            times.append(t)
            volts.append(_branch_voltage_unchecked(params, branch, cfg.amplitude))
        drift = _next_drift(drift, decay, scatter, rng)
    state.branch, state.drift, state.clock = branch, drift, t
    return PulseTrace(times=np.asarray(times), voltages=np.asarray(volts))


def window_fractions(bits: BitStream, window: int) -> np.ndarray:
    """Ones-fraction of each disjoint window of `window` bits."""
    if window < 1:
        raise ValueError("window must be at least 1")
    arr = bits.to_array()
    if arr.size < window:
        raise ValueError("bit stream shorter than one window")
    n_windows = arr.size // window
    return arr[: n_windows * window].reshape(n_windows, window).mean(axis=1)


def h_fraction_histogram(bits: BitStream, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of per-window H fractions, bin width 1/window.

    Bins are centred on the attainable fractions k/window so exact values
    never sit on an edge.  Returns (counts, bin_centers).
    """
    fractions = window_fractions(bits, window)
    edges = (np.arange(window + 2) - 0.5) / window
    counts, _ = np.histogram(fractions, bins=edges)
    centers = np.arange(window + 1) / window
    return counts, centers


__all__ = [
    "PulseConfig",
    "PulseTrace",
    "run_pulse",
    "acquire_bits",
    "trace_pulses",
    "window_fractions",
    "h_fraction_histogram",
]
