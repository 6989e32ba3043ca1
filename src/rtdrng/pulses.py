"""Current-pulse driving of the device and logical bit readout.

A pulse period is an off phase at zero current (which resets the device to
the L branch) followed by an on phase at the configured amplitude.  The
branch read at the sample instant maps to one bit: L -> 0, H -> 1.  Because
the hazard is constant during a pulse, each pulse has a random L->H
switching threshold, a function of its switch uniform and the drift only,
and the bit is exactly `amplitude > threshold`: a Bernoulli draw with
p = 1 - exp(-rate(amplitude) * width * sample_offset).  Acquisition
therefore needs no sub-stepping; sub-steps only matter for time-resolved
traces.

Per pulse the generator consumes exactly two uniforms, in order: the switch
draw, then the drift-update normal (via the inverse CDF).  Uniform draws
from numpy's Generator are stream-stable under batching, so the thresholds,
and with them the bits, do not depend on how a run is split into calls or
chunks: acquire_bits matches the equivalent loop of run_pulse calls.
"""

from __future__ import annotations

import math
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
    _switch_thresholds,
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
)

# pulses per bulk draw; each holds about 40 bytes of temporaries per pulse
_CHUNK_PULSES = 1 << 18


def _check_amplitude(amplitude: float) -> None:
    if not 0.0 < amplitude < math.inf:
        raise ValueError("amplitude must be positive and finite")


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
        _check_amplitude(self.amplitude)
        if not 0.0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")
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


def _threshold_chunks(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: np.random.Generator,
):
    """Yield the switching thresholds of `count` successive pulses in chunks.

    Each chunk of up to _CHUNK_PULSES pulses draws two interleaved uniforms
    per pulse (switch, then drift normal), runs the drift recursion through
    an IIR filter and checks the reset condition; pulse k's threshold sees
    the drift entering it.  Once exhausted, state.drift and state.clock are
    advanced; the branch is left to the caller, which reads the bits.
    """
    exposure = cfg.width * cfg.sample_offset
    decay, scatter = _ou_coefficients(params, cfg.period)
    drift = state.drift
    filter_state = np.array([decay * drift])
    done = 0
    while done < count:
        m = min(_CHUNK_PULSES, count - done)
        u = rng.random(2 * m)
        z = np.maximum(u[1::2], _MIN_UNIFORM)
        ndtri(z, out=z)
        path, filter_state = lfilter([scatter], [1.0, -decay], z, zi=filter_state)
        drifts = np.concatenate(([drift], path[:-1]))
        drift = float(path[-1])
        del z, path
        _require_reset(params, drifts)
        thresholds = _switch_thresholds(params, drifts, u[0::2], exposure)
        # only the thresholds stay alive while the caller holds them
        del u, drifts
        done += m
        yield thresholds
    state.drift = drift
    state.clock = state.clock + count * cfg.period


def run_pulse(
    state: DeviceState, params: DeviceParams, cfg: PulseConfig, rng: np.random.Generator
) -> tuple[DeviceState, int]:
    """Apply one pulse period and read one bit.

    Off phase resets to L, the on phase runs at cfg.amplitude, the branch at
    width*sample_offset gives the bit, and the drift advances once per
    period.  Returns the post-pulse state and the bit; `state` is unchanged.
    """
    after = DeviceState(state.branch, state.drift, state.clock)
    # unpacking exhausts the draw, which then advances `after`
    [threshold] = _threshold_chunks(after, params, cfg, 1, rng)
    bit = int(cfg.amplitude > threshold[0])
    after.branch = Branch.H if bit else Branch.L
    return after, bit


def acquire_bits(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: np.random.Generator,
) -> BitStream:
    """Collect `count` bits from successive pulses; `state` threads through.

    Batched run_pulse loop: the bits are cfg.amplitude > each pulse's
    switching threshold, bit-identical to calling run_pulse `count` times.
    The passed state is advanced in place.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out = np.empty(count, dtype=np.uint8)
    done = 0
    for thresholds in _threshold_chunks(state, params, cfg, count, rng):
        np.greater(cfg.amplitude, thresholds, out=out[done : done + thresholds.size])
        done += thresholds.size
    state.branch = Branch.H if out[-1] else Branch.L
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
