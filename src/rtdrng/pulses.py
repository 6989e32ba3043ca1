"""Current-pulse driving of the device and logical bit readout.

A pulse period is an off phase at zero current (which resets the device to
the L branch) followed by an on phase at the configured amplitude.  The
branch read at the sample instant maps to one bit: L -> 0, H -> 1.  Because
the hazard is constant during a pulse, each pulse has a random L->H
switching threshold, a function of its switch uniform and the drift only,
and the bit is exactly `amplitude > threshold`: a Bernoulli draw with
p = 1 - exp(-rate(amplitude) * width * sample_offset).  Acquisition
therefore needs no sub-stepping, and a time-resolved trace reads the same
threshold at each sub-step's exposure.

Pulses, trace pulses and sweep points draw alike (device._draw_steps): each
step takes its switch uniform from one stream and its drift-update normal
from another, the two spawned children of the run's seed (device.streams).
Uniform and normal draws from numpy's Generator are stream-stable under
batching, so the thresholds, and with them the bits, do not depend on how a
run is split into calls or chunks.  The scalar per-pulse reference that
draws the same way lives in the tests (tests/oracles.py:run_pulse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream, _Packer
from .device import (
    _branch_voltage_unchecked,
    _draw_steps,
    _elapsed,
    _switch_thresholds,
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
    Streams,
)

# pulses per bulk draw, and bits per window_fractions chunk; each pulse holds
# about 40 bytes of temporaries
_CHUNK_PULSES = 1 << 18


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
        if not 0.0 < self.amplitude < math.inf:
            raise ValueError("amplitude must be positive and finite")
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


def _require_reset(params: DeviceParams, drift) -> None:
    # written so that a NaN drift fails too
    if not np.all(params.i_valley + drift > 0.0):
        raise ModelRangeError(
            "drift pushed the valley threshold to or below zero current; "
            "the off phase no longer guarantees the L-branch reset"
        )


def _threshold_chunks(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: Streams,
):
    """Yield (thresholds, above) for `count` successive pulses in chunks.

    Each chunk of up to _CHUNK_PULSES pulses takes its draws from
    _draw_steps, starting from the drift the previous chunk ended on, and
    checks the reset condition; pulse k's threshold sees the drift entering
    it.  `above` is a bool buffer of the chunk's size for the caller's
    amplitude > threshold bits; it is one buffer reused by every chunk, so
    the caller packs it before asking for the next.  Once exhausted,
    state.drift and state.clock are advanced; the branch is left to the
    caller, which reads the bits.
    """
    exposure = cfg.width * cfg.sample_offset
    drift = state.drift
    above = np.empty(min(_CHUNK_PULSES, count), dtype=bool)
    done = 0
    while done < count:
        m = min(_CHUNK_PULSES, count - done)
        drifts, u, drift = _draw_steps(params, drift, m, cfg.period, rng)
        _require_reset(params, drifts)
        thresholds = _switch_thresholds(params, drifts, u, exposure)
        # only the thresholds stay alive while the caller holds them
        del u, drifts
        done += m
        yield thresholds, above[:m]
    state.drift = drift
    state.clock = state.clock + count * cfg.period


def acquire_bits(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: Streams,
) -> BitStream:
    """Collect `count` bits from successive pulses; `state` threads through.

    Each bit is cfg.amplitude > its pulse's switching threshold.  Pulses
    are drawn _CHUNK_PULSES at a time and each chunk's bits are packed as
    they are read, so the working set is bounded by the chunk, not by
    `count`.  The passed state is advanced in place.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out = _Packer(count)
    for thresholds, above in _threshold_chunks(state, params, cfg, count, rng):
        np.greater(cfg.amplitude, thresholds, out=above)
        out.append(above)
    state.branch = Branch.H if above[-1] else Branch.L
    return out.stream()


def trace_pulses(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    n_pulses: int,
    rng: Streams,
) -> PulseTrace:
    """Oscilloscope-style voltage trace over n_pulses periods.

    The voltage is sampled every substep: zero during the off phase and the
    occupied branch's voltage during the on phase.  Each pulse draws as in
    acquisition, and an on-sample t ms into the pulse reads H when the
    amplitude exceeds the pulse's switching threshold for an exposure of t,
    so a mid-pulse L->H switch appears as one upward step between the LOW
    and HIGH levels.  The last on-sample is read at exactly the width: at
    sample_offset = 1 it is acquire_bits's bit.  The passed state is
    advanced in place.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    drifts, u, drift = _draw_steps(params, state.drift, n_pulses, cfg.period, rng)
    _require_reset(params, drifts)
    n_off = max(1, round(cfg.off_time / cfg.substep))
    n_on = max(1, round(cfg.width / cfg.substep))
    dt_on = cfg.width / n_on
    exposures = np.linspace(dt_on, cfg.width, n_on)
    high = cfg.amplitude > _switch_thresholds(
        params, drifts[:, None], np.broadcast_to(u[:, None], (n_pulses, n_on)), exposures
    )
    voltages = np.zeros((n_pulses, n_off + n_on))
    voltages[:, n_off:] = np.where(
        high,
        _branch_voltage_unchecked(params, Branch.H, cfg.amplitude),
        _branch_voltage_unchecked(params, Branch.L, cfg.amplitude),
    )
    dwells = np.concatenate((np.full(n_off, cfg.off_time / n_off), np.full(n_on, dt_on)))
    times = _elapsed(state.clock, np.tile(dwells, n_pulses))
    state.branch = Branch.H if high[-1, -1] else Branch.L
    state.drift, state.clock = drift, float(times[-1])
    return PulseTrace(times=times, voltages=voltages.ravel())


def window_fractions(bits: BitStream, window: int) -> np.ndarray:
    """Ones-fraction of each disjoint window of `window` bits.

    Windows are unpacked about _CHUNK_PULSES bits at a time (at least one
    window), so only the fractions grow with the stream.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if len(bits) < window:
        raise ValueError("bit stream shorter than one window")
    n_windows = len(bits) // window
    per_chunk = max(1, _CHUNK_PULSES // window)
    fractions = np.empty(n_windows)
    for lo in range(0, n_windows, per_chunk):
        hi = min(lo + per_chunk, n_windows)
        chunk = bits._unpack(lo * window, hi * window).reshape(hi - lo, window)
        fractions[lo:hi] = chunk.mean(axis=1)
    return fractions


__all__ = [
    "PulseConfig",
    "PulseTrace",
    "acquire_bits",
    "trace_pulses",
    "window_fractions",
]
