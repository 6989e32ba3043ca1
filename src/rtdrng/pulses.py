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

Pulses, trace pulses and sweep points draw alike and walk one drift
(device._drawn): each step takes its switch uniform from one stream and its
drift-update normal from another, the two spawned children of the run's
seed (device.streams).  Both of numpy's draws are stream-stable under
batching, so a run split into other calls or chunks takes the same draws,
and its drift, scanned a chunk at a time, agrees within the scan's 1e-12
bound.  The scalar per-pulse reference lives in tests/oracles.py:run_pulse.

Acquisition (acquire_bits, the one pulse-train loop, which the closed loop
runs with its own reader) takes _CHUNK_PULSES pulses at a time.  The
calling thread draws chunk k's switch uniforms, scans its drift, checks the
reset condition and reads its bits, while a short-lived thread draws chunk
k + 1's drift normals (device._drawn); numpy's fills release the GIL, so
on two cores the two threads overlap.  A one-chunk call, and
every trace, starts no thread.  A chunk's thresholds are made and read
_BLOCK_PULSES pulses at a time, so each of their float64 temporaries stays
at 256 KiB, within one core's L2; a reader's window may straddle blocks as
it straddles chunks.  The bits and the streams' positions equal those of
drawing each chunk in line and reading it whole (the serial chunk loop in
tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitStream, _Packer
from .device import (
    _CHUNK_PULSES,
    _branch_voltage_unchecked,
    _drawn,
    _elapsed,
    _switch_thresholds,
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
    Streams,
)

# pulses per block of a chunk whose thresholds are made and read together
_BLOCK_PULSES = 1 << 15


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
    # i_valley + min(drift) is the least of i_valley + drift, as rounding is
    # monotone; a NaN drift makes the minimum NaN and fails too
    if not params.i_valley + np.min(drift) > 0.0:
        raise ModelRangeError(
            "drift pushed the valley threshold to or below zero current; "
            "the off phase no longer guarantees the L-branch reset"
        )


def acquire_bits(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: Streams,
    read=None,
) -> BitStream:
    """Collect `count` bits from successive pulses; `state` threads through.

    Each bit is cfg.amplitude > its pulse's switching threshold, unless
    read(thresholds, bits) writes each block's bits (the closed loop's
    reader).  Chunks of up to _CHUNK_PULSES pulses and their drift path come
    from device._drawn, whose thread draws the next chunk's drift normals;
    each chunk is reset-checked whole, then its thresholds are made and read
    _BLOCK_PULSES at a time into a reused bool buffer, which is packed, so
    the working set is bounded by the chunk, not by `count`.  The draws are
    closed, and their thread joined, before the call returns or raises; the
    state advances in place only once every chunk has been read.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    read = read or (lambda thresholds, bits: np.greater(cfg.amplitude, thresholds, out=bits))
    exposure = cfg.width * cfg.sample_offset
    sizes = [min(_CHUNK_PULSES, count - done) for done in range(0, count, _CHUNK_PULSES)]
    buf = np.empty(sizes[0], dtype=bool)
    out = _Packer(count)
    draws = _drawn(rng, params, cfg.period, sizes, state.drift)
    try:
        for u, drifts, drift in draws:
            _require_reset(params, drifts)
            bits = buf[: u.size]
            for lo in range(0, u.size, _BLOCK_PULSES):
                hi = lo + _BLOCK_PULSES
                read(_switch_thresholds(params, drifts[lo:hi], u[lo:hi], exposure), bits[lo:hi])
            out.append(bits)
    finally:
        draws.close()
    state.drift = drift
    state.clock = state.clock + count * cfg.period
    state.branch = Branch.H if bits[-1] else Branch.L
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
    [(u, drifts, drift)] = _drawn(rng, params, cfg.period, [n_pulses], state.drift)
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
