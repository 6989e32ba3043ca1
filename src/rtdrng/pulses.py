"""Current-pulse driving of the device and logical bit readout.

A pulse period is an off phase at zero current (which resets the device to
the L branch) followed by an on phase at the configured amplitude.  The
branch read at the end of the on phase maps to one bit: L -> 0, H -> 1.
Because the hazard is constant during a pulse, each pulse has a random L->H
switching threshold, a function of its switch uniform and the drift only,
and the bit is exactly `amplitude > threshold`: a Bernoulli draw with
p = 1 - exp(-rate(amplitude) * width).  Acquisition therefore needs no
sub-stepping.

Pulses and sweep points both draw through device._drawn, whose docstring
gives the draw contract: each step takes its switch uniform from one
stream and its drift-update normal from another, the two spawned children
of the run's seed (device.streams), and _drawn hands out the thresholds a
block at a time.  The scalar per-pulse reference lives in
tests/oracles.py:run_pulse.

Acquisition (acquire_bits, the one pulse-train loop, which the closed loop
runs with its own reader) reads each block of thresholds as _drawn sizes
it; a reader's window may straddle blocks as it straddles chunks.  The
bits and the streams' positions equal those of drawing each chunk in line
and reading it whole (the serial chunk loop in tests/oracles.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bits as _bits
from .bits import BitStream, BitWriter
from .device import _drawn, Branch, DeviceParams, DeviceState, ModelRangeError, Streams


@dataclass(frozen=True)
class PulseConfig:
    """Amplitude (mA), width (ms) and duty cycle of a pulse train.

    The voltage is read at the end of each pulse (the SMU protocol), so the
    width is the exposure of every bit.
    """

    amplitude: float = 1.50
    width: float = 1.0
    duty_cycle: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.amplitude < math.inf:
            raise ValueError("amplitude must be positive and finite")
        if not 0.0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must be in (0, 1)")

    @property
    def period(self) -> float:
        """Full pulse period in ms (on phase plus off phase)."""
        return self.width / self.duty_cycle


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
    sink: BitWriter | None = None,
) -> BitStream:
    """Collect `count` bits from successive pulses; `state` threads through.

    Each bit is cfg.amplitude > its pulse's switching threshold, unless
    read(thresholds, bits) writes each block's bits (the closed loop's
    reader).  The thresholds come from device._drawn (see there) a block
    at a time, each chunk reset-checked whole; each block is read into one
    reused bool buffer and packed, so the working set is bounded by the
    chunk, not by `count`.  The bits go to `sink`, a BitWriter of `count`
    bits (a file writer holds no stream), or else to one in memory.  The
    draws are closed, and their thread joined, before the call returns or
    raises; the state advances in place only once every block has been
    read.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    read = read or (lambda thresholds, bits: np.greater(cfg.amplitude, thresholds, out=bits))
    out = BitWriter(count) if sink is None else sink
    check = functools.partial(_require_reset, params)
    draws = _drawn(rng, params, cfg.period, count, state.drift, cfg.width, check=check)
    buf = None
    try:
        for _, thresholds, drift in draws:
            if buf is None:  # the first block is the largest
                buf = np.empty(thresholds.size, dtype=bool)
            bits = buf[: thresholds.size]
            read(thresholds, bits)
            del thresholds  # freed before _drawn makes the next block's
            out.append(bits)
    finally:
        draws.close()
    state.drift = drift
    state.branch = Branch.H if bits[-1] else Branch.L
    return out.stream()


def window_fractions(bits: BitStream, window: int) -> np.ndarray:
    """Ones-fraction of each disjoint window of `window` bits.

    Windows are unpacked about bits._CHUNK_BITS bits at a time (at least
    one window), as BitStream.ones_fraction scans, so only the fractions
    grow with the stream.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if len(bits) < window:
        raise ValueError("bit stream shorter than one window")
    n_windows = len(bits) // window
    per_chunk = max(1, _bits._CHUNK_BITS // window)
    fractions = np.empty(n_windows)
    for lo in range(0, n_windows, per_chunk):
        hi = min(lo + per_chunk, n_windows)
        chunk = bits._unpack(lo * window, hi * window).reshape(hi - lo, window)
        fractions[lo:hi] = chunk.mean(axis=1)
    return fractions


__all__ = [
    "PulseConfig",
    "acquire_bits",
    "window_fractions",
]
