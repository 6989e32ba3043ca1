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

Acquisition runs in chunks of _CHUNK_PULSES pulses, and one helper thread
per call draws chunk k + 1's uniforms and normals into the other of two
reused buffer pairs while the calling thread scans chunk k's drift, checks
the reset condition and reads its bits.  Both numpy fills release the GIL,
so on two cores the draws and the scan overlap.  The helper is the only
thread that touches the streams while it runs, draws nothing past the last
chunk and is joined before the call returns or raises, so the bits and the
streams' positions equal those of drawing each chunk in line
(tests/oracles.py:serial_threshold_chunks).
"""

from __future__ import annotations

import math
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .bits import BitStream, _Packer
from .device import (
    _branch_voltage_unchecked,
    _draw_steps,
    _drift_scan,
    _elapsed,
    _scan_size,
    _switch_thresholds,
    _walk_terms,
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
    # i_valley + min(drift) is the least of i_valley + drift, as rounding is
    # monotone; a NaN drift makes the minimum NaN and fails too
    if not params.i_valley + np.min(drift) > 0.0:
        raise ModelRangeError(
            "drift pushed the valley threshold to or below zero current; "
            "the off phase no longer guarantees the L-branch reset"
        )


class _Draws:
    """A helper thread drawing each chunk's switch uniforms and drift normals.

    Chunk k's uniforms and normals go into buffer pair k % 2; the helper
    fills chunk k + 1 while the caller scans chunk k, and fills a pair again
    only once the caller has handed it back.  Both numpy fills release the
    GIL.  Until close() has joined the helper, only it draws from the
    streams, and it draws exactly the chunks listed and no further.
    """

    def __init__(self, rng: Streams, sizes: list[int], width: int):
        pairs = min(2, len(sizes))
        self._u = [np.empty(sizes[0]) for _ in range(pairs)]
        self._z = [np.empty(width) for _ in range(pairs)]
        self._free = threading.Semaphore(pairs)
        self._filled = threading.Semaphore(0)
        self._taken = 0
        self._stop = False
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._fill, args=(rng, sizes), name="rtdrng-draws")
        self._thread.start()

    def _fill(self, rng: Streams, sizes: list[int]) -> None:
        try:
            for k, m in enumerate(sizes):
                self._free.acquire()
                if self._stop:
                    return
                rng.switch.random(out=self._u[k % 2][:m])
                rng.drift.standard_normal(out=self._z[k % 2][:m])
                self._filled.release()
        except BaseException as exc:  # handed to the caller by take()
            self._error = exc
            self._filled.release()

    def take(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk's m uniforms and its normals' scan buffer, once drawn."""
        self._filled.acquire()
        if self._error is not None:
            raise self._error
        pair = self._taken % 2
        self._taken += 1
        return self._u[pair][:m], self._z[pair]

    def give_back(self) -> None:
        """Let the helper refill the pair take() returned last."""
        self._free.release()

    def close(self) -> None:
        self._stop = True
        self._free.release()
        self._thread.join()


def _threshold_chunks(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: Streams,
):
    """Yield (thresholds, above) for `count` successive pulses in chunks.

    Chunks of up to _CHUNK_PULSES pulses draw as one _draw_steps call would,
    but a helper thread (_Draws) draws chunk k + 1 while this thread scans
    chunk k's drift from the drift the previous chunk ended on, checks the
    reset condition and the caller reads the bits; pulse k's threshold sees
    the drift entering it.  `above` is a bool buffer of the chunk's size for
    the caller's amplitude > threshold bits; it is one buffer reused by every
    chunk, so the caller packs it before asking for the next.  Once
    exhausted, state.drift and state.clock are advanced; the branch is left
    to the caller, which reads the bits.  Callers close the generator, which
    joins the helper, also when they stop early.
    """
    exposure = cfg.width * cfg.sample_offset
    decay, scatter = _walk_terms(params, cfg.period)
    sizes = [min(_CHUNK_PULSES, count - done) for done in range(0, count, _CHUNK_PULSES)]
    drift = state.drift
    above = np.empty(sizes[0], dtype=bool)
    draws = _Draws(rng, sizes, _scan_size(sizes[0], decay))
    try:
        for m in sizes:
            u, z = draws.take(m)
            path = _drift_scan(z, m, decay, scatter, drift)
            drifts, drift = path[:-1], float(path[-1])
            _require_reset(params, drifts)
            thresholds = _switch_thresholds(params, drifts, u, exposure)
            # only the thresholds stay alive while the caller holds them
            del u, z, path, drifts
            draws.give_back()
            yield thresholds, above[:m]
    finally:
        draws.close()
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
    with closing(_threshold_chunks(state, params, cfg, count, rng)) as chunks:
        for thresholds, above in chunks:
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
