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

Pulses, trace pulses and sweep points draw alike (device._fill): each
step takes its switch uniform from one stream and its drift-update normal
from another, the two spawned children of the run's seed (device.streams).
Uniform and normal draws from numpy's Generator are stream-stable under
batching, so the thresholds, and with them the bits, do not depend on how a
run is split into calls or chunks.  The scalar per-pulse reference that
draws the same way lives in the tests (tests/oracles.py:run_pulse).

Acquisition runs in chunks of _CHUNK_PULSES pulses (_acquire), and one
helper thread per call draws chunk k + 1's uniforms and normals while the
calling thread scans chunk k's drift, checks the reset condition and reads
its bits.  Two reused buffer pairs pass between the threads through a free
and a filled queue.  Both numpy fills release the GIL, so on two cores the
draws and the scan overlap.  The helper is the only thread that touches the
streams while it runs, draws nothing past the last chunk and is joined
before _acquire returns or raises, so callers close nothing, and the bits
and the streams' positions equal those of drawing each chunk in line (the
serial chunk loop in tests/oracles.py).
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .bits import BitStream, _Packer
from .device import (
    _CHUNK_PULSES,
    _branch_voltage_unchecked,
    _draw_steps,
    _drift_scan,
    _elapsed,
    _fill,
    _scan_size,
    _switch_thresholds,
    _walk_terms,
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
    Streams,
)


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

    The helper takes a free buffer pair, fills it with the next chunk's
    draws (_fill) and queues it as filled; the caller takes it, scans it and
    gives it back.  Until close() has joined the helper, only it draws from
    the streams, and it draws the listed chunks and no further.
    """

    def __init__(self, rng: Streams, sizes: list[int], width: int):
        self._free = queue.SimpleQueue()  # pairs to fill; None stops the helper
        self._filled = queue.SimpleQueue()  # filled pairs, or the helper's exception
        for _ in range(min(2, len(sizes))):
            self._free.put((np.empty(sizes[0]), np.empty(width)))
        self._thread = threading.Thread(target=self._run, args=(rng, sizes), name="rtdrng-draws")
        self._thread.start()

    def _run(self, rng: Streams, sizes: list[int]) -> None:
        try:
            for m in sizes:
                pair = self._free.get()
                if pair is None:
                    return
                _fill(rng, pair[0][:m], pair[1])
                self._filled.put(pair)
        except BaseException as exc:  # re-raised in the caller by take()
            self._filled.put(exc)

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The next chunk's (uniforms, scan buffer) pair, once drawn."""
        pair = self._filled.get()
        if isinstance(pair, BaseException):
            raise pair
        return pair

    def give_back(self, pair: tuple[np.ndarray, np.ndarray]) -> None:
        """Let the helper refill a pair that take() returned."""
        self._free.put(pair)

    def close(self) -> None:
        self._free.put(None)
        self._thread.join()


def _acquire(
    state: DeviceState,
    params: DeviceParams,
    cfg: PulseConfig,
    count: int,
    rng: Streams,
    read,
) -> BitStream:
    """The bits of `count` successive pulses; read(thresholds, bits) sets each chunk's.

    Chunks of up to _CHUNK_PULSES pulses draw as one _draw_steps call would,
    but a helper thread (_Draws) draws chunk k + 1 while this thread scans
    chunk k's drift from the drift the previous chunk ended on, checks the
    reset condition, lets `read` write the bits into a reused bool buffer and
    packs them; pulse k's threshold sees the drift entering it.  The helper
    is joined before the call returns or raises.  state.drift, state.clock
    and state.branch advance only once every chunk has been read.
    """
    exposure = cfg.width * cfg.sample_offset
    decay, scatter = _walk_terms(params, cfg.period)
    sizes = [min(_CHUNK_PULSES, count - done) for done in range(0, count, _CHUNK_PULSES)]
    drift = state.drift
    buf = np.empty(sizes[0], dtype=bool)
    out = _Packer(count)
    draws = _Draws(rng, sizes, _scan_size(sizes[0], decay))
    try:
        for m in sizes:
            u, z = pair = draws.take()
            path = _drift_scan(z, m, decay, scatter, drift)
            drifts, drift = path[:-1], float(path[-1])
            _require_reset(params, drifts)
            thresholds = _switch_thresholds(params, drifts, u[:m], exposure)
            # only the thresholds stay alive while the chunk is read
            del path, drifts
            draws.give_back(pair)
            bits = buf[:m]
            read(thresholds, bits)
            out.append(bits)
    finally:
        draws.close()
    state.drift = drift
    state.clock = state.clock + count * cfg.period
    state.branch = Branch.H if bits[-1] else Branch.L
    return out.stream()


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
    return _acquire(
        state, params, cfg, count, rng, lambda t, bits: np.greater(cfg.amplitude, t, out=bits)
    )


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
