"""Phenomenological model of a resonant tunnelling diode under current bias.

The static I-V curve is N-shaped: a first positive-differential-resistance
(PDR) branch rising linearly to the resonance peak, an unstable NDR region,
and a second PDR branch past the valley.  Under current bias the device sits
on one of two stable branches, L (low resistance, first PDR) or H (high
resistance, second PDR).  Currents between the valley and the peak admit
both branches, and the L->H switching current is a random variable, which we
model with an exponential hazard in current:

    rate(i) = lambda0 * exp((i - (i_peak + drift)) / i_scale)

The hazard is zero at or below the (drift-shifted) valley and infinite above
the (drift-shifted) peak, so the hard bounds of the bistable window are
respected for every random seed.  Slow environmental drift is an
Ornstein-Uhlenbeck offset added to both switching thresholds.

Units: currents in mA, voltages in V, times in ms, except ``drift_tau``
which is in seconds (the drift is orders of magnitude slower than a pulse).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

_MS_PER_S = 1000.0

# The drift scan's rows span at most _SCAN_ROW steps, and fewer where
# decay**(w - 1) would fall below _SCAN_SPAN, so a row's weights decay**-j
# stay within 2**64.
_SCAN_ROW = 2048
_SCAN_SPAN = 2.0**-64

# steps per bulk draw: a chunk of pulses in pulses.acquire_bits, each holding
# about 40 bytes of temporaries, or a group of sweeps in sweep_branches (a
# trace draws in one chunk); also the bits per pulses.window_fractions chunk
_CHUNK_PULSES = 1 << 18

# Default stochastic calibration: with a 1 ms pulse the switching
# probability crosses 0.5 at 1.515 mA, so the two working amplitudes
# 1.50 mA and 1.53 mA straddle the 50/50 point.
_I_SCALE_DEFAULT = 0.08
_LAMBDA0_DEFAULT = math.log(2.0) * math.exp((1.55 - 1.515) / _I_SCALE_DEFAULT)

# Slope of the second PDR branch, fixed so the H branch sits at 1.15 V when
# carrying 1.50 mA.
_G_HIGH_DEFAULT = (1.50 - 0.40) / (1.15 - 0.70)


class Branch(Enum):
    """Stable resistance branch occupied by the device."""

    L = "L"
    H = "H"


class ModelRangeError(ValueError):
    """Drift pushed the thresholds outside the model's validity range."""


@dataclass(frozen=True)
class DeviceParams:
    """Static branch geometry plus stochastic switching and drift parameters.

    i_peak / i_valley bound the bistable current window (mA); v_peak /
    v_valley are the voltages ending the first PDR branch and starting the
    second (V); g_high is the slope of the second PDR branch (mA/V).
    lambda0 is the switching hazard at the peak (1/ms) and i_scale the
    e-folding current of the hazard (mA).  drift_sigma (mA) and drift_tau
    (s) set the stationary spread and correlation time of the threshold
    drift.
    """

    i_peak: float = 1.55
    i_valley: float = 0.40
    v_peak: float = 0.40
    v_valley: float = 0.70
    g_high: float = _G_HIGH_DEFAULT
    lambda0: float = _LAMBDA0_DEFAULT
    i_scale: float = _I_SCALE_DEFAULT
    # default drift keeps the working amplitudes several sigma below the
    # deterministic-switching boundary: saturated stretches carry no entropy
    drift_sigma: float = 0.008
    drift_tau: float = 60.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 < self.i_valley < self.i_peak:
            raise ValueError("require 0 < i_valley < i_peak")
        if not 0.0 < self.v_peak < self.v_valley:
            raise ValueError("require 0 < v_peak < v_valley")
        for name in ("lambda0", "i_scale", "g_high", "drift_tau"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.drift_sigma < 0.0:
            raise ValueError("drift_sigma must be nonnegative")


@dataclass
class DeviceState:
    """Branch occupancy, threshold drift (mA) and elapsed time (ms).

    An instance is advanced sequentially; distinct instances are independent
    and safe to run in parallel.
    """

    branch: Branch = Branch.L
    drift: float = 0.0
    clock: float = 0.0

    def __post_init__(self):
        for name in ("drift", "clock"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class Streams(NamedTuple):
    """The two independent generators a run of the device draws from.

    switch gives each step's switch uniform and drift each step's drift
    normal.  Both draws are stream-stable, so a run split into any calls or
    chunks takes the same values as one call.
    """

    switch: np.random.Generator
    drift: np.random.Generator


def streams(seed: int | None) -> Streams:
    """The switch and drift streams of `seed`: children 0 and 1 of its SeedSequence."""
    switch, drift = np.random.SeedSequence(seed).spawn(2)
    return Streams(np.random.default_rng(switch), np.random.default_rng(drift))


@dataclass(frozen=True)
class SweepTrace:
    """Recorded (current, voltage) points from one current ramp."""

    currents: np.ndarray
    voltages: np.ndarray
    switch_current: float | None


def _branch_voltage_unchecked(params: DeviceParams, branch: Branch, i: float) -> float:
    # The branch's line at current i, with no range check: under drift the L
    # branch extends slightly past i_peak (the effective peak is shifted).
    if branch is Branch.L:
        return i * params.v_peak / params.i_peak
    return params.v_valley + (i - params.i_valley) / params.g_high


def _switch_thresholds(params: DeviceParams, drift, u, exposure) -> np.ndarray:
    """Switching current of each pulse whose switch uniform is u, elementwise.

    A pulse of any amplitude reads H exactly when amplitude > threshold,
    which in exact arithmetic is the event u < 1 - exp(-rate(amplitude) *
    exposure) for the module docstring's hazard rate.  The threshold is
    clipped to the drift-shifted bistable window, so amplitudes at or below
    the valley read L and above the peak read H for every u.  Returns a new
    array; u is not modified.
    """
    t = np.negative(u)
    np.log1p(t, out=t)
    t /= -(params.lambda0 * exposure)
    with np.errstate(divide="ignore"):
        np.log(t, out=t)  # u = 0 gives -inf, clipped to the valley
    t *= params.i_scale
    peak = params.i_peak + drift
    t += peak
    # clip to [valley, peak] with one bound array alive at a time
    np.minimum(t, peak, out=t)
    del peak
    return np.maximum(t, params.i_valley + drift, out=t)


@functools.lru_cache(maxsize=64)
def _scan_geometry(decay: float) -> tuple[np.ndarray, int]:
    """Powers decay**j for j = 0.._SCAN_ROW and the widest row for `decay`.

    The powers come from np.multiply.accumulate and never increase, so a
    walk of `count` steps takes rows of min(w, count) steps.  Below decay
    2**-64, 0 included, rows are one step.  The table is cached and
    read-only.
    """
    powers = np.full(_SCAN_ROW + 1, decay)
    powers[0] = 1.0
    np.multiply.accumulate(powers, out=powers)
    powers.flags.writeable = False
    return powers, int(np.count_nonzero(powers[:-1] >= _SCAN_SPAN))


def _scan_size(count: int, decay: float) -> int:
    """Entries of the buffer _drift_scan runs `count` steps in: whole rows."""
    w = min(_scan_geometry(decay)[1], count)
    return -(-count // w) * w


def _drift_scan(buf: np.ndarray, count: int, decay: float, scatter: float, drift: float):
    """The drift walk over the normals z in buf[:count]: count + 1 drifts, `drift` first.

    buf is a contiguous float64 buffer of at least _scan_size(count, decay)
    entries; the scan overwrites it.  Each step is drift' = decay * drift +
    scatter * z.  The walk runs as a row scan, not one step at a time.  A
    row of w steps is decay**j times a running sum of scatter * z * decay**-j
    whose first term also carries decay times the drift entering the row;
    those drifts come from a doubling scan over the rows' zero-start ends,
    which stops once the carried power underflows to 0.  Powers of decay
    come from np.multiply.accumulate, so the path takes only IEEE +, * and
    one division per weight, whatever the numpy build.  It agrees with the
    sequential recurrence within 1e-12 of the path's magnitude (1.0e-13
    measured), and exactly on the first step, at decay 0 and at scatter 0
    from zero drift.
    """
    powers, w = _scan_geometry(decay)
    w = min(w, count)
    rows = -(-count // w)
    z = buf[: rows * w].reshape(rows, w)
    # the padding past `count` holds z = 0 and is never read
    buf[count : rows * w] = 0.0
    z *= scatter / powers[:w]
    # lead[r] = decay * (the drift entering row r), scanned from the rows'
    # zero-start ends; it joins the row's first term
    lead = z.sum(axis=1)
    lead[1:] = lead[:-1] * powers[w]
    lead[0] = decay * drift
    carry, reach = powers[w], 1
    while reach < rows and carry > 0.0:
        lead[reach:] += carry * lead[:-reach]
        carry *= carry
        reach *= 2
    z[:, 0] += lead
    out = np.empty(rows * w + 1)
    out[0] = drift
    path = out[1:].reshape(rows, w)
    np.add.accumulate(z, axis=1, out=path)
    path *= powers[:w]
    return out[: count + 1]


def _walk_terms(params: DeviceParams, dt: float) -> tuple[float, float]:
    """(decay, scatter) of one dt ms step of the mean-reverting drift walk."""
    tau_ms = params.drift_tau * _MS_PER_S
    decay = math.exp(-dt / tau_ms)
    scatter = params.drift_sigma * math.sqrt(-math.expm1(-2.0 * dt / tau_ms))
    return decay, scatter


def _drawn(rng: Streams, params: DeviceParams, dt: float, sizes: list[int], drift: float):
    """The one drift walk, dt ms a step: each chunk in turn as (u, drifts, drift).

    u holds the chunk's switch uniforms, drifts the drift entering each step
    and drift the drift after the chunk.  The walk starts from `drift`, and
    each chunk is scanned (_drift_scan) from the previous chunk's end, so
    other chunk sizes agree within the scan's bound, not bit for bit.  The
    calling thread draws each chunk's switch uniforms, into one reused
    buffer, just before it scans the chunk, and chunk 0's drift normals
    before that.  While chunk k is drawn, scanned and used, a thread fills
    chunk k + 1's drift normals, the larger of the two draws, into the other
    of two reused buffers, each sized by its first chunk, as no later chunk
    is larger; it is joined before the next yield or close, and its
    exception is raised here.  So one thread draws at a time, nothing past
    the last chunk, and the streams end where drawing each chunk in line
    leaves them.
    """
    decay, scatter = _walk_terms(params, dt)
    u = np.empty(sizes[0])
    normals = [np.empty(_scan_size(m, decay)) for m in sizes[:2]]
    caught = []

    def fill(z):
        try:
            rng.drift.standard_normal(out=z)
        except BaseException as exc:  # raised again in the caller's thread below
            caught.append(exc)

    rng.drift.standard_normal(out=normals[0][: sizes[0]])
    for k, m in enumerate(sizes):
        ahead = None
        if k + 1 < len(sizes):
            z = normals[(k + 1) % 2][: sizes[k + 1]]
            ahead = threading.Thread(target=fill, args=(z,), name="rtdrng-draws")
            ahead.start()
        try:
            rng.switch.random(out=u[:m])
            path = _drift_scan(normals[k % 2], m, decay, scatter, drift)
            drift = float(path[-1])
            yield u[:m], path[:-1], drift
        finally:
            if ahead is not None:
                ahead.join()
        if caught:
            raise caught[0]


def _elapsed(clock: float, dwells: np.ndarray) -> np.ndarray:
    # the clock after each dwell, summed left to right as a stepping loop would
    return np.cumsum(np.concatenate(([clock], dwells)))[1:]


def sweep_branches(
    params: DeviceParams,
    start: float,
    stop: float,
    steps: int,
    dt_per_step: float,
    repeats: int,
    rng: Streams,
    state: DeviceState | None = None,
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, list[float | None]]]]:
    """Run `repeats` successive sweeps of one current ramp in lockstep.

    Returns the grid currents and an iterator over groups of sweeps.  A group
    is (high, switches): high[r, j] is True where sweep r reads the H branch
    at grid point j, and switches[r] is sweep r's switch current or None.
    The sweeps are `repeats` chained sweep_current calls on one state, which
    is advanced in place as each group is made (a fresh state if None): they
    take the same draws, and the drift agrees within the drift scan's bound.
    The arguments are checked here, before anything is drawn.

    A group holds at most _CHUNK_PULSES steps, one sweep at least.  _drawn
    gives each group's switch uniforms and drift path, walked in one scan
    over the group's sweeps laid end to end, and draws the next group's drift
    normals on a thread while this one is latched and used, so rng must not
    be drawn from elsewhere until the iterator is exhausted or closed;
    closing it joins the thread.  The set/reset latch runs once over the
    same rows, each led by an entry for the start point: that entry is
    forced only when `start` lies outside the drift-shifted window, and
    otherwise keeps the branch the previous row ended on (the state's
    branch for the first row).
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not 0.0 < dt_per_step < math.inf:
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("start and stop must be finite")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    state = state if state is not None else DeviceState()
    currents = np.linspace(start, stop, steps)
    return currents, _sweep_groups(params, start, currents, dt_per_step, repeats, rng, state)


def _sweep_groups(params, start, currents, dt, repeats, rng, state):
    steps = currents.size
    per_group = max(1, _CHUNK_PULSES // steps)
    sizes = [min(per_group, repeats - done) * steps for done in range(0, repeats, per_group)]
    draws = _drawn(rng, params, dt, sizes, state.drift)
    try:
        for u, drifts, drift in draws:
            rows = u.size // steps
            u, drifts = u.reshape(rows, steps), drifts.reshape(rows, steps)
            thresholds = _switch_thresholds(params, drifts, u, dt)
            valleys = params.i_valley + drifts
            # entry 0 of each row pre-positions the branch for the starting bias
            # point: settling there is part of the sweep setup, not a switch
            sets = np.empty((rows, steps + 1), dtype=bool)
            forced = np.empty((rows, steps + 1), dtype=bool)
            np.greater(start, params.i_peak + drifts[:, 0], out=sets[:, 0])
            np.less(start, valleys[:, 0], out=forced[:, 0])
            np.greater(currents, thresholds, out=sets[:, 1:])
            np.less(currents, valleys, out=forced[:, 1:])
            del thresholds
            forced |= sets
            # the latch reads the first entry of the group as forced, so a first
            # row starting inside the window takes the state's branch there
            if not forced[0, 0]:
                sets[0, 0] = state.branch is Branch.H
            # the threshold never lies below the valley, so set and reset exclude
            # each other; every entry keeps the level of the last forced one
            last = np.where(forced.reshape(-1), np.arange(forced.size), 0)
            np.maximum.accumulate(last, out=last)
            high = sets.reshape(-1)[last].reshape(rows, steps + 1)
            del last, sets, forced
            # each row's first change gives its switch current: the grid current
            # for a stochastic L->H jump, the crossed peak or valley otherwise
            changes = high[:, 1:] != high[:, :-1]
            first = changes.argmax(axis=1)
            entry = np.arange(rows)
            crossed = np.where(
                high[entry, first + 1],
                np.minimum(currents[first], params.i_peak + drifts[entry, first]),
                valleys[entry, first],
            )
            switches = [
                at if changed else None
                for at, changed in zip(crossed.tolist(), changes.any(axis=1).tolist())
            ]
            state.branch = Branch.H if high[-1, -1] else Branch.L
            state.drift = drift
            state.clock = float(_elapsed(state.clock, np.full(rows * steps, dt))[-1])
            # free the group's temporaries (_drawn holds its drift path) before its lines are made
            del valleys, changes
            yield high[:, 1:], switches
    finally:
        draws.close()


def sweep_current(
    params: DeviceParams,
    start: float,
    stop: float,
    steps: int,
    dt_per_step: float,
    rng: Streams,
    state: DeviceState | None = None,
) -> SweepTrace:
    """Ramp the bias current across `steps` points and record the response.

    Each point dwells dt_per_step at its current before the voltage is read,
    mimicking an SMU staircase sweep.  Points draw and walk the drift like
    pulses (_drawn); the branch is a set/reset latch: a point sets H when its
    current exceeds the point's switching threshold, resets to L below the
    drift-shifted valley and otherwise keeps the branch.  The recorded
    switch current is the grid current for a stochastic L->H jump and the
    crossed threshold itself (peak or valley plus drift) for deterministic
    jumps.  If `state` is given it seeds the sweep and is advanced in place;
    otherwise the sweep starts fresh on the branch consistent with the start
    current.  This is sweep_branches with one repeat.
    """
    currents, groups = sweep_branches(params, start, stop, steps, dt_per_step, 1, rng, state)
    (high,), (switch_current,) = next(groups)
    voltages = np.where(
        high,
        _branch_voltage_unchecked(params, Branch.H, currents),
        _branch_voltage_unchecked(params, Branch.L, currents),
    )
    return SweepTrace(currents=currents, voltages=voltages, switch_current=switch_current)


__all__ = [
    "Branch",
    "ModelRangeError",
    "DeviceParams",
    "DeviceState",
    "Streams",
    "SweepTrace",
    "streams",
    "sweep_branches",
    "sweep_current",
]
