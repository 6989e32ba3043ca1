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

# steps per chunk of _drawn, each step one float64 of the chunk's normals,
# scanned in place into its drift path
_CHUNK_PULSES = 1 << 18

# steps per block of a chunk, whose switch uniforms and thresholds are made
# and read together (a block of bits, or a sweep's latch group): float64
# temporaries of 256 KiB, within one core's L2
_BLOCK_PULSES = 1 << 15

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
    """Branch occupancy and threshold drift (mA).

    An instance is advanced sequentially; distinct instances are independent
    and safe to run in parallel.
    """

    branch: Branch = Branch.L
    drift: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.drift):
            raise ValueError("drift must be finite")


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
    """Entries of the buffer _drift_scan runs `count` steps in: one slot, then whole rows."""
    w = min(_scan_geometry(decay)[1], count)
    return 1 + -(-count // w) * w


def _drift_scan(buf: np.ndarray, count: int, decay: float, scatter: float, drift: float):
    """The drift walk over the normals z in buf[1 : count + 1], in place: count + 1 drifts.

    buf is a contiguous float64 buffer of at least _scan_size(count, decay)
    entries: a leading slot, which takes `drift`, then the normals and the
    padding of the last row.  The path overwrites the normals, so the walk
    allocates nothing the size of the chunk, and the returned view
    buf[: count + 1] holds `drift` and each step's drift after it.  Each
    step is drift' = decay * drift + scatter * z.  The walk runs as a row
    scan, not one step at a time.  A row of w steps is decay**j times a
    running sum of scatter * z * decay**-j whose first term also carries
    decay times the drift entering the row; those drifts come from a
    doubling scan over the rows' zero-start ends, which stops once the
    carried power underflows to 0.  Powers of decay come from
    np.multiply.accumulate, so the path takes only IEEE +, * and one
    division per weight, whatever the numpy build.  It agrees with the
    sequential recurrence within 1e-12 of the path's magnitude (1.0e-13
    measured), and exactly on the first step, at decay 0 and at scatter 0
    from zero drift.
    """
    powers, w = _scan_geometry(decay)
    w = min(w, count)
    rows = -(-count // w)
    z = buf[1 : 1 + rows * w].reshape(rows, w)
    # the padding past `count` holds z = 0 and is never read
    buf[1 + count : 1 + rows * w] = 0.0
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
    np.add.accumulate(z, axis=1, out=z)
    z *= powers[:w]
    buf[0] = drift
    return buf[: count + 1]


def _walk_terms(params: DeviceParams, dt: float) -> tuple[float, float]:
    """(decay, scatter) of one dt ms step of the mean-reverting drift walk."""
    tau_ms = params.drift_tau * _MS_PER_S
    decay = math.exp(-dt / tau_ms)
    scatter = params.drift_sigma * math.sqrt(-math.expm1(-2.0 * dt / tau_ms))
    return decay, scatter


def _drawn(rng, params, dt, count, drift, exposure, row=1, check=None):
    """The one draw loop of `count` steps of dt ms: (drifts, thresholds, drift_after) per block.

    Pulses and sweep points both draw here.  Each step takes its switch
    uniform from rng.switch and its drift normal from rng.drift, and its
    switching threshold for an exposure of `exposure` ms comes from the
    two (_switch_thresholds, called here only).  The steps go in chunks of
    at most _CHUNK_PULSES and each chunk in blocks of at most
    _BLOCK_PULSES, which never straddle a chunk; chunks and blocks are
    whole rows of `row` steps, one row at least, so a pulse train (row 1)
    takes the full sizes and a sweep of `row` points is never split.  A
    block yields the drift entering each of its steps, their thresholds
    and the drift after its last step.

    The drift walks from `drift`, and each chunk's path is scanned
    (_drift_scan) in place from the previous chunk's end, so other chunk
    sizes agree within the scan's bound, not bit for bit.  check(drifts),
    if given, sees each chunk's whole path (the drift entering each step)
    before any of its blocks is handed out, and raises to reject it.  Each
    block's uniforms are then drawn into one reused buffer, the size of
    the first block, just before its thresholds are made and yielded.  The
    uniforms are stream-stable, so they equal one draw of all `count`.

    The calling thread draws chunk 0's drift normals in line.  While chunk
    k is scanned and used, a thread named rtdrng-draws fills chunk k + 1's
    normals into the other of two reused buffers, each sized by its first
    chunk, as no later chunk is larger; a one-chunk run starts none.  The
    thread is joined before chunk k + 1 is scanned and when the generator
    closes, and its exception is raised here.  Nothing is drawn past the
    last step, so both streams end where drawing each chunk in line leaves
    them.  A yielded block's drifts live until the next block is handed
    out; its thresholds are the caller's alone.
    """
    decay, scatter = _walk_terms(params, dt)
    chunk = max(1, _CHUNK_PULSES // row) * row
    block = max(1, _BLOCK_PULSES // row) * row
    sizes = [min(chunk, count - lo) for lo in range(0, count, chunk)]
    normals = [np.empty(_scan_size(m, decay)) for m in sizes[:2]]
    switch = np.empty(min(block, sizes[0]))
    caught = []

    def fill(z):
        try:
            rng.drift.standard_normal(out=z)
        except BaseException as exc:  # raised again in the caller's thread below
            caught.append(exc)

    rng.drift.standard_normal(out=normals[0][1 : sizes[0] + 1])
    for k, m in enumerate(sizes):
        ahead = None
        if k + 1 < len(sizes):
            z = normals[(k + 1) % 2][1 : sizes[k + 1] + 1]
            ahead = threading.Thread(target=fill, args=(z,), name="rtdrng-draws")
            ahead.start()
        try:
            path = _drift_scan(normals[k % 2], m, decay, scatter, drift)
            if check is not None:
                check(path[:-1])
            for i in range(0, m, block):
                j = min(i + block, m)
                u = rng.switch.random(out=switch[: j - i])
                yield path[i:j], _switch_thresholds(params, path[i:j], u, exposure), float(path[j])
            drift = float(path[-1])
        finally:
            if ahead is not None:
                ahead.join()
        if caught:
            raise caught[0]


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

    A sweep dwells dt_per_step at each of `steps` grid currents, an SMU
    staircase.  Returns the grid currents and an iterator over groups of
    sweeps.  A group is (high, switches): high[r, j] is True where sweep r
    reads the H branch at grid point j, and switches[r] is sweep r's first
    switch current or None: the grid current for a stochastic L->H jump,
    the crossed peak or valley (plus drift) for a deterministic one.  The
    sweeps run one after another on one state, advanced in place as each
    group is made (a fresh state if None), so they take the draws of chained
    one-repeat calls, with the drift equal within the scan's bound.
    The arguments are checked here, before anything is drawn.

    The sweeps are drawn end to end by _drawn, which gives the draw
    contract and sizes the chunks and blocks (latch groups) in whole
    sweeps.  rng must not be drawn from elsewhere until the iterator is
    exhausted or closed; closing it joins the draw thread.  Each group
    takes its thresholds and runs the set/reset latch once over its rows,
    each led by an entry for the start point.  That entry is forced only
    when `start` lies outside the drift-shifted window, and otherwise keeps
    the branch the previous row ended on (the state's branch for a group's
    first row).  Before a group is yielded the state takes its end branch
    and drift.
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
    # a sweep is a row of the draws: each latch group is whole sweeps
    draws = _drawn(rng, params, dt, repeats * steps, state.drift, dt, steps)
    try:
        for drifts, thresholds, drift in draws:
            rows = drifts.size // steps
            drifts, thresholds = drifts.reshape(rows, steps), thresholds.reshape(rows, steps)
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
            # free the group's temporaries (_drawn holds its drift path) before its lines are made
            del valleys, changes
            yield high[:, 1:], switches
    finally:
        draws.close()


__all__ = [
    "Branch",
    "ModelRangeError",
    "DeviceParams",
    "DeviceState",
    "Streams",
    "streams",
    "sweep_branches",
]
