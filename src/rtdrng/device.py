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
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

_MS_PER_S = 1000.0

# The drift scan's rows span at most _SCAN_ROW steps, and fewer where
# decay**(w - 1) would fall below _SCAN_SPAN, so a row's weights decay**-j
# stay within 2**64.
_SCAN_ROW = 2048
_SCAN_SPAN = 2.0**-64

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


class BranchRangeError(ValueError):
    """Current outside the selected branch's range.

    Physically this is exactly the condition that forces a branch switch.
    """


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


def iv_current(params: DeviceParams, v: float) -> float:
    """Static single-valued current at voltage v (voltage-sweep curve).

    Piecewise linear: 0 -> i_peak over [0, v_peak], i_peak -> i_valley over
    [v_peak, v_valley] (the NDR interpolation, only used for plotting), then
    slope g_high beyond v_valley.
    """
    if v < 0.0:
        raise ValueError("voltage must be nonnegative")
    if v <= params.v_peak:
        return params.i_peak * v / params.v_peak
    if v <= params.v_valley:
        frac = (v - params.v_peak) / (params.v_valley - params.v_peak)
        return params.i_peak + (params.i_valley - params.i_peak) * frac
    return params.i_valley + params.g_high * (v - params.v_valley)


def _branch_voltage_unchecked(params: DeviceParams, branch: Branch, i: float) -> float:
    # Linear branch lines without range enforcement; under drift the L
    # branch extends slightly past i_peak (the effective peak is shifted).
    if branch is Branch.L:
        return i * params.v_peak / params.i_peak
    return params.v_valley + (i - params.i_valley) / params.g_high


def branch_voltage(params: DeviceParams, branch: Branch, i: float) -> float:
    """Voltage on the given branch at current i; inverts iv_current.

    L maps [0, i_peak] into [0, v_peak]; H maps [i_valley, inf) into
    [v_valley, inf).  A current outside the branch's range raises
    BranchRangeError.
    """
    if branch is Branch.L:
        if not 0.0 <= i <= params.i_peak:
            raise BranchRangeError(f"current {i} mA outside L branch [0, {params.i_peak}]")
    else:
        if i < params.i_valley:
            raise BranchRangeError(f"current {i} mA below H branch minimum {params.i_valley}")
    return _branch_voltage_unchecked(params, branch, i)


def _switch_probability(params: DeviceParams, amplitude, drift, exposure):
    """P(L->H within `exposure` ms at constant current), elementwise.

    The module docstring's hazard over a constant exposure: exactly 0 at or
    below the drift-shifted valley and 1 above the drift-shifted peak.
    sweep_switch_probabilities uses it; pulse readout compares against
    _switch_thresholds instead.
    """
    peak = params.i_peak + drift
    valley = params.i_valley + drift
    with np.errstate(over="ignore"):
        rate = params.lambda0 * np.exp((amplitude - peak) / params.i_scale)
        p = -np.expm1(-rate * exposure)
    return np.where(amplitude <= valley, 0.0, np.where(amplitude > peak, 1.0, p))


def _switch_thresholds(params: DeviceParams, drift, u, exposure) -> np.ndarray:
    """Switching current of each pulse whose switch uniform is u, elementwise.

    The amplitude-free inverse of _switch_probability: a pulse of any
    amplitude reads H exactly when amplitude > threshold, in exact
    arithmetic the same event as u < _switch_probability(params, amplitude,
    drift, exposure).  The
    threshold is clipped to the drift-shifted bistable window, so amplitudes
    at or below the valley read L and above the peak read H for every u.
    Returns a new array; u is not modified.
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


def _drift_path(fill, count: int, decay: float, scatter: float, drift: float) -> np.ndarray:
    """_drift_scan over `count` normals that fill(out=buf) writes into a fresh buffer.

    fill writes a contiguous float64 buffer of `count` entries, as
    Generator.standard_normal does; they go straight into the scan's rows.
    """
    buf = np.empty(_scan_size(count, decay))
    fill(out=buf[:count])
    return _drift_scan(buf, count, decay, scatter, drift)


def _walk_terms(params: DeviceParams, dt: float) -> tuple[float, float]:
    """(decay, scatter) of one dt ms step of the mean-reverting drift walk."""
    tau_ms = params.drift_tau * _MS_PER_S
    decay = math.exp(-dt / tau_ms)
    scatter = params.drift_sigma * math.sqrt(-math.expm1(-2.0 * dt / tau_ms))
    return decay, scatter


def _draw_steps(params: DeviceParams, drift: float, count: int, dt: float, rng: Streams):
    """Draw `count` successive steps of dt ms, starting from `drift`.

    The draw of sweep points and trace pulses, which acquisition's chunks
    repeat with the draws on a helper thread (pulses._threshold_chunks):
    each step's switch uniform from rng.switch and its drift normal from
    rng.drift.  The drift is the exact discretisation of the mean-reverting
    walk, run by _drift_path; with drift_sigma = 0 it only decays.  Returns
    (drifts, u, final): the drift entering each step, the switch uniforms and
    the drift after the last step.
    """
    decay, scatter = _walk_terms(params, dt)
    u = rng.switch.random(count)
    path = _drift_path(rng.drift.standard_normal, count, decay, scatter, drift)
    return path[:-1], u, float(path[-1])


def _elapsed(clock: float, dwells: np.ndarray) -> np.ndarray:
    # the clock after each dwell, summed left to right as a stepping loop would
    return np.cumsum(np.concatenate(([clock], dwells)))[1:]


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
    mimicking an SMU staircase sweep.  Each point draws like one pulse
    (_draw_steps) and the branch is a set/reset latch: a point sets H when
    its current exceeds the point's switching threshold, resets to L below
    the drift-shifted valley and otherwise keeps the branch.  The recorded
    switch current is the grid current for a stochastic L->H jump and the
    crossed threshold itself (peak or valley plus drift) for deterministic
    jumps.  If `state` is given it seeds the sweep and is advanced in place;
    otherwise the sweep starts fresh on the branch consistent with the start
    current.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not 0.0 < dt_per_step < math.inf:
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("start and stop must be finite")
    state = state if state is not None else DeviceState()
    drifts, u, drift = _draw_steps(params, state.drift, steps, dt_per_step, rng)
    currents = np.linspace(start, stop, steps)
    valleys = params.i_valley + drifts
    # entry 0 pre-positions the branch for the starting bias point: settling
    # there is part of the sweep setup, not a recorded switch
    if start > params.i_peak + state.drift:
        settled = True
    elif start < params.i_valley + state.drift:
        settled = False
    else:
        settled = state.branch is Branch.H
    thresholds = _switch_thresholds(params, drifts, u, dt_per_step)
    sets = np.concatenate(([settled], currents > thresholds))
    forced = sets | np.concatenate(([True], currents < valleys))
    # the threshold never lies below the valley, so set and reset exclude
    # each other; every point keeps the level of the last forced one
    high = sets[np.maximum.accumulate(np.where(forced, np.arange(steps + 1), 0))]
    switch_current: float | None = None
    changes = np.flatnonzero(high[1:] != high[:-1])
    if changes.size:
        k = changes[0]
        if high[k + 1]:
            switch_current = min(float(currents[k]), params.i_peak + float(drifts[k]))
        else:
            switch_current = float(valleys[k])
    voltages = np.where(
        high[1:],
        _branch_voltage_unchecked(params, Branch.H, currents),
        _branch_voltage_unchecked(params, Branch.L, currents),
    )
    state.branch = Branch.H if high[-1] else Branch.L
    state.drift = drift
    state.clock = float(_elapsed(state.clock, np.full(steps, dt_per_step))[-1])
    return SweepTrace(currents=currents, voltages=voltages, switch_current=switch_current)


def sweep_switch_probabilities(
    params: DeviceParams, currents: np.ndarray, dt_per_step: float, drift: float = 0.0
) -> np.ndarray:
    """Closed-form switch-current distribution for a forward staircase sweep.

    Probability of the L->H jump landing on each grid point: the device
    survives every earlier dwell and switches during this one.  Grid points
    above the effective peak collapse onto the threshold crossing itself
    (deterministic switch), reported on the first such point.
    """
    p = _switch_probability(params, np.asarray(currents, dtype=np.float64), drift, dt_per_step)
    # p = 1 past the peak zeroes every later survival term
    return p * np.concatenate(([1.0], np.cumprod(1.0 - p)[:-1]))


__all__ = [
    "Branch",
    "BranchRangeError",
    "ModelRangeError",
    "DeviceParams",
    "DeviceState",
    "Streams",
    "SweepTrace",
    "streams",
    "iv_current",
    "branch_voltage",
    "sweep_current",
    "sweep_switch_probabilities",
]
