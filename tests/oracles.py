"""Independent reference implementations used as test oracles.

Everything here is deliberately literal (plain loops, dict counting, direct
summation) and shares no code with the package's vectorized paths.  The
device stepping references (hazard, step_device, drift_step, run_pulse) draw
as the package does, from the stream pair of rtdrng.device.streams: a step's
switch uniform is one scalar rng.switch.random() and its drift normal one
scalar rng.drift.standard_normal().  The sweep reference is built on them
with one DeviceState per step; ar1_oracle steps the drift
recurrence alone, one Python float at a time.  The closed forms are
switch_probability, the L->H probability of one exposure elementwise over
arrays, and switch_current_distribution, a sweep's first-switch point built
on hazard.  The closed-loop reference is the per-window loop over the public
acquire_bits and next_amplitude.

The serial chunk references are the exception: they are a reference for the
scheduling of acquisition, not for its arithmetic.  They run the chunk loop
with every draw in line (_draw_steps, on the package's own _drift_scan) and
through _switch_thresholds a whole chunk at once, where device._drawn makes
the thresholds a block at a time, so acquisition must match them bit for
bit.  The truth replay (true_switch_probabilities,
block_min_entropy) is built on the same in-line draws: it gives each
pulse's true switch probability from a run's own draws, the ground truth
for entropy and extraction claims.

sweep_current (returning a SweepTrace) is no reference at all: it is the
package's sweep_branches at one repeat, for the tests that chain single
sweeps on one state and set them against sweep_current_oracle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

import rtdrng.device as device
from rtdrng.control import next_amplitude
from rtdrng.device import (
    Branch,
    DeviceState,
    ModelRangeError,
    _drift_scan,
    _scan_size,
    _switch_thresholds,
    _walk_terms,
)
from rtdrng.pulses import acquire_bits


# ---------------------------------------------------------------- GF(2)


def brute_force_lfsr_length(seq) -> int:
    """Minimal L such that some L-tap LFSR reproduces seq, by trying all taps."""
    bits = [int(b) for b in seq]
    n = len(bits)
    if all(b == 0 for b in bits):
        return 0
    # windows[t] has bit i = bits[t - 1 - i]
    windows = []
    w = 0
    for t in range(n):
        windows.append(w)
        w = (w << 1) | bits[t]
    for length in range(1, n):
        for taps in range(1 << length):
            if all(
                ((taps & windows[t]).bit_count() & 1) == bits[t] for t in range(length, n)
            ):
                return length
    return n


def textbook_berlekamp_massey(seq) -> int:
    """Array-based classic formulation of the synthesis algorithm."""
    s = [int(b) for b in seq]
    n = len(s)
    c = [1] + [0] * n
    b = [1] + [0] * n
    length = 0
    m = -1
    for i in range(n):
        d = s[i]
        for j in range(1, length + 1):
            d ^= c[j] & s[i - j]
        if d:
            t = c[:]
            shift = i - m
            for j in range(n + 1 - shift):
                c[j + shift] ^= b[j]
            if 2 * length <= i:
                length = i + 1 - length
                b = t
                m = i
    return length


def int_berlekamp_massey(seq) -> int:
    """Synthesis on Python-int polynomials (bit i = coefficient of x^i).

    The discrepancy at step t is the parity of poly AND window, where the
    window holds the sequence reversed so bit i is s[t - i].
    """
    poly = 1
    prev = 1
    length = 0
    last_change = -1
    window = 0
    for t, s in enumerate(int(b) for b in seq):
        window = (window << 1) | s
        if (poly & window).bit_count() & 1:
            backup = poly
            poly ^= prev << (t - last_change)
            if 2 * length <= t:
                length = t + 1 - length
                prev = backup
                last_change = t
    return length


def gf2_rank_oracle(matrix) -> int:
    m = np.array(matrix, dtype=np.uint8) % 2
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def rank_class_probability(size: int, r: int) -> float:
    """Probability a random size x size GF(2) matrix has rank exactly r."""
    result = 2.0 ** (r * (2 * size - r) - size * size)
    for i in range(r):
        result *= (1.0 - 2.0 ** (i - size)) ** 2 / (1.0 - 2.0 ** (i - r))
    return result


# ---------------------------------------------------------------- hashing


def toeplitz_hash_oracle(seed, block, l):
    """Direct double-loop evaluation of the seeded binary convolution."""
    seed = [int(b) for b in seed]
    block = [int(b) for b in block]
    out = []
    for j in range(l):
        acc = 0
        for i in range(len(block)):
            acc ^= seed[j + i] & block[i]
        out.append(acc)
    return out


def seeded_hash_block(seed, block, l: int):
    """Hash one n-bit block to l bits: out[j] = parity(seed[j:j+n] & block).

    The per-block reference for extract's chunked table kernel, as an int64
    product over the seed's sliding windows.
    """
    seed = np.asarray(seed, dtype=np.uint8)
    block = np.asarray(block, dtype=np.uint8)
    n = block.size
    if seed.size != n + l - 1:
        raise ValueError(f"seed must be {n + l - 1} bits for n={n}, l={l}")
    windows = np.lib.stride_tricks.sliding_window_view(seed, n)[:l]
    return (windows.astype(np.int64) @ block.astype(np.int64)) % 2


# ------------------------------------------------- statistic transliterations


def oracle_frequency_p(bits) -> float:
    s = sum(2 * int(b) - 1 for b in bits)
    return math.erfc(abs(s) / math.sqrt(2.0 * len(bits)))


def oracle_block_frequency_p(bits, m: int, igamc) -> float:
    bits = [int(b) for b in bits]
    n_blocks = len(bits) // m
    chi2 = 0.0
    for j in range(n_blocks):
        pi = sum(bits[j * m : (j + 1) * m]) / m
        chi2 += (pi - 0.5) ** 2
    chi2 *= 4.0 * m
    return igamc(n_blocks / 2.0, chi2 / 2.0)


def oracle_runs_p(bits) -> float:
    bits = [int(b) for b in bits]
    n = len(bits)
    pi = sum(bits) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1
    for i in range(1, n):
        if bits[i] != bits[i - 1]:
            v += 1
    return math.erfc(
        abs(v - 2.0 * n * pi * (1.0 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
    )


def oracle_longest_runs(bits, m: int):
    """Longest run of ones in every m-bit block, by character scan."""
    bits = [int(b) for b in bits]
    out = []
    for j in range(len(bits) // m):
        best = 0
        run = 0
        for b in bits[j * m : (j + 1) * m]:
            run = run + 1 if b else 0
            best = max(best, run)
        out.append(best)
    return out


def runs_at_most_counts(block_len: int, k: int) -> int:
    """How many block_len-bit strings have no run of ones longer than k.

    A string ends in t ones (t <= k) after a 0 that closes a shorter valid
    string, or is all ones: a(n) = sum of a(n - t - 1) over t <= min(k, n - 1),
    plus 1 when n <= k, with a(0) = 1; a running sum keeps each step O(1).
    """
    counts = [1]
    sums = [0, 1]  # sums[i] = a(0) + ... + a(i - 1)
    for n in range(1, block_len + 1):
        a = sums[n] - sums[max(0, n - k - 1)] + (n <= k)
        counts.append(a)
        sums.append(sums[-1] + a)
    return counts[block_len]


def longest_run_class_law(block_len: int, lo: int, hi: int) -> list[float]:
    """P(longest run <= lo), P(= lo + 1), ..., P(>= hi) in block_len fair bits, exactly.

    Counts are Python ints; each class's count is divided by 2^M once, so
    every probability is correctly rounded.
    """
    at_most = [runs_at_most_counts(block_len, k) for k in range(lo, hi)]
    counts = [at_most[0]] + [b - a for a, b in zip(at_most, at_most[1:])]
    counts.append(2**block_len - at_most[-1])
    return [c / 2**block_len for c in counts]


def universal_log_distance_moments(block_len: int) -> tuple[float, float]:
    """Mean and variance of log2 D, where D ~ Geometric(p = 2^-L) on 1, 2, ...

    D is the distance, in L-bit blocks of fair bits, back to the previous
    occurrence of a block: P(D = i) = p (1 - p)^(i - 1).  The sums stop where
    (1 - p)^i falls below 2^-60, past which the tail of E[log2(D)^2] is below
    1e-15; numpy's pairwise sums keep the rounding near 1e-14.
    """
    p = 2.0**-block_len
    log_q = math.log1p(-p)
    terms = math.ceil(60 * math.log(2.0) / -log_q)
    mean = square = 0.0
    for lo in range(1, terms + 1, 1 << 20):
        i = np.arange(lo, min(lo + (1 << 20), terms + 1), dtype=np.float64)
        weights = p * np.exp((i - 1) * log_q)
        logs = np.log2(i)
        mean += float(np.sum(weights * logs))
        square += float(np.sum(weights * logs * logs))
    return mean, square - mean * mean


def oracle_cusum_z(bits, backward: bool) -> int:
    seq = [2 * int(b) - 1 for b in bits]
    if backward:
        seq = seq[::-1]
    s = 0
    z = 0
    for x in seq:
        s += x
        z = max(z, abs(s))
    return z


def oracle_cusum_p(z: int, n: int) -> float:
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    if z == 0:
        return 1.0
    total = 1.0
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        total -= phi((4 * k + 1) * z / math.sqrt(n)) - phi((4 * k - 1) * z / math.sqrt(n))
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        total += phi((4 * k + 3) * z / math.sqrt(n)) - phi((4 * k + 1) * z / math.sqrt(n))
    return total


def oracle_dft_moduli(bits, freqs=None):
    """Direct DFT moduli of the +/-1 signal, one O(n) sum per frequency.

    freqs defaults to the first half, k < n/2.  Each angle is reduced
    exactly, as (j*k mod n), before it is scaled to radians.
    """
    x = 2.0 * np.asarray(bits, dtype=np.float64) - 1.0
    n = x.size
    j = np.arange(n, dtype=np.int64)
    out = []
    for k in range(n // 2) if freqs is None else freqs:
        angle = (2.0 * math.pi / n) * ((j * int(k)) % n)
        out.append(math.hypot(float(x @ np.cos(angle)), float(x @ np.sin(angle))))
    return out


def oracle_nonoverlapping_count(bits, template) -> int:
    """Non-overlapping scan: on a match, jump past the whole template."""
    bits = [int(b) for b in bits]
    template = [int(b) for b in template]
    m = len(template)
    count = 0
    i = 0
    while i <= len(bits) - m:
        if bits[i : i + m] == template:
            count += 1
            i += m
        else:
            i += 1
    return count


def oracle_overlapping_count(bits, template) -> int:
    bits = [int(b) for b in bits]
    template = [int(b) for b in template]
    m = len(template)
    return sum(1 for i in range(len(bits) - m + 1) if bits[i : i + m] == template)


def oracle_overlapping_law_enumerated(m: int, block_len: int) -> np.ndarray:
    """Occurrence classes 0..4 and 5+ of m ones over all 2^M blocks, as fractions."""
    blocks = (np.arange(2**block_len)[:, None] >> np.arange(block_len)[::-1]) & 1
    ones = np.cumsum(np.pad(blocks, ((0, 0), (1, 0))), axis=1)
    hits = np.count_nonzero(ones[:, m:] - ones[:, :-m] == m, axis=1)
    return np.bincount(np.minimum(hits, 5), minlength=6) / 2.0**block_len


def oracle_overlapping_law_counts(m: int, block_len: int) -> list[float]:
    """The same classes from integer counts of bit strings, one bit at a time.

    A string is tracked by its current run of ones (capped at m) and its
    occurrences so far (capped at 5); the counts are Python ints, divided
    by 2^M only at the end.
    """
    counts = {(0, 0): 1}
    for _ in range(block_len):
        grown: dict[tuple[int, int], int] = {}
        for (run, hits), k in counts.items():
            grown[0, hits] = grown.get((0, hits), 0) + k
            key = (min(run + 1, m), min(hits + (run + 1 >= m), 5))
            grown[key] = grown.get(key, 0) + k
        counts = grown
    classes = [0] * 6
    for (_, hits), k in counts.items():
        classes[hits] += k
    return [k / 2**block_len for k in classes]


def oracle_universal_fn(bits, length: int, q: int, k: int) -> float:
    bits = [int(b) for b in bits]
    table: dict[int, int] = {}
    total = 0.0
    for i in range(q + k):
        value = 0
        for b in bits[i * length : (i + 1) * length]:
            value = (value << 1) | b
        position = i + 1
        if position > q:
            total += math.log2(position - table.get(value, 0))
        table[value] = position
    return total / k


def oracle_cyclic_counts(bits, m: int) -> dict:
    """Occurrences of every cyclic m-bit window, keyed by its MSB-first value."""
    bits = [int(b) for b in bits]
    ext = bits + bits[: m - 1]
    counts: dict[int, int] = {}
    for i in range(len(bits)):
        value = 0
        for b in ext[i : i + m]:
            value = (value << 1) | b
        counts[value] = counts.get(value, 0) + 1
    return counts


def pattern_values(bits, m: int, wrap: bool = False) -> np.ndarray:
    """Value of every m-bit window by shift-or, most significant bit first.

    Plain windows start at 0..n-m.  Wrapped ones start at every position
    and read indices mod n, so the sequence may be shorter than the window.
    """
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.size
    count = n if wrap else n - m + 1
    ext = bits[np.arange(count + m - 1) % n]
    values = np.zeros(count, dtype=np.int64)
    for k in range(m):
        values <<= 1
        values |= ext[k : k + count]
    return values


def oracle_walk(bits) -> list:
    """Partial sums of the +/-1 walk, one Python int at a time."""
    s = 0
    walk = []
    for b in bits:
        s += 2 * int(b) - 1
        walk.append(s)
    return walk


def oracle_phi(bits, m: int) -> float:
    bits = [int(b) for b in bits]
    n = len(bits)
    ext = bits + bits[: m - 1]
    counts: dict[tuple, int] = {}
    for i in range(n):
        key = tuple(ext[i : i + m])
        counts[key] = counts.get(key, 0) + 1
    return sum(c / n * math.log(c / n) for c in counts.values())


def oracle_psi_sq(bits, m: int) -> float:
    if m <= 0:
        return 0.0
    bits = [int(b) for b in bits]
    n = len(bits)
    ext = bits + bits[: m - 1]
    counts: dict[tuple, int] = {}
    for i in range(n):
        key = tuple(ext[i : i + m])
        counts[key] = counts.get(key, 0) + 1
    return 2.0**m / n * sum(c * c for c in counts.values()) - n


def oracle_walk_cycles(bits):
    """(J, cycles) where cycles is a list of lists of partial-sum values."""
    cycles = []
    current = []
    for value in oracle_walk(bits):
        current.append(value)
        if value == 0:
            cycles.append(current)
            current = []
    if current:
        cycles.append(current)
    return len(cycles), cycles


def oracle_excursion_pvalues(bits, igamc):
    """Per-state excursion P-values from the explicit cycle segmentation."""
    j, cycles = oracle_walk_cycles(bits)
    pvalues = []
    for x in (-4, -3, -2, -1, 1, 2, 3, 4):
        freq = [0] * 6
        for cycle in cycles:
            visits = sum(1 for v in cycle if v == x)
            freq[min(visits, 5)] += 1
        a = abs(x)
        pi0 = 1.0 - 1.0 / (2.0 * a)
        pi = [pi0] + [pi0 ** (k - 1) / (4.0 * a * a) for k in range(1, 5)] + [pi0**4 / (2.0 * a)]
        chi2 = sum((freq[k] - j * pi[k]) ** 2 / (j * pi[k]) for k in range(6))
        pvalues.append(igamc(2.5, chi2 / 2.0))
    return j, pvalues


def oracle_variant_pvalues(bits):
    j, cycles = oracle_walk_cycles(bits)
    visits: dict[int, int] = {}
    for cycle in cycles:
        for v in cycle:
            visits[v] = visits.get(v, 0) + 1
    pvalues = []
    for x in [x for x in range(-9, 10) if x != 0]:
        xi = visits.get(x, 0)
        pvalues.append(math.erfc(abs(xi - j) / math.sqrt(2.0 * j * (4.0 * abs(x) - 2.0))))
    return j, pvalues


# ---------------------------------------------------------------- device stepping
#
# The package's draws, one step at a time: a step (a pulse, a sweep point)
# takes its switch uniform from rng.switch and its drift normal from
# rng.drift.  The switch uniform u takes L to H over an exposure t exactly
# when u < 1 - exp(-hazard * t).


def hazard(params, i: float, drift: float) -> float:
    """L->H switching rate (1/ms) at current i under the given drift.

    Zero at or below the drift-shifted valley, exponential in current up to
    the drift-shifted peak, infinite above it (deterministic switch).
    """
    if i <= params.i_valley + drift:
        return 0.0
    if i > params.i_peak + drift:
        return math.inf
    return params.lambda0 * math.exp((i - (params.i_peak + drift)) / params.i_scale)


def switch_probability(params, amplitude, drift, exposure):
    """P(L->H within `exposure` ms at constant current), elementwise.

    The hazard over a constant exposure, 1 - exp(-rate * exposure): exactly
    0 at or below the drift-shifted valley and 1 above the drift-shifted
    peak.
    """
    peak = params.i_peak + drift
    valley = params.i_valley + drift
    with np.errstate(over="ignore"):
        rate = params.lambda0 * np.exp((amplitude - peak) / params.i_scale)
        p = -np.expm1(-rate * exposure)
    return np.where(amplitude <= valley, 0.0, np.where(amplitude > peak, 1.0, p))


def switch_current_distribution(params, currents, dt: float) -> list:
    """P(a forward staircase sweep from drift 0 first switches at each grid point).

    The device survives every earlier dwell of dt ms and switches during
    this one; past the peak the switch is certain, so later points get 0.
    """
    probs = []
    survive = 1.0
    for i in currents:
        p_here = -math.expm1(-hazard(params, float(i), 0.0) * dt)
        probs.append(survive * p_here)
        survive *= 1.0 - p_here
    return probs


def switching_hazard(params, state, i: float) -> float:
    """hazard at the state's drift; defined on the L branch only."""
    if state.branch is not Branch.L:
        raise ValueError("switching hazard is defined on the L branch")
    return hazard(params, i, state.drift)


def next_branch(params, branch, drift: float, i: float, exposure: float, u: float):
    """Branch after `exposure` ms at constant current i, given the switch uniform u.

    H falls to L below the valley threshold and is absorbing above it
    (hysteresis); L rises to H with probability 1 - exp(-rate * exposure).
    """
    if branch is Branch.H:
        return Branch.L if i < params.i_valley + drift else Branch.H
    return Branch.H if u < -math.expm1(-hazard(params, i, drift) * exposure) else Branch.L


def drift_step(state, params, dt: float, rng):
    """Advance the drift by dt ms as a mean-reverting walk, from one normal.

    drift' = drift*exp(-dt/tau) + sigma*sqrt(1 - exp(-2dt/tau))*z, with z the
    next standard normal of rng.drift, so the stationary standard deviation
    is drift_sigma.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    tau_ms = params.drift_tau * 1000.0
    decay = math.exp(-dt / tau_ms)
    scatter = params.drift_sigma * math.sqrt(-math.expm1(-2.0 * dt / tau_ms))
    z = float(rng.drift.standard_normal())
    return DeviceState(state.branch, state.drift * decay + scatter * z)


def ar1_oracle(z, decay: float, scatter: float, drift: float) -> list:
    """The drift path one Python float at a time: drift' = drift*decay + scatter*z.

    Returns the count + 1 drifts, the start first, as drift_step computes
    each step.
    """
    path = [float(drift)]
    for x in z:
        path.append(path[-1] * decay + scatter * float(x))
    return path


# the row scan's stated bound against the sequential recurrence, relative to
# the path's magnitude
DRIFT_TOL = 1e-12


def drift_close(got: float, ref: float, scale: float) -> bool:
    """got within DRIFT_TOL of ref, relative to the larger of |ref| and scale.

    scale is the magnitude of the path that led to ref, say drift_sigma.
    """
    return abs(got - ref) <= DRIFT_TOL * max(abs(ref), scale)


def step_device(state, params, i: float, dt: float, rng):
    """One step of dt ms at current i: the switch uniform, then the drift step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    branch = next_branch(params, state.branch, state.drift, i, dt, rng.switch.random())
    after = drift_step(state, params, dt, rng)
    return DeviceState(branch, after.drift)


def run_pulse(state, params, cfg, rng):
    """One pulse period read as a bit: (post-pulse state, bit).

    The off phase resets to L, the switch uniform is read against the
    probability at the width, and the drift steps once per period.
    """
    u = rng.switch.random()
    p = -math.expm1(-hazard(params, cfg.amplitude, state.drift) * cfg.width)
    bit = int(u < p)
    after = drift_step(state, params, cfg.period, rng)
    return DeviceState(Branch.H if bit else Branch.L, after.drift), bit


def _copy_state(dst, src) -> None:
    dst.branch, dst.drift = src.branch, src.drift


def _branch_voltage(params, branch, i: float) -> float:
    # the branch lines with no range check: under drift L runs past i_peak
    if branch is Branch.L:
        return i * params.v_peak / params.i_peak
    return params.v_valley + (i - params.i_valley) / params.g_high


def sweep_current_oracle(params, start, stop, steps, dt_per_step, rng, state=None):
    """Staircase sweep, one step_device call per point.

    Returns (currents, voltages, switch_current); `state`, if given, seeds
    the sweep and is advanced in place.
    """
    work = DeviceState()
    if state is not None:
        _copy_state(work, state)
    if work.branch is Branch.L and start > params.i_peak + work.drift:
        work.branch = Branch.H
    elif work.branch is Branch.H and start < params.i_valley + work.drift:
        work.branch = Branch.L
    currents = np.linspace(start, stop, steps)
    voltages = np.empty(steps, dtype=np.float64)
    switch_current = None
    for k in range(steps):
        i = float(currents[k])
        drift_before = work.drift
        prev = work.branch
        work = step_device(work, params, i, dt_per_step, rng)
        if work.branch is not prev and switch_current is None:
            if work.branch is Branch.H:
                switch_current = min(i, params.i_peak + drift_before)
            else:
                switch_current = params.i_valley + drift_before
        voltages[k] = _branch_voltage(params, work.branch, i)
    if state is not None:
        _copy_state(state, work)
    return currents, voltages, switch_current


@dataclass(frozen=True)
class SweepTrace:
    """Recorded (current, voltage) points from one current ramp."""

    currents: np.ndarray
    voltages: np.ndarray
    switch_current: float | None


def sweep_current(params, start, stop, steps, dt_per_step, rng, state=None) -> SweepTrace:
    """One sweep through device.sweep_branches, the voltage read off each point's branch.

    Not an independent reference: it is the package's sweep at one repeat,
    reading only the first group, so tests can chain single sweeps on one
    state and set them against sweep_current_oracle.  If `state` is given it
    seeds the sweep and is advanced in place.
    """
    currents, groups = device.sweep_branches(params, start, stop, steps, dt_per_step, 1, rng, state)
    (high,), (switch_current,) = next(groups)
    voltages = np.where(
        high,
        device._branch_voltage_unchecked(params, Branch.H, currents),
        device._branch_voltage_unchecked(params, Branch.L, currents),
    )
    return SweepTrace(currents=currents, voltages=voltages, switch_current=switch_current)


# ---------------------------------------------------------------- bias control


def closed_loop_oracle(state, params, cfg, ctrl, count, rng):
    """One acquire_bits call per window at the command then in effect.

    The command starts at cfg.amplitude, and the last window holds what is
    left of `count`.  Returns (bits, ratios, amplitudes) as arrays and
    advances `state` in place.
    """
    chunks, ratios, amplitudes = [], [], []
    amplitude = cfg.amplitude
    for lo in range(0, count, ctrl.window):
        window_cfg = replace(cfg, amplitude=amplitude)
        chunk = acquire_bits(state, params, window_cfg, min(ctrl.window, count - lo), rng)
        ratio = chunk.ones_fraction()
        ratios.append(ratio)
        amplitudes.append(amplitude)
        amplitude = next_amplitude(ctrl, amplitude, ratio)
        chunks.append(chunk.to_array())
    return np.concatenate(chunks), np.array(ratios), np.array(amplitudes)


# ---------------------------------------------------------------- serial chunks


def _draw_steps(params, drift: float, count: int, dt: float, rng):
    """Draw `count` successive steps of dt ms in line, starting from `drift`.

    The in-line serial draw: each step's switch uniform comes from
    rng.switch and its drift normal from rng.drift, as acquisition draws
    them (the uniforms a block at a time, the normals a chunk ahead on
    device._drawn's thread), and _drift_scan runs
    the exact discretisation of the mean-reverting walk; with drift_sigma
    = 0 it only decays.  Returns
    (drifts, u, final): the drift entering each step, the switch uniforms
    and the drift after the last step.
    """
    decay, scatter = _walk_terms(params, dt)
    u = np.empty(count)
    z = np.empty(_scan_size(count, decay))
    rng.switch.random(out=u)
    # the normals follow the scan buffer's leading slot, which takes `drift`
    rng.drift.standard_normal(out=z[1 : count + 1])
    path = _drift_scan(z, count, decay, scatter, drift)
    return path[:-1], u, float(path[-1])


def serial_draws(state, params, cfg, count: int, rng):
    """Yield each chunk's (drifts, u), drawing every chunk in line.

    Chunks of up to device._CHUNK_PULSES pulses, each one _draw_steps call
    from the drift the previous chunk ended on.  Advances state.drift once
    exhausted.
    """
    drift = state.drift
    for done in range(0, count, device._CHUNK_PULSES):
        m = min(device._CHUNK_PULSES, count - done)
        drifts, u, drift = _draw_steps(params, drift, m, cfg.period, rng)
        yield drifts, u
    state.drift = drift


def serial_threshold_chunks(state, params, cfg, count: int, rng):
    """Yield each chunk's thresholds from serial_draws.

    The reset condition is checked on every pulse.
    """
    for drifts, u in serial_draws(state, params, cfg, count, rng):
        if not np.all(params.i_valley + drifts > 0.0):
            raise ModelRangeError("valley at or below zero current")
        yield _switch_thresholds(params, drifts, u, cfg.width)


def serial_acquire(state, params, cfg, count: int, rng):
    """acquire_bits's bits, as a uint8 array, from the serial chunks."""
    chunks = serial_threshold_chunks(state, params, cfg, count, rng)
    bits = np.concatenate([cfg.amplitude > t for t in chunks]).astype(np.uint8)
    state.branch = Branch.H if bits[-1] else Branch.L
    return bits


def serial_closed_loop(state, params, cfg, ctrl, count: int, rng):
    """run_closed_loop's (bits, ratios, amplitudes) from the serial chunks."""
    window = ctrl.window
    thresholds = np.concatenate(list(serial_threshold_chunks(state, params, cfg, count, rng)))
    bits, ratios, amplitudes = [], [], []
    amplitude = cfg.amplitude
    for lo in range(0, count, window):
        piece = amplitude > thresholds[lo : lo + window]
        bits.append(piece)
        amplitudes.append(amplitude)
        ratio = np.count_nonzero(piece) / piece.size
        ratios.append(ratio)
        amplitude = next_amplitude(ctrl, amplitude, ratio)
    bits = np.concatenate(bits).astype(np.uint8)
    state.branch = Branch.H if bits[-1] else Branch.L
    return bits, np.array(ratios), np.array(amplitudes)


# ---------------------------------------------------------------- truth replay


def true_switch_probabilities(state, params, cfg, count: int, rng, amplitudes=None, window=None):
    """Each pulse's true switch probability and switch uniform, (p, u).

    Replays a run of `count` pulses from fresh streams of its seed and a
    copy of its starting state: the drift comes from serial_draws, chunk by
    chunk as acquire_bits draws it, and p from switch_probability at the
    pulse's amplitude.  That amplitude is cfg.amplitude, or for a closed loop
    its returned `amplitudes`, each held over a window of `window` pulses.
    Advances `state` in place.
    """
    drifts, u = map(np.concatenate, zip(*serial_draws(state, params, cfg, count, rng)))
    amplitude = cfg.amplitude if amplitudes is None else np.repeat(amplitudes, window)[:count]
    return switch_probability(params, amplitude, drifts, cfg.width), u


def block_min_entropy(p, n: int) -> np.ndarray:
    """True min-entropy of each whole n-pulse block: sum of -log2 max(p, 1 - p)."""
    h = -np.log2(np.maximum(p, 1.0 - p))
    return h[: h.size // n * n].reshape(-1, n).sum(axis=1)
