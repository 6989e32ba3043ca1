"""Independent reference implementations used as test oracles.

Everything here is deliberately literal (plain loops, dict counting, direct
summation) and shares no code with the package's vectorized paths.  The
device stepping references (hazard, step_device, drift_step, run_pulse) draw
as the package does, from the stream pair of rtdrng.device.streams: a step's
switch uniform is one scalar rng.switch.random() and its drift normal one
scalar rng.drift.standard_normal().  The sweep and trace references are built
on them with one DeviceState per step; ar1_oracle steps the drift
recurrence alone, one Python float at a time.  The closed-loop reference is
the per-window loop over the public acquire_bits and next_amplitude.

The serial chunk references are the exception: they are a reference for the
scheduling of acquisition, not for its arithmetic.  They run the chunk loop
with every draw in line, through the package's own _draw_steps and
_switch_thresholds, so acquisition must match them bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

import rtdrng.pulses as pulses
from rtdrng.control import next_amplitude
from rtdrng.device import Branch, DeviceState, ModelRangeError, _draw_steps, _switch_thresholds
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

    The per-block reference for the chunked extract GEMM, as an int64 product
    over the seed's sliding windows.
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
    return DeviceState(state.branch, state.drift * decay + scatter * z, state.clock)


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
    return DeviceState(branch, after.drift, state.clock + dt)


def run_pulse(state, params, cfg, rng):
    """One pulse period read as a bit: (post-pulse state, bit).

    The off phase resets to L, the switch uniform is read against the
    probability at width*sample_offset, and the drift steps once per period.
    """
    u = rng.switch.random()
    p = -math.expm1(-hazard(params, cfg.amplitude, state.drift) * cfg.width * cfg.sample_offset)
    bit = int(u < p)
    after = drift_step(state, params, cfg.period, rng)
    return DeviceState(Branch.H if bit else Branch.L, after.drift, state.clock + cfg.period), bit


def _copy_state(dst, src) -> None:
    dst.branch, dst.drift, dst.clock = src.branch, src.drift, src.clock


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


def trace_pulses_oracle(state, params, cfg, n_pulses, rng):
    """Pulse-train voltage trace, one pulse and one sub-step at a time.

    Each pulse draws as run_pulse does; the off sub-steps step the branch at
    zero current, and each on sub-step reads the branch after the on-time
    elapsed so far.  Returns (times, voltages) and advances `state` in place.
    """
    n_off = max(1, round(cfg.off_time / cfg.substep))
    dt_off = cfg.off_time / n_off
    n_on = max(1, round(cfg.width / cfg.substep))
    dt_on = cfg.width / n_on
    work = DeviceState()
    _copy_state(work, state)
    times = []
    volts = []
    t = work.clock
    for _ in range(n_pulses):
        u = rng.switch.random()
        branch = work.branch
        for _ in range(n_off):
            branch = next_branch(params, branch, work.drift, 0.0, dt_off, u)
            t += dt_off
            times.append(t)
            volts.append(0.0)
        for j in range(1, n_on + 1):
            branch = next_branch(params, branch, work.drift, cfg.amplitude, j * dt_on, u)
            t += dt_on
            times.append(t)
            volts.append(_branch_voltage(params, branch, cfg.amplitude))
        work = drift_step(work, params, cfg.period, rng)
        work.branch = branch
    work.clock = t
    _copy_state(state, work)
    return np.asarray(times), np.asarray(volts)


# ---------------------------------------------------------------- bias control


def closed_loop_oracle(state, params, cfg, ctrl, n_windows, rng):
    """One acquire_bits call per window at the command then in effect.

    Returns (bits, ratios, amplitudes) as arrays and advances `state` in place.
    """
    chunks, ratios, amplitudes = [], [], []
    amplitude = ctrl.amplitude
    for _ in range(n_windows):
        window_cfg = replace(cfg, amplitude=amplitude)
        chunk = acquire_bits(state, params, window_cfg, ctrl.window, rng)
        ratio = chunk.ones_fraction()
        ratios.append(ratio)
        amplitudes.append(amplitude)
        amplitude = next_amplitude(ctrl, amplitude, ratio)
        chunks.append(chunk.to_array())
    return np.concatenate(chunks), np.array(ratios), np.array(amplitudes)


# ---------------------------------------------------------------- serial chunks


def serial_threshold_chunks(state, params, cfg, count: int, rng):
    """Yield each chunk's thresholds, drawing every chunk in line.

    Chunks of up to pulses._CHUNK_PULSES pulses, each one _draw_steps call
    from the drift the previous chunk ended on, with the reset condition
    checked on every pulse.  Advances state.drift and state.clock once
    exhausted.
    """
    exposure = cfg.width * cfg.sample_offset
    drift = state.drift
    done = 0
    while done < count:
        m = min(pulses._CHUNK_PULSES, count - done)
        drifts, u, drift = _draw_steps(params, drift, m, cfg.period, rng)
        if not np.all(params.i_valley + drifts > 0.0):
            raise ModelRangeError("valley at or below zero current")
        yield _switch_thresholds(params, drifts, u, exposure)
        done += m
    state.drift = drift
    state.clock = state.clock + count * cfg.period


def serial_acquire(state, params, cfg, count: int, rng):
    """acquire_bits's bits, as a uint8 array, from the serial chunks."""
    chunks = serial_threshold_chunks(state, params, cfg, count, rng)
    bits = np.concatenate([cfg.amplitude > t for t in chunks]).astype(np.uint8)
    state.branch = Branch.H if bits[-1] else Branch.L
    return bits


def serial_closed_loop(state, params, cfg, ctrl, n_windows: int, rng):
    """run_closed_loop's (bits, ratios, amplitudes) from the serial chunks."""
    window = ctrl.window
    chunks = serial_threshold_chunks(state, params, cfg, n_windows * window, rng)
    thresholds = np.concatenate(list(chunks))
    bits, ratios, amplitudes = [], [], []
    amplitude = ctrl.amplitude
    for k in range(n_windows):
        piece = amplitude > thresholds[k * window : (k + 1) * window]
        bits.append(piece)
        amplitudes.append(amplitude)
        ratio = np.count_nonzero(piece) / window
        ratios.append(ratio)
        amplitude = next_amplitude(ctrl, amplitude, ratio)
    bits = np.concatenate(bits).astype(np.uint8)
    state.branch = Branch.H if bits[-1] else Branch.L
    return bits, np.array(ratios), np.array(amplitudes)
