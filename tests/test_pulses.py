import math

import numpy as np
import pytest

import rtdrng.pulses as pulses
from oracles import drift_close, run_pulse
from rtdrng.bits import BitStream
from rtdrng.device import (
    Branch,
    DeviceParams,
    DeviceState,
    ModelRangeError,
    streams,
    sweep_current,
)
from rtdrng.pulses import (
    PulseConfig,
    acquire_bits,
    trace_pulses,
    window_fractions,
)

P = DeviceParams()
P0 = DeviceParams(drift_sigma=0.0)
CFG = PulseConfig(amplitude=1.50, width=1.0)


def closed_form_p(params, amplitude, exposure):
    rate = params.lambda0 * math.exp((amplitude - params.i_peak) / params.i_scale)
    return -math.expm1(-rate * exposure)


class TestPulseConfig:
    def test_defaults(self):
        assert CFG.duty_cycle == 0.5
        assert CFG.sample_offset == 1.0
        assert CFG.substep == pytest.approx(0.01)
        assert CFG.period == pytest.approx(2.0)
        assert CFG.off_time == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseConfig(amplitude=0.0, width=1.0)
        with pytest.raises(ValueError):
            PulseConfig(amplitude=1.0, width=1.0, duty_cycle=1.0)
        with pytest.raises(ValueError):
            PulseConfig(amplitude=1.0, width=1.0, sample_offset=1.5)
        with pytest.raises(ValueError):
            PulseConfig(amplitude=1.0, width=1.0, substep=2.0)


class TestHardBounds:
    def test_below_valley_always_low(self):
        cfg = PulseConfig(amplitude=P.i_valley, width=1.0)
        for seed in range(10**4):
            bits = acquire_bits(DeviceState(), P0, cfg, 1, streams(seed))
            assert bits.to_array()[0] == 0

    def test_above_peak_always_high(self):
        cfg = PulseConfig(amplitude=P.i_peak * 1.01, width=1.0)
        for seed in range(10**4):
            bits = acquire_bits(DeviceState(), P0, cfg, 1, streams(seed))
            assert bits.to_array()[0] == 1


class TestReset:
    def test_off_phase_clears_previous_high_state(self):
        # the zero-current off phase restarts every pulse from L, so a device
        # left in H still reads 0 at sub-valley amplitude
        cfg = PulseConfig(amplitude=0.5 * P.i_valley, width=1.0)
        for seed in range(100):
            state = DeviceState(branch=Branch.H)
            bits = acquire_bits(state, P0, cfg, 1, streams(seed))
            assert bits.to_array()[0] == 0 and state.branch is Branch.L


class TestScalarBatchEquivalence:
    def test_bit_identical_with_drift(self):
        rng_a = streams(21)
        rng_b = streams(21)
        state_a = DeviceState()
        state_b = DeviceState()
        stream = acquire_bits(state_a, P, CFG, 3000, rng_a)
        bits = []
        for _ in range(3000):
            state_b, bit = run_pulse(state_b, P, CFG, rng_b)
            bits.append(bit)
        assert stream.to_array().tolist() == bits
        assert drift_close(state_a.drift, state_b.drift, P.drift_sigma)
        assert state_a.branch is state_b.branch
        assert state_a.clock == pytest.approx(state_b.clock)

    def test_chunking_invisible(self, monkeypatch):
        full = acquire_bits(DeviceState(), P, CFG, 1500, streams(5))
        monkeypatch.setattr(pulses, "_CHUNK_PULSES", 257)
        chunked = acquire_bits(DeviceState(), P, CFG, 1500, streams(5))
        assert full == chunked

    def test_state_threads_across_calls(self):
        rng_a = streams(33)
        state = DeviceState()
        first = acquire_bits(state, P, CFG, 700, rng_a)
        second = acquire_bits(state, P, CFG, 300, rng_a)
        rng_b = streams(33)
        combined = acquire_bits(DeviceState(), P, CFG, 1000, rng_b)
        assert np.array_equal(
            np.concatenate([first.to_array(), second.to_array()]), combined.to_array()
        )


class TestAcquire:
    def test_count_contract(self):
        with pytest.raises(ValueError):
            acquire_bits(DeviceState(), P, CFG, 0, streams(0))
        stream = acquire_bits(DeviceState(), P, CFG, 1, streams(0))
        assert len(stream) == 1

    def test_determinism(self):
        a = acquire_bits(DeviceState(), P, CFG, 5000, streams(9))
        b = acquire_bits(DeviceState(), P, CFG, 5000, streams(9))
        assert a == b

    def test_closed_form_bias(self):
        for amplitude, width in ((1.50, 1.0), (1.53, 1.0), (1.45, 2.0)):
            cfg = PulseConfig(amplitude=amplitude, width=width)
            stream = acquire_bits(DeviceState(), P0, cfg, 10**5, streams(17))
            expected = closed_form_p(P0, amplitude, width)
            assert abs(stream.to_array().mean() - expected) < 0.01

    def test_sample_offset_shortens_exposure(self):
        cfg = PulseConfig(amplitude=1.53, width=1.0, sample_offset=0.5)
        stream = acquire_bits(DeviceState(), P0, cfg, 10**5, streams(18))
        expected = closed_form_p(P0, 1.53, 0.5)
        assert abs(stream.to_array().mean() - expected) < 0.01

    def test_monotone_in_amplitude(self):
        amplitudes = np.linspace(1.42, 1.54, 5)
        trials = 10**5
        means = []
        for amplitude in amplitudes:
            cfg = PulseConfig(amplitude=float(amplitude), width=1.0)
            stream = acquire_bits(DeviceState(), P0, cfg, trials, streams(40))
            means.append(stream.to_array().mean())
        se = 3.0 * math.sqrt(0.25 / trials)
        assert all(b >= a - 2 * se for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    def test_monotone_in_width(self):
        widths = (0.25, 0.5, 1.0, 2.0, 4.0)
        trials = 10**5
        means = []
        for width in widths:
            cfg = PulseConfig(amplitude=1.50, width=width)
            stream = acquire_bits(DeviceState(), P0, cfg, trials, streams(41))
            means.append(stream.to_array().mean())
        se = 3.0 * math.sqrt(0.25 / trials)
        assert all(b >= a - 2 * se for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]


class TestTrace:
    def test_low_amplitude_never_leaves_low(self):
        cfg = PulseConfig(amplitude=0.9 * P.i_valley, width=1.0)
        trace = trace_pulses(DeviceState(), P0, cfg, 20, streams(2))
        low = 0.9 * P.i_valley * P.v_peak / P.i_peak
        assert set(np.round(trace.voltages, 9)) <= {0.0, round(low, 9)}

    def test_voltages_in_branch_ranges(self):
        trace = trace_pulses(DeviceState(), P, CFG, 50, streams(3))
        v = trace.voltages
        in_l = (v >= 0.0) & (v <= P.v_peak + 1e-9)
        in_h = v >= P.v_valley - 1e-9
        assert np.all(in_l | in_h)

    def test_times_strictly_increasing(self):
        trace = trace_pulses(DeviceState(), P, CFG, 10, streams(4))
        assert np.all(np.diff(trace.times) > 0)

    def test_intra_pulse_transition_appears(self):
        # over 100 pulses at the working point some pulse switches mid-flight
        trace = trace_pulses(DeviceState(), P0, CFG, 100, streams(6))
        low = 1.50 * P.v_peak / P.i_peak
        high = P.v_valley + (1.50 - P.i_valley) / P.g_high
        samples_per_period = round(CFG.period / CFG.substep)
        n_on = round(CFG.width / CFG.substep)
        found = False
        v = trace.voltages
        for k in range(100):
            on_phase = v[k * samples_per_period + (samples_per_period - n_on) : (k + 1) * samples_per_period]
            has_low = np.any(np.isclose(on_phase, low))
            has_high = np.any(np.isclose(on_phase, high))
            if has_low and has_high:
                found = True
                break
        assert found


@pytest.mark.parametrize(
    "drive",
    [
        lambda state, rng: acquire_bits(state, P0, CFG, 1, rng),
        lambda state, rng: acquire_bits(state, P0, CFG, 10, rng),
        lambda state, rng: trace_pulses(state, P0, CFG, 10, rng),
    ],
    ids=["one_pulse", "acquire_bits", "trace_pulses"],
)
def test_drift_below_zero_valley_rejected(drive):
    # the off phase resets to L only while the valley threshold stays above 0 mA
    state = DeviceState(drift=-0.45)
    with pytest.raises(ModelRangeError):
        drive(state, streams(8))


@pytest.mark.parametrize(
    "drive",
    [
        lambda state, rng: acquire_bits(state, P, CFG, 1000, rng),
        lambda state, rng: sweep_current(P, 0.0, 1.86, 300, 1.0, rng, state=state),
        lambda state, rng: trace_pulses(state, P, CFG, 10, rng),
    ],
    ids=["acquire_bits", "sweep_current", "trace_pulses"],
)
def test_nan_drift_rejected(drive):
    with pytest.raises(ValueError, match="drift must be finite"):
        drive(DeviceState(drift=math.nan), streams(8))


def test_reset_check_rejects_nan_drift():
    with pytest.raises(ModelRangeError):
        pulses._require_reset(P, np.array([0.0, math.nan, 0.0]))


class TestWindows:
    def test_all_ones_single_bin(self):
        stream = BitStream.from_array(np.ones(1000, dtype=np.uint8))
        assert window_fractions(stream, 500).tolist() == [1.0, 1.0]

    def test_alternating_single_bin_at_half(self):
        stream = BitStream.from_array(np.tile([0, 1], 1000).astype(np.uint8))
        assert window_fractions(stream, 500).tolist() == [0.5] * 4

    def test_bernoulli_window_mean(self):
        rng = np.random.default_rng(77)
        bits = (rng.random(500 * 200) < 0.5).astype(np.uint8)
        fractions = window_fractions(BitStream.from_array(bits), 500)
        tol = 3.0 * (0.5 / math.sqrt(500)) / math.sqrt(fractions.size)
        assert abs(fractions.mean() - 0.5) < tol

    def test_short_stream_rejected(self):
        stream = BitStream.from_array(np.ones(10, dtype=np.uint8))
        with pytest.raises(ValueError):
            window_fractions(stream, 500)
        with pytest.raises(ValueError):
            window_fractions(BitStream.from_array(np.empty(0, dtype=np.uint8)), 5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["amplitude", "width"])
def test_non_finite_pulse_setting_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        PulseConfig(**{name: value})
