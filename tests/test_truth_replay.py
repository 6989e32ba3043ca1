"""The truth replay: each pulse's true switch probability from a run's own draws.

The simulator knows the probability every pulse switched with, so the
entropy a block of raw bits holds is known, not estimated.  These tests
check the replay against the closed form and against the bits a run wrote,
and record where auto-mode extraction claims more than that truth.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import block_min_entropy, true_switch_probabilities
from rtdrng.config import default_config
from rtdrng.control import default_controller, run_closed_loop
from rtdrng.device import DeviceState, streams
from rtdrng.extractor import ExtractorConfig, choose_block_params, min_entropy_estimate
from rtdrng.pulses import acquire_bits

COUNT = 2**20
SEED = 1


def _closed_form_h(params, amplitude: float, exposure: float) -> float:
    """-log2 max(p, 1 - p) of one pulse at zero drift, from the hazard rate."""
    if amplitude <= params.i_valley or amplitude > params.i_peak:
        return 0.0
    rate = params.lambda0 * math.exp((amplitude - params.i_peak) / params.i_scale)
    p = -math.expm1(-rate * exposure)
    return -math.log2(max(p, 1.0 - p))


def _run(drift_sigma: float, closed: bool, count: int):
    """(bits, p, u, amplitudes, window) of a seed-1 run from zero drift and its replay."""
    cfg = default_config()
    params = dataclasses.replace(cfg.device, drift_sigma=drift_sigma)
    if closed:
        ctrl = default_controller(params)
        stream, _, amplitudes = run_closed_loop(
            DeviceState(), params, cfg.pulse, ctrl, count, streams(SEED)
        )
        window = ctrl.window
    else:
        stream = acquire_bits(DeviceState(), params, cfg.pulse, count, streams(SEED))
        amplitudes = window = None
    p, u = true_switch_probabilities(
        DeviceState(), params, cfg.pulse, count, streams(SEED), amplitudes, window
    )
    return stream, p, u, amplitudes, window


@pytest.fixture(scope="module")
def open_loop_drifting():
    return _run(0.008, closed=False, count=COUNT)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_blocks_match_the_closed_form_without_drift(closed):
    cfg = default_config()
    params = dataclasses.replace(cfg.device, drift_sigma=0.0)
    exposure = cfg.pulse.width * cfg.pulse.sample_offset
    # the closed loop's last window is short and makes no whole block
    _, p, _, amplitudes, window = _run(0.0, closed, count=10_250)
    if closed:
        # blocks aligned to the controller's windows, each at one command
        n = window
        expected = [n * _closed_form_h(params, a, exposure) for a in amplitudes[:-1]]
    else:
        n = 1000
        expected = [n * _closed_form_h(params, cfg.pulse.amplitude, exposure)] * 10
    blocks = block_min_entropy(p, n)
    assert blocks.size == len(expected)
    assert blocks == pytest.approx(expected, rel=1e-12)
    assert min(expected) > 0.0


def test_replayed_bits_are_the_written_bits(open_loop_drifting):
    stream, p, u, _, _ = open_loop_drifting
    mismatched = np.count_nonzero(stream.to_array() != (u < p))
    assert mismatched <= 1e-6 * COUNT


def test_replayed_bits_are_the_written_bits_in_the_closed_loop():
    stream, p, u, amplitudes, window = _run(0.008, closed=True, count=COUNT // 4 + 123)
    assert amplitudes.size == -(-len(stream) // window)
    assert np.unique(amplitudes).size > 1  # the command moved
    mismatched = np.count_nonzero(stream.to_array() != (u < p))
    assert mismatched <= 1e-6 * len(stream)


@pytest.mark.xfail(
    strict=True,
    reason="auto mode sizes l from a whole-stream estimate that drift makes unsound",
)
def test_auto_mode_claims_no_more_than_the_worst_blocks_hold(open_loop_drifting):
    stream, p, _, _, _ = open_loop_drifting
    ext = ExtractorConfig(l=None)
    l = choose_block_params(min_entropy_estimate(stream), ext.n, ext.epsilon_exponent)
    true_1pct = float(np.quantile(block_min_entropy(p, ext.n), 0.01))
    assert l + 2 * ext.epsilon_exponent <= true_1pct
