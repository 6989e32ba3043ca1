"""The drift row scan against the sequential recurrence.

_drift_scan runs drift' = decay * drift + scatter * z as a row scan; the
reference steps it one Python float at a time.  Decays span the whole
[0, 1]: 0 and values below 2**-64 (one-step rows), mid-range decays whose
rows are shortened to keep decay**-(w - 1) within 2**64, a pulse period
against the default drift time, a decay 1e-12 below 1, and 1.
"""

import math

import numpy as np
import pytest

from oracles import DRIFT_TOL, _draw_steps, ar1_oracle
from rtdrng.device import (
    _SCAN_ROW,
    _SCAN_SPAN,
    DeviceParams,
    _drift_scan,
    _scan_geometry,
    _scan_size,
    streams,
)

DECAYS = [0.0, 2.0**-700, 1e-30, 0.5, 0.9, math.exp(-2 / 60000), math.exp(-1e-12), 1.0]


def _row_width(decay):
    # the longest row up to _SCAN_ROW whose last power stays >= _SCAN_SPAN
    w, power = 1, 1.0
    while w < _SCAN_ROW and power * decay >= _SCAN_SPAN:
        power *= decay
        w += 1
    return w


def _scan(z, decay, scatter, drift):
    # _drift_scan over the given normals, in a buffer of the size it scans,
    # after the leading slot that takes the entering drift
    buf = np.empty(_scan_size(z.size, decay))
    buf[1 : z.size + 1] = z
    return _drift_scan(buf, z.size, decay, scatter, drift)


@pytest.mark.parametrize("decay", DECAYS)
def test_scan_matches_sequential_recurrence(decay):
    w = _row_width(decay)
    for count in sorted({1, 2, 3, 299, w - 1, w, w + 1, 2**18 + 3} - {0}):
        z = np.random.default_rng(count).standard_normal(count)
        got = _scan(z, decay, 0.01, 0.05)
        ref = np.array(ar1_oracle(z, decay, 0.01, 0.05))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= DRIFT_TOL * np.max(np.abs(ref)), (decay, count)
        # the first step is the recurrence's own expression
        assert got[:2].tolist() == ref[:2].tolist()


def test_zero_decay_is_scatter_times_normal():
    z = np.random.default_rng(3).standard_normal(5000)
    path = _scan(z, 0.0, 0.03, 0.2)
    assert path[0] == 0.2
    assert np.array_equal(path[1:], 0.03 * z)


def test_zero_sigma_from_zero_drift_stays_zero():
    params = DeviceParams(drift_sigma=0.0)
    drifts, _, final = _draw_steps(params, 0.0, 5000, 2.0, streams(4))
    assert final == 0.0
    assert np.all(drifts == 0.0)



def test_scan_geometry_is_shared_read_only():
    # one cached table serves every walk with this decay, so no caller may write it
    powers, w = _scan_geometry(0.9)
    assert _scan_geometry(0.9)[0] is powers
    assert w == _row_width(0.9)
    with pytest.raises(ValueError):
        powers[1] = 0.0
