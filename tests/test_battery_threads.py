"""The battery's spectral helper thread: same results, same errors, nothing left running.

`run_battery` runs the spectral test on a thread named ``rtdrng-spectral``
beside the tests of small working set, joins it, and then runs the rest.
Every P-value must equal the test run alone, bit for bit, and every exit
path must join the helper.
"""

import threading

import numpy as np
import pytest

import rtdrng.nist.battery as battery
from rtdrng.bits import BitStream
from rtdrng.nist.battery import run_battery
from rtdrng.nist.sequence import battery_sequences
from rtdrng.nist.statistical_tests import (
    TEST_ORDER,
    SequenceTooShortError,
    TestId,
    TestParams,
    run_test,
)

HELPER = "rtdrng-spectral"
SMALL = TestParams(n=120_000, universal_l=4, serial_m=8)  # every test applies at 120k bits


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def hexed(result):
    return (result.test, result.labels, result.applicable, [p.hex() for p in result.pvalues])


def helpers():
    return [t for t in threading.enumerate() if t.name == HELPER]


@pytest.mark.parametrize(
    "params", [TestParams(n=550_000), TestParams(), SMALL], ids=["550k", "1M", "120k"]
)
def test_equal_to_each_test_alone(params):
    # alone: one array a call; in a group: the holders of one packed stream,
    # whose Berlekamp-Massey pass serves both sequences
    count = 2
    bits = random_bits(count * params.n, params.n)
    stream = BitStream.from_array(bits)
    grouped = battery_sequences(stream, count, params.n)
    for i, seq in enumerate(grouped):
        row = bits[i * params.n : (i + 1) * params.n]
        want = [hexed(run_test(test, params, row)) for test in TEST_ORDER]
        assert [hexed(r) for r in run_battery(row, params)] == want
        assert [hexed(r) for r in run_battery(seq, params)] == want
    assert helpers() == []


def test_short_sequence_raises_the_spectral_error():
    # Rank also rejects 999 bits, on the calling thread; the spectral
    # test comes first in the run order, so its error is the one raised
    with pytest.raises(SequenceTooShortError, match="spectral test"):
        run_battery(random_bits(999, 1), SMALL)
    assert helpers() == []


def test_helper_runs_the_module_run_test(monkeypatch):
    seen = []

    def recording(test, params, bits):
        seen.append((test, threading.current_thread().name))
        return run_test(test, params, bits)

    monkeypatch.setattr(battery, "run_test", recording)
    run_battery(random_bits(SMALL.n, 2), SMALL)
    assert sorted(test.value for test, _ in seen) == sorted(test.value for test in TEST_ORDER)
    assert [name for test, name in seen if test is TestId.FFT] == [HELPER]
    assert {name for test, name in seen if test is not TestId.FFT} == {"MainThread"}


def test_spectral_failure_reaches_the_caller(monkeypatch):
    class Broken(RuntimeError):
        pass

    def failing(test, params, bits):
        if test is TestId.FFT:
            raise Broken("transform failed")
        return run_test(test, params, bits)

    monkeypatch.setattr(battery, "run_test", failing)
    with pytest.raises(Broken, match="transform failed"):
        run_battery(random_bits(SMALL.n, 3), SMALL)
    assert helpers() == []


def test_caller_failure_joins_the_helper_first(monkeypatch):
    # the spectral test holds until the calling thread's failure is on its
    # way; the failure must not leave run_battery before the helper ends
    failing = threading.Event()
    finished = []

    class Broken(RuntimeError):
        pass

    def slow_or_failing(test, params, bits):
        if test is TestId.FFT:
            assert failing.wait(timeout=30)
            result = run_test(test, params, bits)
            finished.append(test)
            return result
        if test is TestId.Rank:
            failing.set()
            raise Broken("rank failed")
        return run_test(test, params, bits)

    monkeypatch.setattr(battery, "run_test", slow_or_failing)
    with pytest.raises(Broken, match="rank failed"):
        run_battery(random_bits(SMALL.n, 4), SMALL)
    assert finished == [TestId.FFT]
    assert helpers() == []


def test_both_failing_raises_the_spectral_error(monkeypatch):
    class SpectralBroken(RuntimeError):
        pass

    def failing(test, params, bits):
        if test is TestId.FFT:
            raise SpectralBroken("transform failed")
        if test is TestId.Frequency:
            raise ValueError("frequency failed")
        return run_test(test, params, bits)

    monkeypatch.setattr(battery, "run_test", failing)
    with pytest.raises(SpectralBroken) as info:
        run_battery(random_bits(SMALL.n, 5), SMALL)
    assert isinstance(info.value.__context__, ValueError)
    assert helpers() == []

