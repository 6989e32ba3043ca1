"""The public surface: every exported name resolves, and removed names stay removed."""

import importlib

import pytest

# every module that declares __all__
MODULES = [
    "rtdrng",
    "rtdrng.bits",
    "rtdrng.config",
    "rtdrng.control",
    "rtdrng.device",
    "rtdrng.extractor",
    "rtdrng.pulses",
    "rtdrng.sidecar",
    "rtdrng.nist",
    "rtdrng.nist.battery",
    "rtdrng.nist.gf2",
    "rtdrng.nist.special",
    "rtdrng.nist.statistical_tests",
    "rtdrng.nist.templates",
]

# names with no caller, deleted from the package
REMOVED = {
    "rtdrng": ["concat_streams", "controller_update", "h_fraction_histogram"],
    "rtdrng.nist": ["erfc"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for attr in REMOVED[name]:
        assert attr not in module.__all__
        assert not hasattr(module, attr)


def test_removed_members_are_gone():
    from rtdrng.bits import BitStream
    from rtdrng.device import SweepTrace
    from rtdrng.nist.battery import SuiteReport
    from rtdrng.nist.gf2 import __all__ as gf2_all
    from rtdrng.pulses import PulseTrace

    assert not hasattr(BitStream, "from_bytes")
    assert not hasattr(SweepTrace, "points")
    assert not hasattr(PulseTrace, "samples")
    assert not hasattr(SuiteReport, "pvalue_fraction_below_alpha")
    assert "linear_complexities" not in gf2_all
