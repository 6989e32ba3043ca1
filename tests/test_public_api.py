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
]

# names with no caller, deleted from the package
REMOVED = {
    "rtdrng": [
        "concat_streams",
        "controller_update",
        "h_fraction_histogram",
        "iv_current",
        "branch_voltage",
        "BranchRangeError",
        "sweep_switch_probabilities",
        "_switch_probability",
        "PulseTrace",
        "trace_pulses",
        "SweepTrace",
        "sweep_current",
    ],
    "rtdrng.bits": ["bit_file"],
    "rtdrng.device": [
        "iv_current",
        "branch_voltage",
        "BranchRangeError",
        "sweep_switch_probabilities",
        "_switch_probability",
        "SweepTrace",
        "sweep_current",
    ],
    "rtdrng.nist": ["erfc", "berlekamp_massey", "gf2_rank", "aperiodic_templates"],
    "rtdrng.nist.gf2": ["berlekamp_massey", "gf2_rank"],
    "rtdrng.pulses": ["PulseTrace", "trace_pulses"],
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
    from rtdrng.device import DeviceState
    from rtdrng.nist.battery import SuiteReport
    from rtdrng.nist.gf2 import __all__ as gf2_all
    from rtdrng.pulses import PulseConfig

    assert not hasattr(BitStream, "from_bytes")
    assert not hasattr(BitStream, "to_bytes")
    assert not hasattr(PulseConfig(), "off_time")
    assert not hasattr(PulseConfig(), "substep")
    assert not hasattr(PulseConfig(), "sample_offset")
    assert not hasattr(DeviceState(), "clock")
    assert not hasattr(SuiteReport, "pvalue_fraction_below_alpha")
    assert "linear_complexities" not in gf2_all
