"""SP 800-22 statistical test battery and its numeric kernels."""

from .battery import (
    SuiteReport,
    analyze_suite,
    pass_threshold,
    render_table,
    report_records,
    run_battery,
)
from .gf2 import berlekamp_massey, gf2_rank
from .special import igamc, normal_cdf
from .statistical_tests import (
    SequenceTooShortError,
    TEST_ORDER,
    TestId,
    TestParams,
    TestResult,
    run_test,
)
from .templates import aperiodic_template_values, aperiodic_templates

__all__ = [
    "SuiteReport",
    "analyze_suite",
    "pass_threshold",
    "render_table",
    "report_records",
    "run_battery",
    "berlekamp_massey",
    "gf2_rank",
    "igamc",
    "normal_cdf",
    "SequenceTooShortError",
    "TEST_ORDER",
    "TestId",
    "TestParams",
    "TestResult",
    "run_test",
    "aperiodic_template_values",
    "aperiodic_templates",
]
