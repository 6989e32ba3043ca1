"""SP 800-22 statistical test battery and its numeric kernels."""

from .battery import (
    SuiteReport,
    analyze_suite,
    pass_threshold,
    render_table,
    report_records,
    run_battery,
)
from .special import igamc, normal_cdf
from .statistical_tests import (
    SequenceTooShortError,
    TEST_ORDER,
    TestId,
    TestParams,
    TestResult,
    aperiodic_template_values,
    run_test,
)

__all__ = [
    "SuiteReport",
    "analyze_suite",
    "pass_threshold",
    "render_table",
    "report_records",
    "run_battery",
    "igamc",
    "normal_cdf",
    "SequenceTooShortError",
    "TEST_ORDER",
    "TestId",
    "TestParams",
    "TestResult",
    "run_test",
    "aperiodic_template_values",
]
