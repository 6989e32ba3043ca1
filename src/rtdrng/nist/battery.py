"""Battery execution and cross-sequence aggregation.

Aggregation follows the classic suite report: for every statistic row the
per-sequence P-values are binned into tenths (C1..C10), their uniformity is
scored with a ten-cell chi-square (P = igamc(9/2, chi2/2)), and the number
of sequences at or above the significance level is compared with a
three-sigma binomial lower bound on the pass proportion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence import as_sequence
from .special import igamc
from .statistical_tests import TEST_ORDER, TestId, TestParams, TestResult, run_test

TABLE_TITLE = "RESULTS FOR THE UNIFORMITY OF P-VALUES AND THE PROPORTION OF PASSING SEQUENCES"


# The spectral transform is the battery's largest working set, so it runs
# first, before the sequence's holder keeps its walk and windows.
_RUN_ORDER = (TestId.FFT,) + tuple(test for test in TEST_ORDER if test is not TestId.FFT)


def run_battery(bits, params: TestParams) -> list[TestResult]:
    """All fifteen tests on one sequence, in canonical report order.

    The tests share one holder of the sequence, so the derivations several
    of them read are built once.
    """
    seq = as_sequence(bits)
    results = {test: run_test(test, params, seq) for test in _RUN_ORDER}
    return [results[test] for test in TEST_ORDER]


def pass_threshold(sample_size: int, alpha: float) -> int:
    """Minimum passing count: floor of the three-sigma binomial lower bound.

    With alpha = 0.05 this gives 24 of 30 sequences and 10 of 14.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    p_hat = 1.0 - alpha
    bound = p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / sample_size)
    return int(math.floor(sample_size * bound))


@dataclass(frozen=True)
class RowSummary:
    """One statistic row of the suite report."""

    test: TestId
    label: str
    counts: tuple[int, ...]
    uniformity_p: float
    passed: int
    applicable: int
    threshold: int

    @property
    def proportion(self) -> str:
        return f"{self.passed}/{self.applicable}"

    @property
    def meets_threshold(self) -> bool:
        # rows with no applicable sequence are vacuously fine
        return self.applicable == 0 or self.passed >= self.threshold


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[RowSummary, ...]
    alpha: float
    sequences: int

    @property
    def overall_pass(self) -> bool:
        return all(row.meets_threshold for row in self.rows)


def analyze_suite(results_by_sequence: list[list[TestResult]], alpha: float = 0.05) -> SuiteReport:
    """Aggregate per-sequence results into the per-row suite report.

    Sequences where a test was inapplicable (the excursion family below its
    cycle minimum) are excluded from that test's rows, and the pass
    threshold of each row is taken at its own applicable count.
    """
    if not results_by_sequence:
        raise ValueError("need at least one sequence of results")
    n_tests = len(results_by_sequence[0])
    rows: list[RowSummary] = []
    for t in range(n_tests):
        per_seq = [seq[t] for seq in results_by_sequence]
        test = per_seq[0].test
        labels = next((r.labels for r in per_seq if r.applicable), per_seq[0].labels)
        for stat, label in enumerate(labels):
            pvals = np.array([r.pvalues[stat] for r in per_seq if r.applicable])
            applicable = pvals.size
            if applicable:
                counts = np.bincount(
                    np.minimum((pvals * 10).astype(np.int64), 9), minlength=10
                )
                expected = applicable / 10.0
                chi2 = float(np.sum((counts - expected) ** 2 / expected))
                uniformity = igamc(4.5, chi2 / 2.0)
                passed = int(np.count_nonzero(pvals >= alpha))
                threshold = pass_threshold(applicable, alpha)
            else:
                counts = np.zeros(10, dtype=np.int64)
                uniformity = math.nan
                passed = 0
                threshold = 0
            rows.append(
                RowSummary(
                    test=test,
                    label=label,
                    counts=tuple(int(c) for c in counts),
                    uniformity_p=uniformity,
                    passed=passed,
                    applicable=applicable,
                    threshold=threshold,
                )
            )
    return SuiteReport(rows=tuple(rows), alpha=alpha, sequences=len(results_by_sequence))


def render_table(report: SuiteReport) -> str:
    """Tab-separated table: C1..C10, P-VALUE, PROPORTION, STATISTICAL TEST."""
    lines = [TABLE_TITLE]
    header = [f"C{i}" for i in range(1, 11)] + ["P-VALUE", "PROPORTION", "STATISTICAL TEST"]
    lines.append("\t".join(header))
    for row in report.rows:
        uniformity = "----" if math.isnan(row.uniformity_p) else f"{row.uniformity_p:.6f}"
        cells = [str(c) for c in row.counts] + [uniformity, row.proportion, row.test.value]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def report_records(report: SuiteReport) -> dict:
    """JSON-ready structure with one record per statistic row."""
    return {
        "alpha": report.alpha,
        "sequences": report.sequences,
        "overall_pass": report.overall_pass,
        "rows": [
            {
                "test": row.test.value,
                "label": row.label,
                "counts": list(row.counts),
                "uniformity_p": None if math.isnan(row.uniformity_p) else row.uniformity_p,
                "passed": row.passed,
                "applicable": row.applicable,
                "threshold": row.threshold,
                "meets_threshold": row.meets_threshold,
            }
            for row in report.rows
        ],
    }


__all__ = [
    "TABLE_TITLE",
    "RowSummary",
    "SuiteReport",
    "run_battery",
    "pass_threshold",
    "analyze_suite",
    "render_table",
    "report_records",
]
