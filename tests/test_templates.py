import pytest

from rtdrng.nist.statistical_tests import aperiodic_template_values


def overlaps_itself(pattern: str) -> bool:
    return any(pattern[s:] == pattern[: len(pattern) - s] for s in range(1, len(pattern)))


class TestTemplates:
    def test_count_for_nine_bits(self):
        assert len(aperiodic_template_values(9)) == 148

    @pytest.mark.parametrize("m,expected", [(2, 2), (3, 4), (4, 6), (5, 12), (6, 20), (7, 40), (8, 74)])
    def test_counts_small_m(self, m, expected):
        assert len(aperiodic_template_values(m)) == expected

    @pytest.mark.parametrize("m", range(2, 10))
    def test_matches_string_oracle(self, m):
        expected = [v for v in range(2**m) if not overlaps_itself(format(v, f"0{m}b"))]
        assert list(aperiodic_template_values(m)) == expected

    def test_values_ascending(self):
        values = aperiodic_template_values(9)
        assert list(values) == sorted(values)
