"""Complexity counters and bound checking."""

import pytest

from bidibeam.beam import SearchParams, vbs_decode
from bidibeam.bidi import BidiSParams, bidia_decode, bidis_decode
from bidibeam.instrumentation import (
    CSV_HEADER,
    BoundsResult,
    ComplexityReport,
    check_bounds,
    report_csv_row,
)
from bidibeam.lm import REGULAR, REVERSE
from bidibeam.similarity import BLEU_T, SimilaritySpec

from conftest import RandomTableLM, dummy_vocab


class TestMergeSearch:
    def test_folds_expansions_and_sorts(self):
        left = ComplexityReport("bidia", expansions=10,
                                sort_events=[(1, 6)])
        right = ComplexityReport("vbs", expansions=7,
                                 sort_events=[(1, 12), (2, 9)])
        left.merge_search(right)
        assert left.expansions == 17
        assert left.sort_events == [(1, 6), (1, 12), (2, 9)]
        assert left.algorithm == "bidia"


class TestCheckBounds:
    def test_vbs_within_bounds(self):
        report = ComplexityReport("vbs", expansions=100,
                                  sort_events=[(1, 6), (2, 24)])
        result = check_bounds(report, b=4, v=6, t=5)
        assert bool(result)
        assert result.failures == []

    def test_vbs_expansion_bound_violation(self):
        report = ComplexityReport("vbs", expansions=121)
        result = check_bounds(report, b=4, v=6, t=5)
        assert not result
        assert any("expansions" in msg for msg in result.failures)

    def test_vbs_sort_bound_violation(self):
        report = ComplexityReport("vbs", expansions=10,
                                  sort_events=[(2, 25)])
        result = check_bounds(report, b=4, v=6, t=5)
        assert not result
        assert any("sort at step 2" in msg for msg in result.failures)

    def test_bidis_rescoring_count_must_be_exact(self):
        report = ComplexityReport("bidis", expansions=10, rescoring_evals=3)
        result = check_bounds(report, b=4, v=6, t=5)
        assert not result
        assert any("rescoring" in msg for msg in result.failures)

    def test_bidia_pairwise_count_must_be_exact(self):
        report = ComplexityReport("bidia", expansions=10,
                                  pairwise_sim_evals=5)
        result = check_bounds(report, b=4, v=6, t=5)
        assert not result
        assert any("pairwise" in msg for msg in result.failures)

    def test_bidia_half_beam_bounds(self):
        report = ComplexityReport("bidia", expansions=2 * 5 * 2 * 6,
                                  sort_events=[(3, 12)], pairwise_sim_evals=4,
                                  exact_sim_evals=4)
        assert bool(check_bounds(report, b=4, v=6, t=5))
        report.sort_events.append((4, 13))
        assert not check_bounds(report, b=4, v=6, t=5)

    @pytest.mark.parametrize("exact", [0, 5])
    def test_bidia_exact_evals_within_one_and_pairs(self, exact):
        report = ComplexityReport("bidia", expansions=10,
                                  pairwise_sim_evals=4, exact_sim_evals=exact)
        result = check_bounds(report, b=4, v=6, t=5)
        assert not result
        assert result.failures == [
            f"exact_sim_evals {exact} outside [1, (B/2)^2 = 4]"]

    def test_unknown_algorithm_fails(self):
        result = check_bounds(ComplexityReport("greedy"), 4, 6, 5)
        assert not result

    def test_live_runs_pass_for_all_algorithms(self, vocab6):
        regular = RandomTableLM(vocab6, 60, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 61, direction=REVERSE)
        b, t = 4, 5
        search = SearchParams(b, t)
        outputs = [
            vbs_decode(regular, (4,), search),
            bidis_decode(regular, reverse, (4,), BidiSParams(search, 1.0)),
            bidia_decode(regular, reverse, (4,), search,
                         SimilaritySpec(BLEU_T, max_length=t)),
        ]
        for out in outputs:
            result = check_bounds(out.report, b, vocab6.size, t)
            assert bool(result), result.failures


class TestCsvRow:
    def test_row_matches_header_width(self):
        report = ComplexityReport("bidia", expansions=10, sort_events=[(1, 6)],
                                  pairwise_sim_evals=4, exact_sim_evals=3)
        row = report_csv_row(report)
        assert len(row) == len(CSV_HEADER)
        assert row[0] == "bidia"
        assert row[2] == 6
        assert dict(zip(CSV_HEADER, row))["exact_sim_evals"] == 3
        assert "wall_time_s" not in CSV_HEADER

    def test_empty_sort_events(self):
        row = report_csv_row(ComplexityReport("vbs"))
        assert row[2] == 0
        assert row[3] == 0


def test_bounds_result_truthiness():
    assert bool(BoundsResult(True, []))
    assert not bool(BoundsResult(False, ["bad"]))
