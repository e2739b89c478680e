"""Similarity measures: length-limited BLEU, embeddings, transport, WMD."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidibeam.errors import DegeneratePairError, FormatError, ParameterError
from bidibeam.similarity import (
    BLEU_T,
    WMD_T,
    EmbeddingTable,
    SimilaritySpec,
    TransportProblem,
    bleu_t,
    bp_t,
    clipped_precision_counts,
    default_stopwords,
    dissimilarity,
    dissimilarity_lower_bound,
    load_embeddings,
    load_stopwords,
    smoothed_precisions,
    solve_transport,
    wmd,
)

from conftest import dummy_vocab, wmd_measures
from oracles import oracle_bleu_t, oracle_clipped_precision_counts, vertex_transport_cost

TOKENS = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8)


def spec_bleu(t):
    return SimilaritySpec(BLEU_T, max_length=t)


class TestBpT:
    def test_full_length_is_neutral(self):
        assert bp_t(10, 10) == 1.0

    def test_half_length_hand_value(self):
        assert bp_t(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert bp_t(5, 10) == pytest.approx(0.367879, abs=1e-6)

    def test_overlong_candidate_is_capped(self):
        assert bp_t(20, 10) == 1.0

    def test_length_below_one_rejected(self):
        with pytest.raises(ParameterError):
            bp_t(0, 10)

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_always_in_unit_interval(self, c, t):
        assert 0.0 < bp_t(c, t) <= 1.0


class TestSimilaritySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            SimilaritySpec("cosine", max_length=5)

    def test_wmd_requires_embeddings(self):
        with pytest.raises(ParameterError):
            SimilaritySpec(WMD_T, max_length=5)

    def test_unknown_bp_mode_rejected(self):
        with pytest.raises(ParameterError):
            SimilaritySpec(BLEU_T, max_length=5, bp_mode="add")


class TestBleuT:
    def test_identical_at_full_length_is_one(self):
        y = ["a", "b", "c", "d", "e"]
        assert bleu_t(y, y, spec_bleu(5)) == 1.0

    def test_identical_at_half_length_is_brevity_penalty(self):
        y = ["a", "b", "c", "d"]
        assert bleu_t(y, y, spec_bleu(8)) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_hand_example_with_smoothing(self):
        # p1 = 1/2 unsmoothed; the zero bigram precision smooths to
        # (0+1)/(1+1), and the empty trigram and four-gram orders to
        # (0+1)/(0+1); BP = 1, so the score is (1/2 * 1/2) ** (1/4) = sqrt(1/2).
        assert bleu_t(["a", "b"], ["a", "c"], spec_bleu(2)) == pytest.approx(
            math.sqrt(0.5), abs=1e-12)

    def test_zero_unigram_overlap_scores_zero(self):
        spec = spec_bleu(4)
        assert bleu_t(["a", "b"], ["c", "d"], spec) == 0.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ParameterError):
            bleu_t([], ["a"], spec_bleu(4))
        with pytest.raises(ParameterError):
            bleu_t(["a"], [], spec_bleu(4))

    @given(TOKENS)
    def test_self_similarity_equals_brevity_penalty(self, y):
        assert bleu_t(y, y, spec_bleu(8)) == bp_t(len(y), 8)

    @given(TOKENS, TOKENS)
    def test_bounded_by_unit_interval(self, a, b):
        score = bleu_t(a, b, spec_bleu(8))
        assert 0.0 <= score <= 1.0

    @given(TOKENS, TOKENS)
    def test_matches_independent_reimplementation(self, a, b):
        assert bleu_t(a, b, spec_bleu(8)) == oracle_bleu_t(a, b, 8)


class TestClippedPrecisionCounts:
    @given(st.lists(st.integers(4, 6), max_size=9), st.lists(st.integers(4, 6), max_size=9))
    @example([], [4, 5])
    @example([4, 4, 4], [4, 4])
    @example([4, 5, 4, 5, 4, 5], [4, 5, 4, 5, 4])
    def test_matches_per_order_counters(self, hypothesis, reference):
        assert (clipped_precision_counts(hypothesis, reference)
                == oracle_clipped_precision_counts(hypothesis, reference))

    def test_repeated_grams_are_clipped(self):
        assert clipped_precision_counts("aaaa", "aa") == ([2, 1, 0, 0], [4, 3, 2, 1])


class TestSmoothedPrecisions:
    def test_unigram_never_smoothed(self):
        precisions = smoothed_precisions(["a", "b"], ["a", "c"])
        assert precisions == [0.5, 0.5, 1.0, 1.0]

    def test_no_smoothing_when_all_orders_match(self):
        precisions = smoothed_precisions(["a", "b"], ["a", "b"])
        assert precisions == [1.0, 1.0, 1.0, 1.0]

    def test_vacuous_orders_count_as_perfect(self):
        precisions = smoothed_precisions(["a"], ["a"])
        assert precisions == [1.0, 1.0, 1.0, 1.0]


class TestEmbeddingTable:
    def test_missing_word_raises_key_error(self):
        table = EmbeddingTable({"a": np.zeros(3)})
        with pytest.raises(KeyError):
            table.vector("b")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            EmbeddingTable({"a": np.zeros(3), "b": np.zeros(2)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ParameterError):
            EmbeddingTable({"a": np.zeros(2), "b": np.array([0.0, bad])})

    def test_contains_and_len(self):
        table = EmbeddingTable({"a": np.zeros(3), "b": np.ones(3)})
        assert "a" in table and "c" not in table
        assert len(table) == 2


class TestLoadEmbeddings:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("cat"), [1.0, 2.0, 3.0])

    def test_header_line_consumed(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2
        assert "2" not in table

    def test_dimension_mismatch_names_line_five(self, tmp_path):
        path = tmp_path / "vec.txt"
        lines = ["w%d 1 2 3" % i for i in range(4)] + ["bad 1 2"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 5"):
            load_embeddings(path)

    def test_only_newlines_end_a_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes("a\x85b 0.1 0.2\nc 0.1\n".encode("utf-8"))
        with pytest.raises(FormatError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: line 2: expected 2 components, got 1"
        path.write_bytes(b"2 2\r\na 1 2\rb\x0c 3 4\n")
        assert len(load_embeddings(path)) == 2

    def test_unparsable_float_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 oops 3.0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "vec.txt"
        path.write_text(f"cat 1.0 2.0\ndog 1.0 {bad}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: non-finite"):
            load_embeddings(path)

    def test_duplicate_word_keeps_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 1 1\ncat 2 2 2\n", encoding="utf-8")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table.vector("cat"), [1.0, 1.0, 1.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(path)


class TestStopwords:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nand\n\nof\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "and", "of"})

    def test_default_list_is_lowercase_and_nonempty(self):
        words = default_stopwords()
        assert len(words) > 50
        assert all(w == w.lower() for w in words)
        assert "the" in words


class TestSolveTransport:
    def test_zero_diagonal_costs_nothing(self):
        supply = np.array([0.5, 0.5])
        cost = np.array([[0.0, 3.0], [3.0, 0.0]])
        flow, total = solve_transport(TransportProblem(supply, supply, cost))
        assert total == 0.0
        np.testing.assert_allclose(np.diag(flow), supply, atol=1e-9)

    def test_one_by_one_is_forced(self):
        problem = TransportProblem(np.array([1.0]), np.array([1.0]),
                                   np.array([[2.5]]))
        flow, total = solve_transport(problem)
        assert total == pytest.approx(2.5, abs=1e-12)
        assert flow[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_random_problems_match_vertex_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            supply_units = rng.integers(1, 9, size=m)
            demand_units = rng.integers(1, 9, size=n)
            supply = [Fraction(int(u), int(supply_units.sum()))
                      for u in supply_units]
            demand = [Fraction(int(u), int(demand_units.sum()))
                      for u in demand_units]
            cost = rng.integers(0, 40, size=(m, n)) / 8.0
            problem = TransportProblem(
                np.array([float(f) for f in supply]),
                np.array([float(f) for f in demand]), cost)
            _, total = solve_transport(problem)
            want = vertex_transport_cost(supply, demand,
                                         [[Fraction(c) for c in row]
                                          for row in cost])
            assert total == pytest.approx(float(want), abs=1e-6)

    def test_flow_satisfies_marginals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            supply = rng.random(m) + 0.1
            supply /= supply.sum()
            demand = rng.random(n) + 0.1
            demand /= demand.sum()
            cost = rng.random((m, n)) * 3
            flow, total = solve_transport(TransportProblem(supply, demand, cost))
            np.testing.assert_allclose(flow.sum(axis=1), supply, atol=1e-9)
            np.testing.assert_allclose(flow.sum(axis=0), demand, atol=1e-9)
            assert total == pytest.approx(float((flow * cost).sum()), abs=1e-12)

    def test_unbalanced_weights_rejected(self):
        with pytest.raises(ParameterError):
            TransportProblem(np.array([0.9]), np.array([1.0]),
                             np.array([[1.0]]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            TransportProblem(np.array([-0.5, 1.5]), np.array([1.0]),
                             np.array([[1.0], [1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            TransportProblem(np.array([1.0]), np.array([1.0]),
                             np.array([[1.0, 2.0]]))


@pytest.fixture
def toy_table():
    rng = np.random.default_rng(9)
    return EmbeddingTable({w: rng.normal(size=4)
                           for w in ["a", "b", "c", "d", "e", "the"]})


class TestWmd:
    def test_self_distance_is_zero(self, toy_table):
        assert wmd(["a", "b", "c"], ["a", "b", "c"], toy_table) == 0.0

    def test_singletons_reduce_to_euclidean(self, toy_table):
        got = wmd(["a"], ["b"], toy_table)
        want = float(np.linalg.norm(toy_table.vector("a")
                                    - toy_table.vector("b")))
        assert got == pytest.approx(want, abs=1e-9)

    def test_three_vs_two_words_matches_vertex_oracle(self):
        table = EmbeddingTable({
            "a": np.array([0.0, 0.0]),
            "b": np.array([6.0, 8.0]),
            "c": np.array([0.0, 10.0]),
            "d": np.array([3.0, 4.0]),
            "e": np.array([9.0, 12.0]),
        })
        x = ["a", "b", "c"]
        y = ["d", "e"]
        got = wmd(x, y, table)
        supply = [Fraction(1, 3)] * 3
        demand = [Fraction(1, 2)] * 2
        cost = [[Fraction(float(np.linalg.norm(table.vector(i)
                                               - table.vector(j))))
                 for j in y] for i in x]
        want = vertex_transport_cost(supply, demand, cost)
        assert got == pytest.approx(float(want), abs=1e-9)

    def test_symmetry(self, toy_table):
        rng = np.random.default_rng(3)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(10):
            x = list(rng.choice(words, size=rng.integers(1, 5)))
            y = list(rng.choice(words, size=rng.integers(1, 5)))
            assert wmd(x, y, toy_table) == pytest.approx(
                wmd(y, x, toy_table), abs=1e-9)

    def test_nonnegative(self, toy_table):
        rng = np.random.default_rng(4)
        words = ["a", "b", "c", "d", "e"]
        for _ in range(10):
            x = list(rng.choice(words, size=3))
            y = list(rng.choice(words, size=2))
            assert wmd(x, y, toy_table) >= 0.0

    def test_stopwords_are_removed(self, toy_table):
        with_stop = wmd(["the", "a"], ["b"], toy_table, frozenset({"the"}))
        without = wmd(["a"], ["b"], toy_table)
        assert with_stop == without

    def test_oov_words_are_dropped(self, toy_table):
        got = wmd(["a", "zebra"], ["b"], toy_table)
        want = wmd(["a"], ["b"], toy_table)
        assert got == want

    def test_all_filtered_is_degenerate(self, toy_table):
        with pytest.raises(DegeneratePairError):
            wmd(["the"], ["b"], toy_table, frozenset({"the"}))
        with pytest.raises(DegeneratePairError):
            wmd(["zebra"], ["b"], toy_table)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(42)
        base = {w: rng.normal(size=3) for w in ["a", "b", "c", "d", "e"]}
        x = ["a", "b", "c", "a"]
        y = ["d", "e"]
        w0 = wmd(x, y, EmbeddingTable(base))
        for s in (0.5, 2.0, 4.0):
            scaled = EmbeddingTable({w: s * v for w, v in base.items()})
            assert wmd(x, y, scaled) == s * w0

    def test_general_scaling_within_rounding(self):
        rng = np.random.default_rng(43)
        base = {w: rng.normal(size=3) for w in ["a", "b", "c", "d"]}
        x = ["a", "b"]
        y = ["c", "d"]
        w0 = wmd(x, y, EmbeddingTable(base))
        for s in (0.1, 3.7, 11.0):
            scaled = EmbeddingTable({w: s * v for w, v in base.items()})
            assert wmd(x, y, scaled) == pytest.approx(s * w0, rel=1e-12)


class TestDissimilarity:
    def test_identical_full_length_bleu_is_zero(self):
        y = ["a", "b", "c", "d", "e"]
        assert dissimilarity(y, y, spec_bleu(5)) == 0.0

    def test_identical_wmd_is_zero_in_both_modes(self, toy_table):
        y = ["a", "b", "c"]
        for mode in ("divide", "multiply"):
            spec = SimilaritySpec(WMD_T, max_length=3, embeddings=toy_table,
                                  bp_mode=mode)
            assert dissimilarity(y, y, spec) == 0.0

    def test_divide_mode_amplifies_short_candidates(self, toy_table):
        # |y_n| = T/2 makes bp_t = 1/e, so divide mode returns raw * e.
        y_n = ["a", "b"]
        y_r = ["c", "d", "e"]
        raw = wmd(y_n, y_r, toy_table)
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table)
        assert dissimilarity(y_n, y_r, spec) == pytest.approx(
            raw * math.e, rel=1e-12)

    def test_multiply_mode_literal_product(self, toy_table):
        y_n = ["a", "b"]
        y_r = ["c", "d", "e"]
        raw = wmd(y_n, y_r, toy_table)
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table,
                              bp_mode="multiply")
        assert dissimilarity(y_n, y_r, spec) == pytest.approx(
            raw * math.exp(-1.0), rel=1e-12)

    def test_empty_side_is_infinite(self, toy_table):
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table)
        assert dissimilarity([], ["a"], spec) == math.inf
        assert dissimilarity(["a"], [], spec_bleu(4)) == math.inf

    def test_degenerate_wmd_pair_is_infinite(self, toy_table):
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table,
                              stopwords=frozenset({"the"}))
        assert dissimilarity(["the"], ["a"], spec) == math.inf

    def test_token_ids_decoded_through_vocabulary(self):
        vocab = dummy_vocab(6)
        rng = np.random.default_rng(5)
        table = EmbeddingTable({vocab.surface_for(i): rng.normal(size=3)
                                for i in range(6)})
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=table,
                              vocab=vocab)
        by_id = dissimilarity((4, 5), (5,), spec)
        by_word = dissimilarity([vocab.surface_for(4), vocab.surface_for(5)],
                                [vocab.surface_for(5)], spec)
        assert by_id == by_word

    def test_ids_without_vocabulary_rejected(self, toy_table):
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table)
        with pytest.raises(ParameterError):
            dissimilarity((4, 5), (5,), spec)

    @given(TOKENS, TOKENS)
    def test_bleu_dissimilarity_in_unit_interval(self, a, b):
        assert 0.0 <= dissimilarity(a, b, spec_bleu(8)) <= 1.0


# The margin agreement decoding allows when pruning on the lower bound.
def within_margin(bound, d):
    return bound <= d * (1 + 1e-9) + 1e-12


class TestDissimilarityLowerBound:
    def test_degenerate_pairs_are_infinite(self, toy_table):
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table,
                              stopwords=frozenset({"the"}))
        assert dissimilarity_lower_bound([], ["a"], spec) == math.inf
        assert dissimilarity_lower_bound(["a"], [], spec_bleu(4)) == math.inf
        assert dissimilarity_lower_bound(["the"], ["a"], spec) == math.inf
        assert dissimilarity_lower_bound(["zebra"], ["a"], spec) == math.inf

    def test_bleu_bound_is_zero(self):
        assert dissimilarity_lower_bound(["a", "b"], ["c"], spec_bleu(4)) == 0.0

    def test_relaxed_wmd_hand_value(self):
        # x = {0, 1} and y = {1, 5} on a line: WMD = 2.5, while the relaxed
        # bound is max((1 + 0) / 2, (0 + 4) / 2) = 2.
        table = EmbeddingTable({w: np.array([float(w[1:])])
                                for w in ["p0", "p1", "p5"]})
        for mode, scale in (("divide", math.e), ("multiply", math.exp(-1.0))):
            spec = SimilaritySpec(WMD_T, max_length=4, embeddings=table,
                                  bp_mode=mode)
            x, y = ["p0", "p1"], ["p1", "p5"]
            assert dissimilarity_lower_bound(x, y, spec) == pytest.approx(
                2.0 * scale, rel=1e-12)
            assert dissimilarity(x, y, spec) == pytest.approx(
                2.5 * scale, rel=1e-12)

    def test_singletons_meet_the_exact_value(self, toy_table):
        spec = SimilaritySpec(WMD_T, max_length=4, embeddings=toy_table)
        bound = dissimilarity_lower_bound(["a", "a"], ["b"], spec)
        assert bound == pytest.approx(dissimilarity(["a", "a"], ["b"], spec),
                                      rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_never_above_dissimilarity_beyond_margin(self, data):
        vocab = dummy_vocab(9)
        spec = data.draw(wmd_measures(vocab))
        core = st.lists(st.integers(3, 8), max_size=5).map(tuple)
        y_n, y_r = data.draw(core), data.draw(core)
        d = dissimilarity(y_n, y_r, spec)
        bound = dissimilarity_lower_bound(y_n, y_r, spec)
        assert within_margin(bound, d)
        assert math.isinf(bound) == math.isinf(d)
