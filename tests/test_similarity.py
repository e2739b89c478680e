"""Similarity measures: length-limited BLEU, embeddings, transport, WMD."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidibeam import similarity
from bidibeam.errors import DegeneratePairError, FormatError, ParameterError
from bidibeam.similarity import (
    BLEU_T,
    BP_DIVIDE,
    BP_MULTIPLY,
    WMD_T,
    EmbeddingTable,
    SimilaritySpec,
    TransportProblem,
    bleu_t,
    bp_t,
    clip_counts,
    default_stopwords,
    dissimilarity,
    dissimilarity_lower_bound,
    load_embeddings,
    load_stopwords,
    ngram_table,
    smoothed_from_counts,
    solve_transport,
    wmd,
)

from conftest import dummy_vocab, highs_wmd, wmd_measures
from oracles import (
    highs_transport, oracle_bleu_t, oracle_clipped_precision_counts, vertex_transport_cost,
)

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

    @pytest.mark.parametrize("mode", [BP_DIVIDE, BP_MULTIPLY])
    def test_wmd_length_limit_is_exact(self, mode):
        """The WMD measure accepts exactly the T at which bp_t(1, T) > 0 and,
        in divide mode, the largest cost over it is finite.  Here the two
        words sit at twice the largest norm apart, so at the largest
        accepted T their one-token pair's d is finite and positive, and the
        next T raises a ParameterError, not a ZeroDivisionError."""
        table = EmbeddingTable({"a": np.array([0.6, 0.8]), "b": np.array([-0.6, -0.8])})

        def fits(t):
            penalty = bp_t(1, t)
            return penalty > 0.0 and (mode == BP_MULTIPLY or math.isfinite(2.0 / penalty))

        last = max(t for t in range(1, 800) if fits(t))
        assert all(fits(t) for t in range(1, last + 1))
        assert 700 < last < 747
        spec = SimilaritySpec(WMD_T, max_length=last, bp_mode=mode, embeddings=table)
        assert 0.0 < dissimilarity(["a"], ["b"], spec) < math.inf
        for t in (last + 1, 3000):
            with pytest.raises(ParameterError, match=f"maximum sentence length {t} is too large"):
                SimilaritySpec(WMD_T, max_length=t, bp_mode=mode, embeddings=table)


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


def pair_counts(hypothesis, reference):
    return clip_counts(ngram_table(hypothesis), len(hypothesis), ngram_table(reference))


class TestClippedPrecisionCounts:
    @given(st.lists(st.integers(4, 6), max_size=9), st.lists(st.integers(4, 6), max_size=9))
    @example([], [4, 5])
    @example([4, 4, 4], [4, 4])
    @example([4, 5, 4, 5, 4, 5], [4, 5, 4, 5, 4])
    def test_matches_per_order_counters(self, hypothesis, reference):
        assert (pair_counts(hypothesis, reference)
                == oracle_clipped_precision_counts(hypothesis, reference))

    def test_repeated_grams_are_clipped(self):
        assert pair_counts("aaaa", "aa") == ([2, 1, 0, 0], [4, 3, 2, 1])


class TestSmoothedPrecisions:
    def test_unigram_never_smoothed(self):
        precisions = smoothed_from_counts(*pair_counts(["a", "b"], ["a", "c"]))
        assert precisions == [0.5, 0.5, 1.0, 1.0]

    def test_no_smoothing_when_all_orders_match(self):
        precisions = smoothed_from_counts(*pair_counts(["a", "b"], ["a", "b"]))
        assert precisions == [1.0, 1.0, 1.0, 1.0]

    def test_vacuous_orders_count_as_perfect(self):
        precisions = smoothed_from_counts(*pair_counts(["a"], ["a"]))
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

    @pytest.mark.parametrize("header", ["5 3", "2 3", "1 2", "3 2", "0 2"])
    def test_header_disagreeing_with_the_vectors_names_line_one(self, tmp_path, header):
        # Two 2-d vectors under a header that declares another count or
        # dimension: a truncated or mislabeled file.
        path = tmp_path / "vec.txt"
        path.write_text(f"{header}\ncat 1 2\ndog 4 5\n", encoding="utf-8")
        count, dim = header.split()
        with pytest.raises(FormatError) as info:
            load_embeddings(path)
        assert str(info.value) == (f"{path}: line 1: header declares {count} vectors of "
                                   f"dimension {dim}, but the file holds 2 of dimension 2")

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
        # Each total is within 1e-9 of 1, but they differ by 1.6e-9, more
        # than solve_transport allows: the problem must not construct.
        with pytest.raises(ParameterError):
            TransportProblem(np.array([0.5 + 4e-10] * 2), np.array([0.5 - 4e-10] * 2),
                             np.ones((2, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            TransportProblem(np.array([-0.5, 1.5]), np.array([1.0]),
                             np.array([[1.0], [1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            TransportProblem(np.array([1.0]), np.array([1.0]),
                             np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("supply, demand, cost", [
        ([math.nan, 1.0], [1.0], [[1.0], [1.0]]),
        ([1.0], [0.5, math.nan], [[1.0, 1.0]]),
        ([1.0], [1.0], [[math.nan]]),
        ([1.0], [1.0], [[math.inf]]),
        ([0.5, 0.5], [1.0], [[1.0], [math.inf]]),
    ])
    def test_non_finite_input_rejected(self, supply, demand, cost):
        # A NaN weight makes every total check false, so only an explicit
        # finiteness check stops it.
        with pytest.raises(ParameterError, match="finite"):
            TransportProblem(np.array(supply), np.array(demand), np.array(cost))


@st.composite
def transport_problems(draw):
    """Integer weights of 1-8 rows and 1-8 columns, some of them 0; a skew
    of the demand's total, by less than the 1e-9 ``TransportProblem``
    allows; and costs in eighths up to 5, where optima tie, or 0 or anywhere
    in [1e-6, 1] (no cost product underflows), scaled by 1 or 1e-5."""
    weights = [draw(st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any))
               for _ in "sd"]
    skew = draw(st.just(0.0) | st.floats(-9e-10, 9e-10))
    cell = draw(st.sampled_from([st.integers(0, 40).map(lambda c: c / 8),
                                   st.just(0.0) | st.floats(1e-6, 1)]))
    cost = [[draw(cell) for _ in weights[1]] for _ in weights[0]]
    return *weights, skew, np.array(cost) * draw(st.sampled_from([1.0, 1e-5]))


@settings(max_examples=150, deadline=None)
@given(transport_problems())
# HiGHS stops at its absolute tolerance, which tiny costs fall under: here
# it returns 4.88e-6, the exact optimum being 4.85e-6.
@example(([4, 2, 4], [1, 1], 0.0,
          np.array([[3.7e-6, 4.5e-6], [5.8e-6, 7.8e-6], [4.5e-6, 5.4e-6]])))
# The one costly flow is 8/23 - 7/21, a difference of two marginals, so
# both solvers' totals are off by ulps of 1, not of the total.
@example(([8, 1, 7, 0, 7], [5, 0, 9, 7], 0.0, np.outer([1.0, 0, 0, 0, 0], [1.0, 0, 1, 0])))
def test_float_problems_are_solved_exactly(case):
    supply_units, demand_units, skew, cost = case
    supply = np.array(supply_units) / sum(supply_units)
    demand = np.array(demand_units) / sum(demand_units) * (1 + skew)
    problem = TransportProblem(supply, demand, cost)
    flow, total = solve_transport(problem)
    assert (flow >= 0).all()
    assert np.abs(flow.sum(axis=1) - supply).max() <= 1e-9
    assert np.abs(flow.sum(axis=0) - demand).max() <= 1e-9
    # The rounds end once a side is used up, exactly: the smaller side
    # where the totals differ, and the other keeps the difference.
    left, need, gap = supply.tolist(), demand.tolist(), supply.sum() - demand.sum()
    similarity._transport(left, need, cost.tolist())
    assert not (any(left) and any(need))
    if abs(gap) > 1e-12:
        assert not any(left if gap < 0 else need)
    assert sum(left) + sum(need) <= abs(gap) + 1e-12
    # Moving |skew| more or less mass may change the cost by |skew| times
    # the largest cost, against a balanced problem's optimum.  Flows are
    # rounded to ulps of the marginals, which are at most 1, so totals
    # differ by ulps of the largest cost.
    margin = abs(skew) * cost.max()
    highs = highs_transport(problem)[1]
    assert total <= highs + 4 * math.ulp(cost.max()) + margin, (total, highs)
    if len(supply) <= 4 and len(demand) <= 4:
        want = vertex_transport_cost(
            [Fraction(u, sum(supply_units)) for u in supply_units],
            [Fraction(u, sum(demand_units)) for u in demand_units],
            [[Fraction(c) for c in row] for row in cost.tolist()])
        assert abs(total - float(want)) <= margin + 1e-12 * cost.max(), (total, want)


@st.composite
def word_bags(draw):
    """Two sentences over distinct words and their embedding table: small
    or large bags, 1-3 copies of each word, and vectors on a 5 x 5 integer
    lattice, where many costs and transport optima tie, or drawn at random
    from a normal distribution."""
    sizes = [draw(st.one_of(st.integers(1, 6), st.integers(14, 20))) for _ in "xy"]
    counts = [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)) for n in sizes]
    words = [[f"{side}{k}" for k in range(len(c))] for side, c in zip("xy", counts)]
    if draw(st.booleans()):
        lattice = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
        vectors = {w: np.array(draw(lattice), dtype=float) for w in words[0] + words[1]}
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vectors = {w: rng.normal(size=8) for w in words[0] + words[1]}
    x, y = ([w for w, c in zip(side, c) for _ in range(c)] for side, c in zip(words, counts))
    return x, y, EmbeddingTable(vectors)


@settings(max_examples=120, deadline=None)
@given(word_bags())
def test_raw_wmd_equals_highs_within_four_ulps(bags):
    """``wmd`` is exactly the raw WMD that ``dissimilarity`` uses, solved on
    the bags' integer counts, and within 4 ulps of HiGHS's LP value."""
    x, y, table = bags
    spec = SimilaritySpec(WMD_T, max_length=1, embeddings=table)
    total = wmd(x, y, table)
    assert total == similarity._raw_wmd(tuple(x), tuple(y), spec, None)
    highs = highs_wmd(x, y, table)
    assert abs(total - highs) <= 4 * math.ulp(highs), (total, highs)


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
