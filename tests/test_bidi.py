"""Bidirectional re-scoring and agreement selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidibeam.beam import Hypothesis, SearchParams, vbs_decode
from bidibeam.bidi import (
    AgreementPair,
    BidiSParams,
    agreement_argmin,
    bidia_decode,
    bidis_decode,
    rank_by_combined_score,
    rescore_terms,
    select_lambda,
    unreverse_hypothesis,
)
from bidibeam.corpus import EOS_ID, SentencePair, build_vocabulary, encode_pairs
from bidibeam.errors import DirectionError, ParameterError, VocabularyMismatchError
from bidibeam.lm import (
    REGULAR,
    REVERSE,
    ConditionalNGramLM,
    LanguageModel,
    reverse_sequence_logprob,
)
from bidibeam.similarity import (
    BLEU_T,
    WMD_T,
    EmbeddingTable,
    SimilaritySpec,
    bleu_t,
    dissimilarity,
    dissimilarity_lower_bound,
    wmd,
)

from conftest import RandomTableLM, covering_wmd_measures, dummy_vocab, highs_wmd, wmd_measures
from oracles import (
    naive_agreement_argmin,
    oracle_dissimilarity_bleu,
    oracle_dissimilarity_wmd,
)


class ScriptedLM(LanguageModel):
    """Distributions read from an explicit prefix-keyed table."""

    def __init__(self, vocab, direction, table):
        self.vocab = vocab
        self.direction = direction
        self._table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def next_token_logprobs(self, source, prefix):
        probs = self._table.get(tuple(prefix))
        if probs is None:
            probs = np.full(self.vocab.size, 1.0 / self.vocab.size)
        return np.log(probs)


def scripted_pair(vocab):
    # Regular direction: "4" is the greedy first token but its continuation
    # is weak; "5" continues strongly. Reverse direction likes "5" too.
    x = 0.1 / 3
    z = 0.04 / 3
    w = 0.08 / 3
    regular = ScriptedLM(vocab, REGULAR, {
        (): [x, 0.1, x, x, 0.5, 0.3],
        (4,): [x, 0.6, x, x, 0.1, 0.2],
        (5,): [0.05 / 3, 0.7, 0.05 / 3, 0.05 / 3, 0.2, 0.05],
    })
    reverse = ScriptedLM(vocab, REVERSE, {
        (): [x, 0.2, x, x, 0.2, 0.5],
        (5,): [z, 0.8, z, z, 0.1, 0.06],
        (4,): [w, 0.5, w, w, 0.12, 0.3],
    })
    return regular, reverse


class TestBidiSParams:
    def test_negative_weight_rejected(self):
        """A negative weight is rejected, and so is a NaN or infinite one,
        which would make every combined score NaN or -inf."""
        for weight in (-0.5, math.nan, math.inf):
            with pytest.raises(ParameterError):
                BidiSParams(SearchParams(4, 5), weight)

    def test_default_weight_is_one(self):
        assert BidiSParams(SearchParams(4, 5)).reverse_weight == 1.0


class TestRescoreTerms:
    def test_hand_computed_terms(self, vocab6):
        regular, reverse = scripted_pair(vocab6)
        beam = [
            Hypothesis((4, EOS_ID), math.log(0.5) + math.log(0.6), True),
            Hypothesis((5, EOS_ID), math.log(0.3) + math.log(0.7), True),
            Hypothesis((EOS_ID,), math.log(0.1), True),
        ]
        terms = rescore_terms(beam, reverse, (4,), 0.6)
        lp2 = 7.0 ** 0.6 / 6.0 ** 0.6
        expected = [
            ((math.log(0.5) + math.log(0.6)) / lp2,
             (math.log(0.2) + math.log(0.5)) / lp2),
            ((math.log(0.3) + math.log(0.7)) / lp2,
             (math.log(0.5) + math.log(0.8)) / lp2),
            (math.log(0.1), math.log(0.2)),
        ]
        for got, want in zip(terms, expected):
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_regular_model_in_reverse_slot_rejected(self, vocab6):
        regular, _ = scripted_pair(vocab6)
        beam = [Hypothesis((4, EOS_ID), -1.0, True)]
        with pytest.raises(DirectionError):
            rescore_terms(beam, regular, (4,), 0.6)


class TestRankByCombinedScore:
    def test_weight_zero_keeps_original_order(self):
        beam = [Hypothesis((4, EOS_ID), -1.0, True),
                Hypothesis((5, EOS_ID), -2.0, True)]
        terms = [(-1.0, -50.0), (-2.0, -0.1)]
        order = rank_by_combined_score(beam, terms, 0.0)
        assert [i for i, _ in order] == [0, 1]

    def test_large_weight_follows_reverse_term(self):
        beam = [Hypothesis((4, EOS_ID), -1.0, True),
                Hypothesis((5, EOS_ID), -2.0, True)]
        terms = [(-1.0, -50.0), (-2.0, -0.1)]
        order = rank_by_combined_score(beam, terms, 10.0)
        assert [i for i, _ in order] == [1, 0]

    def test_exact_tie_breaks_on_token_ids(self):
        beam = [Hypothesis((5, EOS_ID), -1.0, True),
                Hypothesis((4, EOS_ID), -1.0, True)]
        terms = [(-1.0, -1.0), (-1.0, -1.0)]
        order = rank_by_combined_score(beam, terms, 1.0)
        assert [i for i, _ in order] == [1, 0]


class TestBidisDecode:
    def test_weight_zero_matches_plain_search(self, vocab6):
        for seed in range(20):
            regular = RandomTableLM(vocab6, 400 + seed, direction=REGULAR)
            reverse = RandomTableLM(vocab6, 800 + seed, direction=REVERSE)
            search = SearchParams(4, 4)
            base = vbs_decode(regular, (4,), search)
            out = bidis_decode(regular, reverse, (4,),
                               BidiSParams(search, 0.0))
            assert out.selected.tokens == base.selected.tokens
            assert out.selected_index == 1

    def test_hand_computed_selection(self, vocab6):
        # Under the scripted models the plain beam ranks (4, EOS) first,
        # but the reverse direction strongly prefers (5, EOS); with weight
        # 1.5 the combined score flips the winner to the rank-2 entry.
        regular, reverse = scripted_pair(vocab6)
        base = vbs_decode(regular, (4,), SearchParams(3, 2))
        assert [h.tokens for h in base.beam] == [
            (4, EOS_ID), (5, EOS_ID), (EOS_ID,)]

        out = bidis_decode(regular, reverse, (4,),
                           BidiSParams(SearchParams(3, 2), 1.5))
        assert out.selected.tokens == (5, EOS_ID)
        assert out.selected == out.beam[out.position] == out.beam[0]
        assert out.position == 0
        assert out.selected_index == 2

        lp2 = 7.0 ** 0.6 / 6.0 ** 0.6
        combined_45 = ((math.log(0.5) + math.log(0.6))
                       + 1.5 * (math.log(0.2) + math.log(0.5))) / lp2
        combined_55 = ((math.log(0.3) + math.log(0.7))
                       + 1.5 * (math.log(0.5) + math.log(0.8))) / lp2
        combined_e = math.log(0.1) + 1.5 * math.log(0.2)
        assert [h.tokens for h in out.beam] == [
            (5, EOS_ID), (4, EOS_ID), (EOS_ID,)]
        assert out.scores[0] == pytest.approx(combined_55, abs=1e-12)
        assert out.scores[1] == pytest.approx(combined_45, abs=1e-12)
        assert out.scores[2] == pytest.approx(combined_e, abs=1e-12)

    def test_beam_members_and_expansions_come_from_base_search(self, vocab6):
        regular = RandomTableLM(vocab6, 50, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 51, direction=REVERSE)
        search = SearchParams(4, 4)
        base = vbs_decode(regular, (4, 5), search)
        out = bidis_decode(regular, reverse, (4, 5), BidiSParams(search, 2.0))
        assert sorted(out.beam, key=lambda h: h.tokens) == sorted(
            base.beam, key=lambda h: h.tokens)
        assert list(out.scores) == sorted(out.scores, reverse=True)
        assert out.report.expansions == base.report.expansions
        assert out.report.rescoring_evals == len(base.beam)
        assert out.report.algorithm == "bidis"

    def test_selected_index_reports_original_rank(self, vocab6):
        regular, reverse = scripted_pair(vocab6)
        base = vbs_decode(regular, (4,), SearchParams(3, 2))
        out = bidis_decode(regular, reverse, (4,),
                           BidiSParams(SearchParams(3, 2), 1.5))
        assert base.beam[out.selected_index - 1] == out.selected
        assert out.selected == out.beam[out.position] == out.beam[0]

    def test_direction_mismatch_rejected(self, vocab6):
        regular, reverse = scripted_pair(vocab6)
        params = BidiSParams(SearchParams(2, 2), 1.0)
        with pytest.raises(DirectionError):
            bidis_decode(regular, regular, (4,), params)
        with pytest.raises(DirectionError):
            bidis_decode(reverse, reverse, (4,), params)
        # select_lambda checks the models as bidis_decode does, with or
        # without validation data to search.
        for validation in ([], [SentencePair((4,), (5,))]):
            for models in ((regular, regular), (reverse, reverse)):
                with pytest.raises(DirectionError):
                    select_lambda(*models, validation, params.search, [0.0, 1.0])

    def test_vocabulary_size_mismatch_rejected(self):
        regular = RandomTableLM(dummy_vocab(6), 1, direction=REGULAR)
        reverse = RandomTableLM(dummy_vocab(7), 2, direction=REVERSE)
        with pytest.raises(VocabularyMismatchError):
            bidis_decode(regular, reverse, (4,),
                         BidiSParams(SearchParams(2, 2), 1.0))
        for validation in ([], [SentencePair((4,), (5,))]):
            with pytest.raises(VocabularyMismatchError):
                select_lambda(regular, reverse, validation, SearchParams(2, 2), [0.0, 1.0])


class TestUnreverseHypothesis:
    def test_finished_keeps_terminator_last(self):
        hyp = Hypothesis((4, 5, EOS_ID), -1.5, True)
        assert unreverse_hypothesis(hyp).tokens == (5, 4, EOS_ID)

    def test_unfinished_plain_flip(self):
        hyp = Hypothesis((4, 5), -1.5, False)
        assert unreverse_hypothesis(hyp).tokens == (5, 4)

    def test_score_and_flag_preserved(self):
        hyp = Hypothesis((4, 5, EOS_ID), -1.5, True)
        out = unreverse_hypothesis(hyp)
        assert out.logprob == hyp.logprob
        assert out.finished

    def test_involution_on_cores(self):
        hyp = Hypothesis((4, 5, 4, EOS_ID), -1.5, True)
        assert unreverse_hypothesis(unreverse_hypothesis(hyp)) == hyp


class TestBidiaDecode:
    def test_odd_beam_rejected(self, vocab6):
        regular = RandomTableLM(vocab6, 1, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 2, direction=REVERSE)
        spec = SimilaritySpec(BLEU_T, max_length=4)
        for b in (1, 3, 5):
            with pytest.raises(ParameterError):
                bidia_decode(regular, reverse, (4,), SearchParams(b, 4), spec)

    def test_beam_of_two_returns_the_single_regular_hypothesis(self, vocab6):
        regular = RandomTableLM(vocab6, 5, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 6, direction=REVERSE)
        base = vbs_decode(regular, (4,), SearchParams(1, 4))
        out = bidia_decode(regular, reverse, (4,), SearchParams(2, 4),
                           SimilaritySpec(BLEU_T, max_length=4))
        assert out.selected == base.selected
        assert out.selected_index == 1
        assert len(out.beam) == 1
        assert len(out.reverse_beam) == 1
        assert out.report.pairwise_sim_evals == 1

    def test_selected_is_a_regular_beam_member(self, vocab6):
        for seed in range(15):
            regular = RandomTableLM(vocab6, 900 + seed, direction=REGULAR)
            reverse = RandomTableLM(vocab6, 950 + seed, direction=REVERSE)
            out = bidia_decode(regular, reverse, (4, 5), SearchParams(6, 5),
                               SimilaritySpec(BLEU_T, max_length=5))
            assert out.selected in out.beam
            assert out.beam[out.selected_index - 1] == out.selected == out.beam[out.position]
            assert out.position == out.selected_index - 1
            assert len(out.beam) == 3
            assert len(out.reverse_beam) == 3
            assert out.report.pairwise_sim_evals == 9

    def test_identical_half_beams_pick_an_identical_pair(self):
        # Single-token targets train identical regular and reverse count
        # tables, and with a two-step budget every core is its own reversal,
        # so the two half-beams coincide and self-similarity dominates at
        # fixed length. The winning pair still carries the length-1 brevity
        # penalty: d = 1 - bp_t(1, 2) = 1 - e^{-1}.
        surface = [(["q"], ["a"]), (["r"], ["b"]), (["q"], ["a"]),
                   (["r"], ["c"]), (["q"], ["b"])]
        vocab = build_vocabulary(surface)
        pairs = encode_pairs(surface, vocab)
        regular = ConditionalNGramLM.train(pairs, vocab, 2, REGULAR,
                                           [0.5, 0.5], 0.1)
        reverse = ConditionalNGramLM.train(pairs, vocab, 2, REVERSE,
                                           [0.5, 0.5], 0.1)
        out = bidia_decode(regular, reverse, (vocab.id_for("q"),),
                           SearchParams(4, 2),
                           SimilaritySpec(BLEU_T, max_length=2))
        assert [h.tokens for h in out.beam] == [
            h.tokens for h in out.reverse_beam]
        assert (out.agreement.regular_hypothesis.core()
                == out.agreement.reverse_hypothesis_regular_order.core())
        assert out.agreement.dissimilarity == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12)

    def test_agreement_record_is_consistent(self, vocab6):
        regular = RandomTableLM(vocab6, 77, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 78, direction=REVERSE)
        out = bidia_decode(regular, reverse, (4,), SearchParams(6, 5),
                           SimilaritySpec(BLEU_T, max_length=5))
        assert isinstance(out.agreement, AgreementPair)
        assert out.agreement.regular_hypothesis == out.selected
        assert out.agreement.reverse_hypothesis_regular_order in out.reverse_beam

    def test_matches_naive_pairwise_scan_bleu(self, vocab6):
        for seed in range(15):
            regular = RandomTableLM(vocab6, 2000 + seed, direction=REGULAR)
            reverse = RandomTableLM(vocab6, 6000 + seed, direction=REVERSE)
            out = bidia_decode(regular, reverse, (4, 5), SearchParams(8, 6),
                               SimilaritySpec(BLEU_T, max_length=6))
            i, j, d = naive_agreement_argmin(
                [h.core() for h in out.beam],
                [h.core() for h in out.reverse_beam],
                out.scores,
                lambda a, b: oracle_dissimilarity_bleu(a, b, 6))
            assert out.selected_index - 1 == i
            assert out.reverse_beam[j] == out.agreement.reverse_hypothesis_regular_order
            assert out.agreement.dissimilarity == pytest.approx(d, abs=1e-12)

    def test_matches_naive_pairwise_scan_wmd(self, vocab6):
        rng = np.random.default_rng(7)
        vectors = {vocab6.surface_for(i): rng.normal(size=3) for i in range(6)}
        table = EmbeddingTable(vectors)
        spec = SimilaritySpec(WMD_T, max_length=6, embeddings=table,
                              stopwords=frozenset(), vocab=vocab6)
        for seed in range(8):
            regular = RandomTableLM(vocab6, 3000 + seed, direction=REGULAR)
            reverse = RandomTableLM(vocab6, 7000 + seed, direction=REVERSE)
            out = bidia_decode(regular, reverse, (4, 5), SearchParams(8, 6), spec)

            def words(core):
                return [vocab6.surface_for(t) for t in core]

            i, j, d = naive_agreement_argmin(
                [h.core() for h in out.beam],
                [h.core() for h in out.reverse_beam],
                out.scores,
                lambda a, b: oracle_dissimilarity_wmd(
                    words(a), words(b), vectors, frozenset(), 6))
            assert out.selected_index - 1 == i

    def test_expansions_sum_over_both_searches(self, vocab6):
        regular = RandomTableLM(vocab6, 11, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 12, direction=REVERSE)
        half = SearchParams(3, 5)
        a = vbs_decode(regular, (4,), half)
        b = vbs_decode(reverse, (4,), half)
        out = bidia_decode(regular, reverse, (4,), SearchParams(6, 5),
                           SimilaritySpec(BLEU_T, max_length=5))
        assert out.report.expansions == a.report.expansions + b.report.expansions

    def test_reverse_members_score_under_reverse_model(self, vocab6):
        regular = RandomTableLM(vocab6, 21, direction=REGULAR)
        reverse = RandomTableLM(vocab6, 22, direction=REVERSE)
        out = bidia_decode(regular, reverse, (4,), SearchParams(8, 5),
                           SimilaritySpec(BLEU_T, max_length=5))
        for hyp in out.reverse_beam:
            if hyp.finished:
                score = reverse_sequence_logprob(reverse, (4,), hyp.core())
                assert score == hyp.logprob


def naive_over_library(regular_cores, reverse_cores, scores, spec):
    """The all-pairs scan over the library's ``dissimilarity``; for BLEU-T,
    pairs of equal d are ordered by the higher ``bleu_t`` first (an empty
    side's d is +inf whatever its similarity)."""
    return naive_agreement_argmin(
        regular_cores, reverse_cores, scores, lambda a, b: dissimilarity(a, b, spec),
        (lambda a, b: bleu_t(a, b, spec) if a and b else 0.0) if spec.kind == BLEU_T else None)


CORES = st.lists(st.integers(3, 8), max_size=4).map(tuple)
HALF_BEAMS = st.lists(CORES, min_size=1, max_size=4)


class TestAgreementArgmin:
    """The pruned scan must select exactly what the all-pairs scan selects."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_naive_scan(self, data):
        vocab = dummy_vocab(9)
        spec = data.draw(st.one_of(
            wmd_measures(vocab),
            covering_wmd_measures(vocab),
            st.builds(SimilaritySpec, st.just(BLEU_T), st.one_of(st.integers(1, 6), st.just(100)))))
        regular = data.draw(HALF_BEAMS)
        reverse = regular if data.draw(st.booleans()) else data.draw(HALF_BEAMS)
        scores = data.draw(st.lists(st.sampled_from([0.0, -0.5, -1.0, -math.inf]),
                                    min_size=len(regular), max_size=len(regular)))
        i, j, d, exact = agreement_argmin(regular, reverse, scores, spec)
        assert (i, j, d) == naive_over_library(regular, reverse, scores, spec)
        assert 1 <= exact <= len(regular) * len(reverse)

    def test_a_tie_highs_rounds_apart_is_decided_by_the_library_d(self):
        # As in test_bound_one_ulp_above_a_tie_is_still_visited, pair (1, 1)
        # is a single-word pair placed at pair (0, 0)'s WMD.  HiGHS rounds
        # pair (0, 0) one ulp above that value, so a scan over its solves
        # would pick (1, 1); the library's d's (and ``wmd``) tie, and pair
        # (0, 0) wins on its higher regular score.
        vocab = dummy_vocab(10)
        points = {"w4": [0.2, 0.2], "w5": [-0.3, -0.4], "w6": [0.1, 0.2],
                  "w7": [0.2, -0.2], "w8": [0.0, 50.0]}
        tie = dissimilarity((4, 5, 6), (7,), SimilaritySpec(
            WMD_T, max_length=1, vocab=vocab,
            embeddings=EmbeddingTable({w: np.array(x) for w, x in points.items()})))
        points["w9"] = [tie, 50.0]
        table = EmbeddingTable({w: np.array(x) for w, x in points.items()})
        spec = SimilaritySpec(WMD_T, max_length=1, embeddings=table, vocab=vocab)
        words = (["w4", "w5", "w6"], ["w7"])
        assert highs_wmd(*words, table) > tie == wmd(*words, table) == dissimilarity((8,), (9,), spec)
        assert agreement_argmin([(4, 5, 6), (8,)], [(7,), (9,)], [-1.0, -2.0], spec) == (0, 0, tie, 2)

    def test_bleu_t_ties_of_a_large_t_are_broken_by_the_similarity(self):
        # At T = 100 the brevity penalty of a two-token candidate is below
        # 2**-53, so both pairs' d = 1 - bleu_t rounds to 1.0.  Their bleu_t
        # still differ (about 3.7e-22 and 5.2e-22), and the identical pair
        # (1, 0) wins although pair (0, 0) has the higher regular score.
        spec = SimilaritySpec(BLEU_T, 100)
        regular, reverse = [("a", "b"), ("a", "a")], [("a", "a")]
        assert [dissimilarity(y_n, reverse[0], spec) for y_n in regular] == [1.0, 1.0]
        assert bleu_t(regular[1], reverse[0], spec) > bleu_t(regular[0], reverse[0], spec) > 0.0
        assert agreement_argmin(regular, reverse, [-1.0, -2.0], spec) == (1, 0, 1.0, 2)

    def test_tie_with_a_larger_bound_is_still_visited(self):
        # Pair (1, 1) has WMD 2.5 but relaxed bound 2, so it is visited
        # first; pair (0, 0) ties it at 2.5 with a bound of exactly 2.5 and
        # wins on the higher regular score.  A scan that prunes on
        # bound >= best would drop the winner.
        vocab = dummy_vocab(9)
        points = {"w4": 100.0, "w5": 102.5, "w6": 0.0, "w7": 1.0, "w8": 5.0}
        table = EmbeddingTable({w: np.array([x, 0.0]) for w, x in points.items()})
        spec = SimilaritySpec(WMD_T, max_length=1, embeddings=table, vocab=vocab)
        regular = [(4,), (6, 7)]
        reverse = [(5,), (7, 8)]
        assert dissimilarity((4,), (5,), spec) == dissimilarity((6, 7), (7, 8), spec) == 2.5
        i, j, d, exact = agreement_argmin(regular, reverse, [-1.0, -2.0], spec)
        assert (i, j, d) == (0, 0, 2.5)
        assert exact == 2

    def test_bound_one_ulp_above_a_tie_is_still_visited(self):
        # Mathematically the relaxed bound of three words against one equals
        # their WMD; in floats it lands one ulp above it here.  Pair (1, 1)
        # is a single-word pair placed at exactly that WMD, so it is visited
        # first and ties pair (0, 0), which wins on the higher regular score.
        vocab = dummy_vocab(10)
        points = {"w4": [-0.9, -0.6], "w5": [-0.5, 0.5], "w6": [0.1, -0.1],
                  "w7": [-0.6, 0.5], "w8": [0.0, 50.0]}
        tie = dissimilarity((4, 5, 6), (7,), SimilaritySpec(
            WMD_T, max_length=1, vocab=vocab,
            embeddings=EmbeddingTable({w: np.array(x) for w, x in points.items()})))
        points["w9"] = [tie, 50.0]
        table = EmbeddingTable({w: np.array(x) for w, x in points.items()})
        spec = SimilaritySpec(WMD_T, max_length=1, embeddings=table, vocab=vocab)
        regular = [(4, 5, 6), (8,)]
        reverse = [(7,), (9,)]
        assert dissimilarity_lower_bound((4, 5, 6), (7,), spec) > tie
        assert dissimilarity((8,), (9,), spec) == tie
        i, j, d, _ = agreement_argmin(regular, reverse, [-1.0, -2.0], spec)
        assert (i, j, d) == (0, 0, tie)

    def test_all_degenerate_pairs_fall_back_to_the_score_order(self):
        vocab = dummy_vocab(6)
        table = EmbeddingTable({"w4": np.zeros(2), "w5": np.ones(2)})
        spec = SimilaritySpec(WMD_T, max_length=3, embeddings=table,
                              stopwords=frozenset({"w4", "w5"}), vocab=vocab)
        i, j, d, exact = agreement_argmin([(4,), (5,)], [(5,), (4, 5)],
                                          [-2.0, -1.0], spec)
        assert (i, j, d) == (1, 0, math.inf)
        assert exact == 4

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 10 ** 6), st.sampled_from([2, 4, 6, 8]))
    def test_bidia_decode_equals_naive_scan(self, data, seed, b):
        vocab = dummy_vocab(9)
        spec = data.draw(st.one_of(wmd_measures(vocab), covering_wmd_measures(vocab)))
        regular = RandomTableLM(vocab, seed, direction=REGULAR)
        reverse = RandomTableLM(vocab, seed + 1, direction=REVERSE)
        out = bidia_decode(regular, reverse, (4, 5), SearchParams(b, 5), spec)
        i, j, d = naive_over_library([h.core() for h in out.beam],
                                     [h.core() for h in out.reverse_beam],
                                     out.scores, spec)
        assert out.selected_index - 1 == i
        assert out.agreement.reverse_hypothesis_regular_order == out.reverse_beam[j]
        assert out.agreement.dissimilarity == d
        assert out.report.pairwise_sim_evals == (b // 2) ** 2
        assert 1 <= out.report.exact_sim_evals <= (b // 2) ** 2
