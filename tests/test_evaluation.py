"""Corpus BLEU, diversity, oracle re-ranking, rank and position statistics."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidibeam.beam import Hypothesis, Memo, SearchParams, vbs_decode
from bidibeam.corpus import EOS_ID, SentencePair, build_vocabulary, encode_pairs
from bidibeam.errors import ParameterError
from bidibeam.evaluation import (
    RankHistogram,
    _ngrams,
    _sentence_bleu4,
    best_hypothesis,
    corpus_bleu4,
    distinct_n,
    rank_histogram,
    sentence_bleu4,
    surface_position_frequency,
    word_position_frequency,
)

from conftest import RandomTableLM, dummy_vocab, made_by
from oracles import (
    oracle_best_hypothesis,
    oracle_corpus_bleu4,
    oracle_sentence_bleu4,
    oracle_word_position_frequency,
)

SENTENCES = st.lists(st.sampled_from("abcd"), min_size=1, max_size=7)


class TestCorpusBleu4:
    def test_perfect_corpus_scores_one_hundred_exactly(self):
        pairs = [(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
                 (["x", "y", "z", "w"], ["x", "y", "z", "w"])]
        assert corpus_bleu4(pairs) == 100.0

    def test_hand_counted_single_pair(self):
        # p1..p4 = 4/5, 3/4, 2/3, 1/2 with BP = 1, so the score is
        # 100 * (0.2 ** 0.25) = 66.874...
        pair = (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "f"])
        assert corpus_bleu4([pair]) == pytest.approx(66.874, abs=1e-3)
        assert corpus_bleu4([pair]) == pytest.approx(
            100 * 0.2 ** 0.25, abs=1e-9)

    def test_brevity_penalty_isolated(self):
        # A strict prefix keeps every precision at 1, leaving only BP.
        pair = (["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"])
        assert corpus_bleu4([pair]) == pytest.approx(
            100 * math.exp(1 - 6 / 4), abs=1e-9)

    def test_any_zero_match_order_scores_zero(self):
        pairs = [(["a", "b", "c", "d"], ["a", "c", "b", "d"])]
        # Unigrams all match but no four-gram does.
        assert corpus_bleu4(pairs) == 0.0

    def test_disjoint_pair_scores_zero(self):
        assert corpus_bleu4([(["a"], ["b"])]) == 0.0

    def test_permutation_invariant(self):
        pairs = [(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "f"]),
                 (["x", "y", "z", "v", "w"], ["x", "y", "z", "v", "w"]),
                 (["p", "q", "r", "s", "t"], ["p", "q", "s", "r", "t"])]
        base = corpus_bleu4(pairs)
        for _ in range(5):
            shuffled = pairs[:]
            random.Random(0).shuffle(shuffled)
            assert corpus_bleu4(shuffled) == base

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            corpus_bleu4([])

    def test_counts_stay_clipped(self):
        # "a a a" against "a" matches one unigram, not three; the second
        # pair gives every order a match: p1..p4 = 5/7, 3/5, 2/3, 1/1.
        pairs = [(["a", "a", "a"], ["a"]), (["b", "c", "d", "e"], ["b", "c", "d", "e"])]
        assert corpus_bleu4(pairs) == oracle_corpus_bleu4(pairs)
        assert corpus_bleu4(pairs) == pytest.approx(
            100 * (5 / 7 * 3 / 5 * 2 / 3) ** 0.25, abs=1e-9)

    # Candidates may be empty, and short ones leave the higher orders
    # without n-grams; two words make most orders match somewhere.
    @given(st.lists(st.tuples(st.lists(st.sampled_from("ab"), max_size=6),
                              st.lists(st.sampled_from("ab"), min_size=1, max_size=7)),
                    min_size=1, max_size=6))
    @example([([], ["a"])])
    @example([(["a", "b"], ["a", "b", "c"]), ([], ["d"])])
    def test_matches_independent_reimplementation(self, pairs):
        assert corpus_bleu4(pairs) == oracle_corpus_bleu4(pairs)

    @given(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=1, max_size=6))
    def test_self_corpus_always_one_hundred(self, pairs):
        same = [(ref, ref) for _, ref in pairs]
        assert corpus_bleu4(same) == 100.0


class TestDistinctN:
    def test_all_distinct_unigrams(self):
        assert distinct_n([["i", "like", "cats"]], 1) == 1.0

    def test_hand_counted_pair_of_sentences(self):
        assert distinct_n([["yes", "yes"], ["yes", "no"]], 1) == 0.5

    def test_single_sentence_full_order(self):
        for sentence in (["a"], ["a", "b"], ["a", "b", "c", "d"]):
            n = len(sentence)
            assert distinct_n([sentence], n) == pytest.approx(1 / n)

    def test_denominator_is_words_not_ngrams(self):
        # Two bigrams from three words: 2 distinct / 3 words.
        assert distinct_n([["a", "b", "c"]], 2) == pytest.approx(2 / 3)

    def test_invalid_n_rejected(self):
        with pytest.raises(ParameterError):
            distinct_n([["a"]], 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ParameterError):
            distinct_n([], 1)

    def test_sentences_without_words_score_zero(self):
        assert distinct_n([[], []], 1) == 0.0
        assert distinct_n([[]], 2) == 0.0

    @given(st.lists(SENTENCES, min_size=1, max_size=5), st.integers(1, 4))
    def test_never_exceeds_one(self, sentences, n):
        assert distinct_n(sentences, n) <= 1.0


class TestSentenceBleu4:
    def test_exact_match_scores_one(self):
        y = ["a", "b", "c", "d", "e"]
        assert sentence_bleu4(y, y) == 1.0

    def test_empty_candidate_scores_zero(self):
        assert sentence_bleu4([], ["a"]) == 0.0

    @given(SENTENCES, SENTENCES)
    def test_matches_independent_reimplementation(self, cand, ref):
        assert sentence_bleu4(cand, ref) == oracle_sentence_bleu4(cand, ref)


class TestBestHypothesis:
    def test_singleton_beam(self):
        beam = [Hypothesis((4, EOS_ID), -1.0, True)]
        hyp, rank = best_hypothesis(beam, (5,))
        assert hyp is beam[0]
        assert rank == 1

    def test_exact_reference_at_rank_seven_wins(self):
        reference = (4, 5, 4, 5, 6)
        filler = [Hypothesis((6, 6, i % 3 + 4, EOS_ID), -2.0, True)
                  for i in range(7)]
        beam = filler[:6] + [Hypothesis(reference + (EOS_ID,), -9.0, True),
                             filler[6]]
        hyp, rank = best_hypothesis(beam, reference)
        assert hyp.core() == reference
        assert rank == 7

    def test_tie_keeps_lowest_rank(self):
        beam = [Hypothesis((4, EOS_ID), -1.0, True),
                Hypothesis((4, EOS_ID), -2.0, True)]
        _, rank = best_hypothesis(beam, (4,))
        assert rank == 1

    def test_matches_naive_scan(self):
        """Against the oracle's argmax, on beams with EOS-only members
        (empty bodies) and with every other member repeated at the end."""
        rng = random.Random(5)
        for _ in range(60):
            bodies = [tuple(rng.randint(4, 7) for _ in range(rng.randint(0, 6)))
                      for _ in range(rng.randint(1, 8))]
            beam = [Hypothesis(b + (EOS_ID,), -1.0, True) for b in bodies + bodies[::2]]
            reference = tuple(rng.randint(4, 7) for _ in range(rng.randint(1, 6)))
            hyp, rank = best_hypothesis(beam, reference)
            assert rank == oracle_best_hypothesis([h.core() for h in beam], reference)
            assert hyp is beam[rank - 1]

    def test_oracle_dominates_rank_one(self, vocab6):
        for seed in range(10):
            model = RandomTableLM(vocab6, 500 + seed)
            out = vbs_decode(model, (4,), SearchParams(6, 5))
            reference = (4, 5, 4)
            hyp, _ = best_hypothesis(out.beam, reference)
            assert (sentence_bleu4(hyp.core(), reference)
                    >= sentence_bleu4(out.beam[0].core(), reference))

    def test_empty_beam_rejected(self):
        with pytest.raises(ParameterError):
            best_hypothesis([], (4,))


# Small beams over four ids, so members, references and whole cases repeat.
BODIES = st.lists(st.integers(4, 7), max_size=5).map(tuple)
CASES = st.lists(
    st.tuples(st.lists(BODIES, min_size=1, max_size=5),
              st.lists(st.integers(4, 7), min_size=1, max_size=5).map(tuple)),
    min_size=1, max_size=8,
)


class TestSharedBleuMemo:
    @settings(max_examples=100, deadline=None)
    @given(CASES)
    def test_one_memo_equals_memo_free_calls_and_oracles(self, cases):
        """One memo serves every call, in any order: each result equals the
        call without a memo and the oracle, exactly."""
        memo = Memo()
        pairs = []
        for bodies, reference in cases + cases[::2]:
            beam = [Hypothesis(b + (EOS_ID,), -1.0, True) for b in bodies + bodies[::2]]
            hyp, rank = best_hypothesis(beam, reference, memo)
            assert (hyp, rank) == best_hypothesis(beam, reference)
            assert rank == oracle_best_hypothesis([h.core() for h in beam], reference)
            assert hyp is beam[rank - 1]
            for body in bodies:
                assert sentence_bleu4(body, reference) == oracle_sentence_bleu4(body, reference)
                pairs.append((body, reference))
            assert corpus_bleu4(pairs, memo) == corpus_bleu4(pairs) == oracle_corpus_bleu4(pairs)
        # Every candidate seen so far against every reference, through the
        # same memo: one candidate meets several references and one
        # reference several candidates.
        for body in {body for body, _ in pairs}:
            for reference in {reference for _, reference in pairs}:
                pair = [(body, reference)]
                assert corpus_bleu4(pair, memo) == oracle_corpus_bleu4(pair)

    def test_entries_are_keyed_by_both_sides(self):
        """One candidate against two references, and two candidates against
        one reference, each keep their own counts in one memo."""
        shared, other = (4, 5, 6, 7), (6, 5)
        first, second = (4, 5, 6, 7, 4), (7, 6, 5, 4)
        memo = Memo()
        for candidate, reference in [(shared, first), (shared, second), (other, first),
                                     (other, second), (shared, first)]:
            pair = [(candidate, reference)]
            assert corpus_bleu4(pair, memo) == oracle_corpus_bleu4(pair)
            beam = [Hypothesis(body + (EOS_ID,), -1.0, True) for body in (other, shared)]
            _, rank = best_hypothesis(beam, reference, memo)
            assert rank == oracle_best_hypothesis([other, shared], reference)
        # The four pairs' counts differ, so a mixed-up entry changes a score.
        assert len({oracle_sentence_bleu4(candidate, reference)
                    for candidate in (shared, other) for reference in (first, second)}) == 4

    @settings(max_examples=100, deadline=None)
    @given(CASES)
    def test_cached_scores_equal_the_oracles(self, cases):
        """Every sentence score that one shared memo keeps is the oracle's
        score of its own (candidate, reference) pair, so ranks follow the
        oracle's, ties included (the lowest rank wins)."""
        memo = Memo()
        for bodies, reference in cases + cases[::-1]:
            # Repeated members tie exactly; the oracle keeps the first.
            beam = [Hypothesis(b + (EOS_ID,), -1.0, True) for b in bodies + bodies[::-1]]
            hyp, rank = best_hypothesis(beam, reference, memo)
            assert rank == oracle_best_hypothesis([h.core() for h in beam], reference)
            assert hyp is beam[rank - 1]
            scores = {body: memo[_sentence_bleu4, body, scored]
                      for body, scored in made_by(memo, _sentence_bleu4) if scored == reference}
            assert set(bodies) <= set(scores)
            for body, score in scores.items():
                assert score == oracle_sentence_bleu4(body, reference)
                assert sentence_bleu4(body, reference) == score
            pairs = [(body, reference) for body in bodies]
            assert corpus_bleu4(pairs, memo) == oracle_corpus_bleu4(pairs)

    def test_one_candidate_keeps_a_score_per_reference(self):
        candidate, first, second = (4, 5, 6, 7), (4, 5, 6, 7, 4), (7, 6, 5, 4)
        memo = Memo()
        beam = [Hypothesis(candidate + (EOS_ID,), -1.0, True)]
        for reference in (first, second, first):
            best_hypothesis(beam, reference, memo)
        assert made_by(memo, _sentence_bleu4) == {(candidate, first), (candidate, second)}
        scores = [memo[_sentence_bleu4, candidate, reference] for reference in (first, second)]
        assert scores == [oracle_sentence_bleu4(candidate, r) for r in (first, second)]
        assert scores[0] != scores[1]

    def test_corpus_bleu_scores_no_sentence(self):
        memo = Memo()
        corpus_bleu4([((4, 5), (4, 5, 6)), ((6,), (6, 7))], memo)
        assert made_by(memo, _ngrams) == {((4, 5, 6),), ((6, 7),)}
        assert not made_by(memo, _sentence_bleu4)


def fake_run(index):
    hyp = Hypothesis((4, EOS_ID), -1.0, True)

    class Run:
        selected_index = index

    return Run()


class TestRankHistogram:
    def test_plain_search_concentrates_at_rank_one(self, vocab6):
        runs = [vbs_decode(RandomTableLM(vocab6, 600 + s), (4,),
                           SearchParams(4, 4)) for s in range(6)]
        hist = rank_histogram(runs, 4)
        assert hist.counts == [6, 0, 0, 0]

    def test_hand_counts(self):
        hist = rank_histogram([fake_run(1), fake_run(1), fake_run(2)], 2)
        assert hist.counts == [2, 1]
        assert hist.total == 3
        assert hist.count_for(1) == 2

    def test_mass_conservation(self):
        rng = random.Random(9)
        runs = [fake_run(rng.randint(1, 5)) for _ in range(40)]
        assert rank_histogram(runs, 5).total == 40

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ParameterError):
            rank_histogram([fake_run(3)], 2)
        with pytest.raises(ParameterError):
            rank_histogram([fake_run(0)], 2)


class TestWordPositionFrequency:
    @staticmethod
    def corpus(targets):
        surface = [(["q"], t) for t in targets]
        vocab = build_vocabulary(surface)
        return encode_pairs(surface, vocab), vocab

    def test_identical_targets_regular(self):
        pairs, vocab = self.corpus([["the", "cat"]] * 10)
        assert word_position_frequency(pairs, vocab, 1) == [("the", 10)]

    def test_identical_targets_reverse(self):
        pairs, vocab = self.corpus([["the", "cat"]] * 10)
        got = word_position_frequency(pairs, vocab, 1, order="reverse")
        assert got == [("cat", 10)]

    def test_hand_tally_mixed_corpus(self):
        pairs, vocab = self.corpus([
            ["yes", "i", "do"],
            ["yes", "we", "can"],
            ["no", "i", "said"],
            ["maybe"],
            ["no", "way"],
        ])
        assert word_position_frequency(pairs, vocab, 1) == [
            ("no", 2), ("yes", 2), ("maybe", 1)]
        assert word_position_frequency(pairs, vocab, 2) == [
            ("i", 2), ("way", 1), ("we", 1)]
        assert word_position_frequency(pairs, vocab, 3) == [
            ("can", 1), ("do", 1), ("said", 1)]

    def test_reverse_equals_regular_of_reversed_corpus(self):
        targets = [["a", "b", "c"], ["d", "e"], ["f"]]
        pairs, vocab = self.corpus(targets)
        flipped, vocab2 = self.corpus([list(reversed(t)) for t in targets])
        for position in (1, 2, 3):
            assert (word_position_frequency(pairs, vocab, position,
                                            order="reverse")
                    == word_position_frequency(flipped, vocab2, position))

    def test_top_k_truncates(self):
        pairs, vocab = self.corpus([["a"], ["b"], ["c"], ["a"]])
        got = word_position_frequency(pairs, vocab, 1, top_k=2)
        assert got == [("a", 2), ("b", 1)]

    def test_short_sentences_skip_position(self):
        pairs, vocab = self.corpus([["solo"], ["one", "two"]])
        assert word_position_frequency(pairs, vocab, 3) == []

    @given(st.lists(st.lists(st.sampled_from("abcdefghijkl"), min_size=1, max_size=6),
                    min_size=1, max_size=30),
           st.sampled_from(["regular", "reverse"]),
           st.integers(1, 3),
           st.integers(1, 5))
    def test_matches_oracle(self, targets, order, position, top_k):
        pairs, vocab = self.corpus(targets)
        assert (word_position_frequency(pairs, vocab, position, order, top_k)
                == oracle_word_position_frequency(pairs, vocab, position, order, top_k))

    @given(st.lists(st.lists(st.sampled_from("abcdefghijkl"), min_size=1, max_size=6),
                    min_size=1, max_size=30),
           st.sets(st.sampled_from("abcdefghijkl")),
           st.sampled_from(["regular", "reverse"]),
           st.integers(1, 3),
           st.integers(1, 5))
    def test_surface_targets_equal_encoded_targets(self, targets, known, order, position, top_k):
        """Counting words before encoding them gives the table of the encoded
        corpus, with the words outside the vocabulary merged into UNK."""
        vocab = build_vocabulary([(["q"], sorted(known) or ["q"])])
        pairs = encode_pairs([(["q"], t) for t in targets], vocab)
        assert (surface_position_frequency(targets, vocab, position, order, top_k)
                == oracle_word_position_frequency(pairs, vocab, position, order, top_k))

    @pytest.mark.parametrize("order", ["regular", "reverse"])
    def test_out_of_range_id_raises_like_oracle(self, order):
        _, vocab = self.corpus([["a"], ["b"]])
        pairs = [SentencePair((4,), target) for target in
                 [(4, 5), (5, 9, 8, 4), (10, 8, 5), (4, 8, 8, 9), (9, 4)]]
        with pytest.raises(ParameterError) as want:
            oracle_word_position_frequency(pairs, vocab, 2, order)
        with pytest.raises(ParameterError) as got:
            word_position_frequency(pairs, vocab, 2, order)
        assert str(got.value) == str(want.value)

    def test_position_validation(self):
        pairs, vocab = self.corpus([["a"]])
        with pytest.raises(ParameterError):
            word_position_frequency(pairs, vocab, 4)
        with pytest.raises(ParameterError):
            word_position_frequency(pairs, vocab, 1, order="shuffled")
        with pytest.raises(ParameterError):
            word_position_frequency(pairs, vocab, 1, top_k=0)
        for bad in ({"position": 4}, {"order": "shuffled"}, {"top_k": 0}):
            with pytest.raises(ParameterError):
                surface_position_frequency([["a"]], vocab, **{"position": 1, **bad})
