"""Beam search: length penalty, ranking, termination, instrumentation."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidibeam.beam import (
    DecodeOutput,
    Hypothesis,
    SearchParams,
    length_penalty,
    normalized_score,
    vbs_decode,
)
from bidibeam.corpus import EOS_ID, build_vocabulary, encode_pairs
from bidibeam.errors import ParameterError
from bidibeam.lm import REGULAR, ConditionalNGramLM

from conftest import NoEosLM, PeakedEosLM, RandomTableLM, TieLM, dummy_vocab
from oracles import exhaustive_best, reference_vbs


class TestLengthPenalty:
    def test_length_one_is_neutral(self):
        assert length_penalty(1, 0.6) == 1.0

    def test_alpha_zero_is_neutral(self):
        for length in (1, 2, 7, 40):
            assert length_penalty(length, 0.0) == 1.0

    def test_hand_value_length_five(self):
        # ((5 + 5) / 6) ** 0.6, evaluated through exp/log as the oracle.
        expected = math.exp(0.6 * math.log(10 / 6))
        assert length_penalty(5, 0.6) == pytest.approx(expected, abs=1e-12)
        assert length_penalty(5, 0.6) == pytest.approx(1.3586553, abs=1e-6)

    def test_monotone_in_length(self):
        values = [length_penalty(n, 0.6) for n in range(1, 30)]
        assert values == sorted(values)
        assert all(v >= 1.0 for v in values)

    def test_length_below_one_rejected(self):
        with pytest.raises(ParameterError):
            length_penalty(0, 0.6)


class TestNormalizedScore:
    def test_zero_logprob(self):
        assert normalized_score(0.0, 3, 0.6) == 0.0

    def test_length_one_passthrough(self):
        assert normalized_score(-2.0, 1, 0.6) == -2.0

    def test_hand_value(self):
        expected = -2.0 / math.exp(0.6 * math.log(10 / 6))
        assert normalized_score(-2.0, 5, 0.6) == pytest.approx(expected, abs=1e-12)
        assert normalized_score(-2.0, 5, 0.6) == pytest.approx(-1.4721, abs=1e-4)

    @given(st.floats(-50, -0.1), st.integers(1, 30))
    def test_normalization_shrinks_magnitude(self, logprob, length):
        score = normalized_score(logprob, length, 0.6)
        assert logprob - 1e-12 <= score <= 0


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SearchParams(0, 5)
        with pytest.raises(ParameterError):
            SearchParams(4, 0)
        with pytest.raises(ParameterError):
            SearchParams(4, 5, alpha=1.5)
        with pytest.raises(ParameterError):
            SearchParams(4, 5, alpha=-0.1)

    def test_default_alpha(self):
        assert SearchParams(4, 5).alpha == 0.6


class TestHypothesis:
    def test_core_strips_final_eos(self):
        assert Hypothesis((4, 5, EOS_ID), -1.0, True).core() == (4, 5)

    def test_core_keeps_unfinished_tokens(self):
        assert Hypothesis((4, 5), -1.0, False).core() == (4, 5)

    def test_pure_eos_core_is_empty(self):
        assert Hypothesis((EOS_ID,), -0.5, True).core() == ()


class FixedRowLM:
    """The same next-token row after every prefix."""

    direction = REGULAR

    def __init__(self, vocab, row):
        self.vocab = vocab
        self._row = np.array(row)

    def next_token_logprobs(self, source, prefix):
        return self._row


class TestVbsDecode:
    def test_certain_eos_wins_immediately(self, vocab6):
        model = PeakedEosLM(vocab6)
        out = vbs_decode(model, (4,), SearchParams(3, 5))
        assert out.selected.tokens == (EOS_ID,)
        assert out.selected.finished
        assert out.scores[0] == 0.0
        assert out.selected_index == 1

    def test_beam_is_sorted_and_selected_is_top(self, vocab6):
        model = RandomTableLM(vocab6, 17)
        out = vbs_decode(model, (4, 5), SearchParams(6, 5))
        assert list(out.scores) == sorted(out.scores, reverse=True)
        assert out.selected == out.beam[out.position] == out.beam[0]
        assert out.position == 0
        assert out.selected_index == 1
        assert len(out.beam) == 6

    def test_selected_is_read_from_position(self, vocab6):
        """The selection is stored once, as its index in the beam."""
        out = vbs_decode(RandomTableLM(vocab6, 17), (4, 5), SearchParams(6, 5))
        assert "selected" not in {field.name for field in dataclasses.fields(DecodeOutput)}
        assert dataclasses.replace(out, position=3).selected == out.beam[3]

    def test_tie_break_is_lexicographic(self, vocab6):
        # A uniform model scores all sequences of one length identically,
        # so ordering inside the beam must come from the token ids.
        model = ConditionalNGramLM.from_counts(vocab6, 1, REGULAR, [1.0], 1.0, {1: {}})
        out = vbs_decode(model, (4,), SearchParams(4, 2))
        same_score = [h.tokens for h, s in zip(out.beam, out.scores)
                      if s == out.scores[0]]
        assert same_score == sorted(same_score)

    def test_expansions_closed_form_when_nothing_finishes(self, vocab6):
        # With EOS effectively impossible the beam stays full of alive
        # hypotheses: 1 * V at step one, then B * V for each later step.
        model = NoEosLM(vocab6)
        b, t, v = 4, 5, 6
        out = vbs_decode(model, (4,), SearchParams(b, t))
        assert out.report.expansions == v + (t - 1) * b * v

    def test_sort_events_bounded_by_candidate_pool(self, vocab6):
        model = RandomTableLM(vocab6, 3)
        b = 5
        out = vbs_decode(model, (4,), SearchParams(b, 6))
        assert out.report.sort_events
        for _step, size in out.report.sort_events:
            assert size <= b * vocab6.size

    def test_finished_hypotheses_end_with_single_eos(self, vocab6):
        for seed in range(10):
            model = RandomTableLM(vocab6, 100 + seed)
            out = vbs_decode(model, (5,), SearchParams(4, 4))
            for hyp in out.beam:
                if hyp.finished:
                    assert hyp.tokens[-1] == EOS_ID
                    assert hyp.tokens.count(EOS_ID) == 1
                else:
                    assert EOS_ID not in hyp.tokens
                    assert len(hyp.tokens) == 4

    def test_scores_match_recomputation(self, vocab6):
        model = RandomTableLM(vocab6, 23)
        params = SearchParams(6, 5)
        out = vbs_decode(model, (4, 5), params)
        for hyp, score in zip(out.beam, out.scores):
            again = normalized_score(hyp.logprob, len(hyp.tokens), params.alpha)
            assert score == again

    def test_deterministic_across_runs(self, vocab6):
        model = RandomTableLM(vocab6, 31)
        params = SearchParams(5, 6)
        a = vbs_decode(model, (4,), params)
        b = vbs_decode(model, (4,), params)
        assert a.beam == b.beam
        assert a.scores == b.scores
        assert a.selected == b.selected
        assert a.report.expansions == b.report.expansions

    def test_matches_exhaustive_search_small(self, vocab6):
        for seed in range(10):
            model = RandomTableLM(dummy_vocab(5), 200 + seed)
            params = SearchParams(5 ** 3, 3)
            out = vbs_decode(model, (4,), params)
            tokens, score = exhaustive_best(model, (4,), 5, 3, params.alpha)
            assert out.selected.tokens == tokens
            assert out.scores[0] == pytest.approx(score, abs=1e-12)

    def test_top_score_monotone_in_beam_size_on_trained_models(self):
        # Guaranteed for these fixed trained instances, checked empirically;
        # arbitrary models can violate it because a greedy prefix may be
        # crowded out of a larger beam before its strong continuation.
        from bidibeam.synth import synthetic_pairs

        pairs = synthetic_pairs(120, seed=5)
        vocab = build_vocabulary(pairs)
        enc = encode_pairs(pairs, vocab)
        model = ConditionalNGramLM.train(enc, vocab, 3, REGULAR)
        for pair in enc[:12]:
            previous = -math.inf
            for b in (1, 2, 4, 8, 16):
                out = vbs_decode(model, pair.source, SearchParams(b, 10))
                assert out.scores[0] >= previous - 1e-12
                previous = out.scores[0]

    def test_padding_fills_beam_with_unfinished(self, vocab6):
        model = NoEosLM(vocab6)
        out = vbs_decode(model, (4,), SearchParams(3, 2))
        assert len(out.beam) == 3
        assert not any(h.finished for h in out.beam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_positive_infinite_logprob_rejected(self, vocab6, bad):
        model = FixedRowLM(vocab6, [-1.0, -1.0, bad, -1.0, -1.0, -1.0])
        with pytest.raises(ParameterError, match="NaN or \\+inf"):
            vbs_decode(model, (4,), SearchParams(2, 3))

    def test_negative_infinite_logprob_decodes(self, vocab6):
        # PeakedEosLM gives every token but EOS log-probability -inf.
        model = PeakedEosLM(vocab6)
        out = vbs_decode(model, (4,), SearchParams(4, 3))
        assert out.selected.tokens == (EOS_ID,)
        assert out.beam[1:] and all(s == -math.inf for s in out.scores[1:])

    def test_row_of_wrong_length_rejected(self, vocab6):
        model = FixedRowLM(vocab6, [-1.0] * 5)
        with pytest.raises(ParameterError, match="length V"):
            vbs_decode(model, (4,), SearchParams(2, 3))

    def test_tiny_vocabulary_rejected(self):
        fake = SimpleNamespace(vocab=SimpleNamespace(size=1), direction=REGULAR)
        with pytest.raises(ParameterError):
            vbs_decode(fake, (0,), SearchParams(2, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 6))
def test_beam_never_exceeds_b_and_stays_sorted(seed, b, t):
    model = RandomTableLM(dummy_vocab(6), seed)
    out = vbs_decode(model, (4,), SearchParams(b, t))
    assert 1 <= len(out.beam) <= b
    assert list(out.scores) == sorted(out.scores, reverse=True)
    assert len(out.beam) == len(out.scores)
    for hyp in out.beam:
        assert 1 <= len(hyp.tokens) <= t


MODELS = {
    "random": lambda vocab, seed: RandomTableLM(vocab, seed),
    "ties": lambda vocab, seed: TieLM(vocab, seed),
    "no-eos": lambda vocab, seed: NoEosLM(vocab),
    "peaked-eos": lambda vocab, seed: PeakedEosLM(vocab),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(0, 10 ** 6), st.integers(4, 7),
       st.integers(1, 10), st.integers(1, 5), st.sampled_from([0.0, 0.6, 1.0]))
def test_matches_reference_loop_exactly(kind, seed, v, b, t, alpha):
    """The array step equals sorting all B x V candidates, bit for bit."""
    model = MODELS[kind](dummy_vocab(v), seed)
    out = vbs_decode(model, (4,), SearchParams(b, t, alpha))
    ref = reference_vbs(model, (4,), v, b, t, alpha)
    assert [(h.tokens, h.logprob, h.finished) for h in out.beam] == ref.beam
    assert list(out.scores) == ref.scores
    assert out.selected == out.beam[out.position] == out.beam[0]
    assert out.report.expansions == ref.expansions
    assert out.report.sort_events == ref.sort_events
