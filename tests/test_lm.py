"""Conditional n-gram model: counting, smoothing, scoring, serialization."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidibeam import lm
from bidibeam.corpus import EOS_ID, SentencePair, build_vocabulary, encode_pairs
from bidibeam.errors import (
    DirectionError,
    FormatError,
    ParameterError,
    VocabularyMismatchError,
)
from bidibeam.lm import REGULAR, REVERSE, ConditionalNGramLM, reverse_sequence_logprob
from bidibeam.synth import synthetic_pairs

from conftest import dummy_vocab
from oracles import oracle_ngram_logprobs, reference_model_file, reference_ngram_counts


def make_model(surface_pairs, order=1, direction=REGULAR, weights=None, k=1.0,
               extra_words=()):
    words = [(list(extra_words), list(extra_words))] if extra_words else []
    vocab = build_vocabulary(surface_pairs + words)
    pairs = encode_pairs(surface_pairs, vocab)
    if weights is None:
        weights = [0.0] * (order - 1) + [1.0] if order > 1 else [1.0]
    model = ConditionalNGramLM.train(pairs, vocab, order, direction, weights, k)
    return model, vocab


def count_tables(model):
    """Every order's counts, read through the model's public view."""
    return {o: model.count_table(o) for o in range(1, model.order + 1)}


class TestTraining:
    def test_unigram_counts_from_single_pair(self):
        model, vocab = make_model([(["q"], ["a"])])
        a = vocab.id_for("a")
        assert model.count_table(1)[()] == {a: 1, EOS_ID: 1}

    def test_reverse_direction_counts_reversed_order(self):
        surface = [(["q"], ["a", "b"])]
        vocab = build_vocabulary(surface)
        pairs = encode_pairs(surface, vocab)
        model = ConditionalNGramLM.train(pairs, vocab, 2, REVERSE, [0.5, 0.5], 1.0)
        a, b = vocab.id_for("a"), vocab.id_for("b")
        assert model.count_table(2)[(b,)] == {a: 1}
        assert model.count_table(2)[(a,)] == {EOS_ID: 1}

    def test_source_tokens_are_conditioning_only(self):
        model, vocab = make_model([(["q", "q", "q"], ["a"])])
        q = vocab.id_for("q")
        assert q not in model.count_table(1)[()]

    def test_single_token_targets_make_directions_agree(self):
        surface = [(["q"], ["a"]), (["r"], ["b"]), (["q"], ["a"])]
        vocab = build_vocabulary(surface)
        pairs = encode_pairs(surface, vocab)
        fwd = ConditionalNGramLM.train(pairs, vocab, 2, REGULAR, [0.5, 0.5], 1.0)
        bwd = ConditionalNGramLM.train(pairs, vocab, 2, REVERSE, [0.5, 0.5], 1.0)
        assert count_tables(fwd) == count_tables(bwd)

    def test_palindromic_targets_make_directions_agree(self):
        surface = [(["q"], ["a", "b", "a"]), (["r"], ["c", "c"])]
        vocab = build_vocabulary(surface)
        pairs = encode_pairs(surface, vocab)
        fwd = ConditionalNGramLM.train(pairs, vocab, 3, REGULAR, [0.2, 0.3, 0.5], 0.1)
        bwd = ConditionalNGramLM.train(pairs, vocab, 3, REVERSE, [0.2, 0.3, 0.5], 0.1)
        assert count_tables(fwd) == count_tables(bwd)

    def test_empty_corpus_rejected(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.train([], vocab, 1, REGULAR, [1.0], 1.0)


class TestValidation:
    def test_order_below_one(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 0, REGULAR, [], 1.0, {})

    def test_weights_length_must_match_order(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 2, REGULAR, [1.0], 1.0, {1: {}, 2: {}})

    def test_weights_must_sum_to_one(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 1, REGULAR, [0.9], 1.0, {1: {}})

    def test_negative_weight_rejected(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 2, REGULAR, [-0.5, 1.5], 1.0, {1: {}, 2: {}})

    def test_k_must_be_positive(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 1, REGULAR, [1.0], 0.0, {1: {}})

    def test_unknown_direction(self):
        vocab = dummy_vocab(6)
        with pytest.raises(ParameterError):
            ConditionalNGramLM.from_counts(vocab, 1, "sideways", [1.0], 1.0, {1: {}})


class TestNextTokenLogprobs:
    def test_add_k_hand_value(self):
        # One training pair ("q" -> "a"), order 1, k = 1, |V| = 6:
        # P(a) = (1 + 1) / (2 + 6) = 0.25.
        model, vocab = make_model([(["q"], ["a"])], k=1.0)
        assert vocab.size == 6
        probs = np.exp(model.next_token_logprobs((vocab.id_for("q"),), ()))
        assert probs[vocab.id_for("a")] == pytest.approx(0.25, abs=1e-12)
        assert probs[EOS_ID] == pytest.approx(0.25, abs=1e-12)

    def test_untrained_counts_give_uniform(self):
        vocab = dummy_vocab(6)
        model = ConditionalNGramLM.from_counts(vocab, 1, REGULAR, [1.0], 0.5, {1: {}})
        probs = np.exp(model.next_token_logprobs((4,), ()))
        np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-12)

    def test_distribution_normalizes(self):
        model, vocab = make_model(
            [(["q"], ["a", "b", "a"]), (["r"], ["b", "c"])], order=3,
            weights=[0.2, 0.3, 0.5], k=0.1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            source = tuple(rng.integers(4, vocab.size, size=rng.integers(1, 4)))
            prefix = tuple(rng.integers(4, vocab.size, size=rng.integers(0, 4)))
            total = np.exp(model.next_token_logprobs(source, prefix)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_higher_k_moves_toward_uniform(self):
        model_small, vocab = make_model([(["q"], ["a", "a", "a"])], k=0.01)
        uniform = np.full(vocab.size, 1 / vocab.size)
        last = None
        for k in (0.01, 0.1, 1.0, 10.0, 100.0):
            model = ConditionalNGramLM.from_counts(
                vocab, 1, REGULAR, [1.0], k, count_tables(model_small))
            probs = np.exp(model.next_token_logprobs((vocab.id_for("q"),), ()))
            gap = np.abs(probs - uniform).max()
            if last is not None:
                assert gap <= last + 1e-15
            last = gap

    def test_prefix_with_eos_rejected(self):
        model, vocab = make_model([(["q"], ["a"])])
        with pytest.raises(ParameterError):
            model.next_token_logprobs((4,), (EOS_ID,))

    def test_out_of_vocabulary_id_rejected(self):
        model, vocab = make_model([(["q"], ["a"])])
        with pytest.raises(VocabularyMismatchError):
            model.next_token_logprobs((vocab.size,), ())


def trained_pair():
    """Order-4 regular and reverse models trained on a small synthetic corpus."""
    pairs = synthetic_pairs(60, seed=4)
    vocab = build_vocabulary(pairs)
    encoded = encode_pairs(pairs, vocab)
    models = [ConditionalNGramLM.train(encoded, vocab, 4, d, (0.1, 0.2, 0.3, 0.4), 0.01)
              for d in (REGULAR, REVERSE)]
    return models, encoded


def queries(encoded):
    """(source, prefix) contexts from the targets, repeats included."""
    return [(p.source, p.target[:i]) for p in encoded[:20]
            for i in range(len(p.target) + 1)]


class TestRowMemo:
    def test_rows_do_not_depend_on_query_order(self):
        (first, _), encoded = trained_pair()
        (second, _), _ = trained_pair()
        contexts = queries(encoded)
        forward = [first.next_token_logprobs(s, p).tobytes() for s, p in contexts]
        backward = [second.next_token_logprobs(s, p).tobytes()
                    for s, p in reversed(contexts)]
        assert forward == backward[::-1]

    def test_rows_match_uncached_formula(self):
        (model, _), encoded = trained_pair()
        for source, prefix in queries(encoded):
            expected = oracle_ngram_logprobs(
                count_tables(model), model.order, model.weights, model.k,
                model.vocab.size, source, prefix)
            assert model.next_token_logprobs(source, prefix).tobytes() == expected.tobytes()

    def test_returned_row_is_read_only(self):
        (model, _), encoded = trained_pair()
        row = model.next_token_logprobs(encoded[0].source, ())
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_sequence_scores_match_uncached_formula(self):
        (regular, reverse), encoded = trained_pair()

        def oracle_sum(model, source, target):
            total = 0.0
            for i, token in enumerate(target):
                total += float(oracle_ngram_logprobs(
                    count_tables(model), model.order, model.weights, model.k,
                    model.vocab.size, source, target[:i])[token])
            return total

        for pair in encoded[:20]:
            target = pair.target + (EOS_ID,)
            assert regular.sequence_logprob(pair.source, target) == oracle_sum(
                regular, pair.source, target)
            assert reverse_sequence_logprob(reverse, pair.source, pair.target) == (
                oracle_sum(reverse, pair.source, pair.target[::-1] + (EOS_ID,)))

    def test_full_memo_is_cleared_without_changing_rows(self, monkeypatch):
        (model, _), encoded = trained_pair()
        monkeypatch.setattr(lm, "ROW_MEMO_FLOATS", 3 * model.vocab.size)
        contexts = queries(encoded)
        rows = [model.next_token_logprobs(s, p).tobytes() for s, p in contexts]
        assert len(model._rows) <= 3
        (fresh, _), _ = trained_pair()
        assert rows == [fresh.next_token_logprobs(s, p).tobytes() for s, p in contexts]


@st.composite
def corpora(draw):
    """A small encoded corpus with an order in 1..6, a direction and k.

    Sources of one token leave order 5's and 6's first contexts shorter than
    o - 1 tokens."""
    v = draw(st.integers(5, 12))
    side = lambda most: st.lists(st.integers(3, v - 1), min_size=1, max_size=most).map(tuple)
    pairs = draw(st.lists(st.builds(SentencePair, side(3), side(6)), min_size=1, max_size=10))
    order = draw(st.integers(1, 6))
    return (v, pairs, order, draw(st.sampled_from([REGULAR, REVERSE])),
            draw(st.sampled_from([0.001, 0.1, 1.0])))


def rising_weights(order):
    return tuple(i / (order * (order + 1) / 2) for i in range(1, order + 1))


def check_against_oracles(v, pairs, order, direction, k):
    """Counts, rows and model files equal the counting oracle's, bit for bit."""
    vocab = dummy_vocab(v)
    weights = rising_weights(order)
    model = ConditionalNGramLM.train(pairs, vocab, order, direction, weights, k)
    expected = reference_ngram_counts(pairs, order, direction)
    assert count_tables(model) == expected
    for pair in pairs:
        target = pair.target[::-1] if direction == REVERSE else pair.target
        for prefix in [target[:i] for i in range(len(target) + 1)] + [(3, v - 1)]:
            row = model.next_token_logprobs(pair.source, prefix)
            assert row.tobytes() == oracle_ngram_logprobs(
                expected, order, weights, k, v, pair.source, prefix).tobytes()
    with tempfile.TemporaryDirectory() as scratch:
        saved, resaved = Path(scratch) / "lm.json", Path(scratch) / "again.json"
        model.save(saved)
        assert saved.read_bytes() == reference_model_file(
            expected, order, direction, v, weights, k).encode("utf-8")
        ConditionalNGramLM.load(saved, vocab).save(resaved)
        assert resaved.read_bytes() == saved.read_bytes()


class TestCountArrays:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(corpora())
    def test_counts_rows_and_files_match_the_counting_oracle(self, case):
        check_against_oracles(*case)

    @pytest.mark.parametrize("direction", [REGULAR, REVERSE])
    def test_vocabulary_past_the_int64_key_range(self, direction):
        v, order = 70_000, 5
        assert (v + 1) ** order > np.iinfo(np.int64).max
        rng = np.random.default_rng(3)
        words = [int(w) for w in rng.choice(np.arange(60_000, v), size=12, replace=False)]
        pick = lambda most: tuple(int(w) for w in rng.choice(words, size=rng.integers(1, most + 1)))
        pairs = [SentencePair(pick(2), pick(5)) for _ in range(40)]
        check_against_oracles(v, pairs, order, direction, 0.01)

    def test_ids_outside_the_vocabulary_rejected(self):
        with pytest.raises(VocabularyMismatchError):
            ConditionalNGramLM.train([SentencePair((4,), (6,))], dummy_vocab(6), 1, REGULAR, [1.0], 1.0)


class TestSequenceLogprob:
    def test_single_eos_target_is_one_term(self):
        model, vocab = make_model([(["q"], ["a"])], k=1.0)
        src = (vocab.id_for("q"),)
        expected = float(model.next_token_logprobs(src, ())[EOS_ID])
        assert model.sequence_logprob(src, (EOS_ID,)) == expected

    def test_hand_value_two_steps(self):
        # P(a) = P(eos) = 0.25 under the unigram model above, so the
        # sequence ["a", EOS] scores 2 * log(0.25) = -2.7726...
        model, vocab = make_model([(["q"], ["a"])], k=1.0)
        src = (vocab.id_for("q"),)
        got = model.sequence_logprob(src, (vocab.id_for("a"), EOS_ID))
        assert got == pytest.approx(2 * math.log(0.25), abs=1e-12)
        assert got == pytest.approx(-2.7726, abs=1e-4)

    def test_matches_stepwise_accumulation_exactly(self):
        model, vocab = make_model(
            [(["q"], ["a", "b"]), (["r"], ["b", "c", "a"])], order=2,
            weights=[0.4, 0.6], k=0.2)
        src = (vocab.id_for("r"),)
        target = (vocab.id_for("a"), vocab.id_for("c"), EOS_ID)
        total = 0.0
        for i in range(len(target)):
            total += float(model.next_token_logprobs(src, target[:i])[target[i]])
        assert model.sequence_logprob(src, target) == total

    def test_eos_must_terminate_target(self):
        model, vocab = make_model([(["q"], ["a"])])
        a = vocab.id_for("a")
        for bad in ((a,), (EOS_ID, a), (a, EOS_ID, EOS_ID)):
            with pytest.raises(ParameterError):
                model.sequence_logprob((vocab.id_for("q"),), bad)


class TestReverseSequenceLogprob:
    def test_scores_reversed_tokens_plus_eos(self):
        model, vocab = make_model(
            [(["q"], ["a", "b"])], order=2, direction=REVERSE,
            weights=[0.5, 0.5], k=0.5)
        src = (vocab.id_for("q"),)
        a, b = vocab.id_for("a"), vocab.id_for("b")
        got = reverse_sequence_logprob(model, src, (a, b))
        assert got == model.sequence_logprob(src, (b, a, EOS_ID))

    def test_single_token_is_direction_neutral(self):
        model, vocab = make_model([(["q"], ["a"])], direction=REVERSE)
        src = (vocab.id_for("q"),)
        a = vocab.id_for("a")
        got = reverse_sequence_logprob(model, src, (a,))
        assert got == model.sequence_logprob(src, (a, EOS_ID))

    def test_regular_model_rejected(self):
        model, vocab = make_model([(["q"], ["a"])], direction=REGULAR)
        with pytest.raises(DirectionError):
            reverse_sequence_logprob(model, (vocab.id_for("q"),), (4,))

    def test_target_with_eos_rejected(self):
        model, vocab = make_model([(["q"], ["a"])], direction=REVERSE)
        with pytest.raises(ParameterError):
            reverse_sequence_logprob(model, (vocab.id_for("q"),), (4, EOS_ID))


class TestSerialization:
    def test_round_trip_preserves_scores(self, tmp_path):
        model, vocab = make_model(
            [(["q"], ["a", "b", "a"]), (["r"], ["c"])], order=3,
            weights=[0.2, 0.3, 0.5], k=0.1)
        path = tmp_path / "lm.json"
        model.save(path)
        loaded = ConditionalNGramLM.load(path, vocab)
        src = (vocab.id_for("q"),)
        np.testing.assert_array_equal(
            loaded.next_token_logprobs(src, ()),
            model.next_token_logprobs(src, ()))
        assert count_tables(loaded) == count_tables(model)
        assert loaded.weights == model.weights
        assert loaded.direction == model.direction

    def test_save_is_byte_deterministic(self, tmp_path):
        model, _ = make_model([(["q"], ["a", "b"])], order=2,
                              weights=[0.5, 0.5], k=0.5)
        model.save(tmp_path / "one.json")
        model.save(tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (
            tmp_path / "two.json").read_bytes()

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        model, vocab = make_model([(["q"], ["a"])])
        path = tmp_path / "lm.json"
        model.save(path)
        with pytest.raises(VocabularyMismatchError):
            ConditionalNGramLM.load(path, dummy_vocab(vocab.size + 1))

    def test_unsupported_format_version_rejected(self, tmp_path):
        model, vocab = make_model([(["q"], ["a"])])
        path = tmp_path / "lm.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError):
            ConditionalNGramLM.load(path, vocab)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FormatError):
            ConditionalNGramLM.load(path, dummy_vocab(6))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(FormatError):
            ConditionalNGramLM.load(path, dummy_vocab(6))


def _drop(key):
    return lambda payload: payload.pop(key)


def _set(key, value):
    return lambda payload: payload.__setitem__(key, value)


def _first_bucket(payload, order):
    """The [token, count] list of the first context of an order's table."""
    return next(table for o, table in payload["counts"] if o == order)[0][1]


SCHEMA_FAULTS = [
    ("missing-vocab_size", _drop("vocab_size"), "'vocab_size'"),
    ("missing-order", _drop("order"), "'order'"),
    ("missing-direction", _drop("direction"), "'direction'"),
    ("missing-weights", _drop("weights"), "'weights'"),
    ("missing-k", _drop("k"), "'k'"),
    ("missing-counts", _drop("counts"), "'counts'"),
    ("string-order", _set("order", "2"), "'order'"),
    ("float-vocab_size", _set("vocab_size", 6.0), "'vocab_size'"),
    ("string-k", _set("k", "0.5"), "'k'"),
    ("infinite-k", _set("k", math.inf), "'k'"),
    ("nan-weight", _set("weights", [math.nan, 0.5]), "'weights'"),
    ("dict-counts", _set("counts", {}), "'counts'"),
    ("weights-sum", _set("weights", [0.5, 0.6]), "weights must sum to 1"),
    ("negative-count",
     lambda p: _first_bucket(p, 1)[0].__setitem__(1, -5), "'counts'"),
    ("fractional-count",
     lambda p: _first_bucket(p, 1)[0].__setitem__(1, 1.5), "'counts'"),
    ("long-context",
     lambda p: p["counts"][1][1][0].__setitem__(0, [4, 4]), "'counts'"),
    ("token-id-V",
     lambda p: _first_bucket(p, 1)[0].__setitem__(0, p["vocab_size"]), "'counts'"),
    ("context-id-V",
     lambda p: p["counts"][1][1][0].__setitem__(0, [p["vocab_size"]]), "'counts'"),
    ("missing-order-table", lambda p: p["counts"].pop(), "'counts'"),
    ("missing-suffix-context", lambda p: p["counts"][0][1].clear(), "'counts'"),
    ("count-sum-2**53",
     lambda p: _first_bucket(p, 1)[0].__setitem__(1, 2 ** 53), "'counts'"),
    ("duplicate-context",
     lambda p: p["counts"][0][1].append([[], [[5, 7]]]), "'counts'"),
    ("duplicate-token",
     lambda p: _first_bucket(p, 1).append([_first_bucket(p, 1)[0][0], 1]), "'counts'"),
]


@pytest.mark.parametrize("corrupt, named", [f[1:] for f in SCHEMA_FAULTS],
                         ids=[f[0] for f in SCHEMA_FAULTS])
def test_schema_fault_names_file_and_key(tmp_path, corrupt, named):
    model, vocab = make_model([(["q"], ["a", "b", "a"]), (["r"], ["c"])], order=2,
                              weights=[0.5, 0.5], k=0.5)
    path = tmp_path / "lm.json"
    model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    corrupt(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        ConditionalNGramLM.load(path, vocab)
    assert str(path) in str(excinfo.value)
    assert named in str(excinfo.value)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_chain_rule_consistency(seed):
    """Whole-sequence scores equal the sum of stepwise scores, bit for bit."""
    rng = np.random.default_rng(seed)
    model, vocab = make_model(
        [(["q"], ["a", "b", "a"]), (["r"], ["b", "c"]), (["q"], ["c", "a"])],
        order=2, weights=[0.3, 0.7], k=0.3)
    source = tuple(rng.integers(4, vocab.size, size=int(rng.integers(1, 4))))
    body = tuple(rng.integers(4, vocab.size, size=int(rng.integers(0, 5))))
    target = body + (EOS_ID,)
    total = 0.0
    for i in range(len(target)):
        total += float(model.next_token_logprobs(source, target[:i])[target[i]])
    assert model.sequence_logprob(source, target) == total
