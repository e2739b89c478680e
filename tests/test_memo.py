"""The command memo: decodes and scorings that share one give the outputs
of memo-free ones."""

import ast
import dataclasses
import itertools
import math
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidibeam
from bidibeam import bidi, evaluation, similarity
from bidibeam.beam import Hypothesis, Memo, SearchParams, _search, vbs_decode
from bidibeam.bidi import BidiSParams, bidia_decode, bidis_decode, select_lambda
from bidibeam.corpus import SentencePair
from bidibeam.errors import ParameterError
from bidibeam.evaluation import best_hypothesis, corpus_bleu4
from bidibeam.lm import REGULAR, REVERSE, reverse_sequence_logprob
from bidibeam.similarity import (
    BLEU_T,
    WMD_T,
    EmbeddingTable,
    SimilaritySpec,
    dissimilarity,
    dissimilarity_lower_bound,
    tie_break,
)

from conftest import RandomTableLM, TieLM, covering_wmd_measures, dummy_vocab, made_by, wmd_measures
from oracles import (
    oracle_best_hypothesis,
    oracle_corpus_bleu4,
    oracle_lambda_curve,
    oracle_select_lambda,
)

MODELS = {"random": RandomTableLM, "ties": TieLM}
SOURCES = ((4,), (5,), (4, 5))


def assert_same_output(memo, fresh):
    """Every field equal; floats compare by ==, so equal means bit-identical."""
    assert memo.selected == fresh.selected
    assert memo.beam == fresh.beam
    assert memo.scores == fresh.scores
    assert memo.selected_index == fresh.selected_index
    assert memo.report == fresh.report
    assert memo.reverse_beam == fresh.reverse_beam
    assert memo.agreement == fresh.agreement


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_memo_matches_memo_free_decodes(data):
    """vbs, bidis and bidia at B and B/2 in any order over repeated sources,
    with one BLEU and two WMD measures in one memo, where a WMD measure may
    be dropped and rebuilt mid-sequence.

    The memo ends up holding exactly the distinct searches, re-scorings and
    agreement decodes the calls made, and the WMD measures bidia used.
    Each (measure, core pair) whose raw WMD a memo call needed was solved
    exactly once.  A bidia call repeating an earlier one's source, params
    and measure computes no dissimilarity, bound or solve, and every other
    bidia call does; a memo whose keys did not hold their measure could
    see a rebuilt measure reuse the dropped one's address and hit its
    entries.
    """
    kind = data.draw(st.sampled_from(sorted(MODELS)))
    seed = data.draw(st.integers(0, 10 ** 6))
    vocab = dummy_vocab(data.draw(st.integers(5, 7)))
    regular = MODELS[kind](vocab, seed, direction=REGULAR)
    reverse = MODELS[kind](vocab, seed + 1, direction=REVERSE)
    half = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 5))
    alpha = data.draw(st.sampled_from([0.0, 0.6, 1.0]))
    templates = [data.draw(wmd_measures(vocab)),
                 data.draw(covering_wmd_measures(vocab)), data.draw(covering_wmd_measures(vocab))]
    # Slot 0 is BLEU; slots 1 and 2 hold copies made here, so this test holds
    # their only reference and dropping one frees it unless the memo holds it.
    # Labels are weak, so they keep no measure alive.
    slots = [SimilaritySpec(BLEU_T, max_length=t),
             dataclasses.replace(templates[0]), dataclasses.replace(templates[1])]
    labels = weakref.WeakKeyDictionary({measure: n for n, measure in enumerate(slots)})
    fresh_labels = itertools.count(len(slots))
    call = st.tuples(st.sampled_from(("vbs", "bidis", "bidia", "bidia", "rebuild")),
                     st.sampled_from((half, 2 * half)), st.sampled_from(SOURCES),
                     st.sampled_from(range(len(slots))), st.sampled_from([0.0, 0.5, 1.0]))
    # Every sequence rebuilds a WMD measure between two bidia calls on one source.
    rebuilt = (data.draw(st.sampled_from(SOURCES)), data.draw(st.sampled_from((1, 2))), 0.0)
    calls = (data.draw(st.lists(call, max_size=6))
             + [(algorithm, half, *rebuilt) for algorithm in ("bidia", "rebuild", "bidia")]
             + data.draw(st.lists(call, max_size=6)))

    # Which (measure label, core pair) each memo call solved or needed
    # solved, and the labels of WMD measures a memo call looked a pair up in.
    solved, needed, pending, wmd_labels = Counter(), set(), [], set()
    scanned = [0]  # dissimilarity, bound and solve calls made with the memo

    def counted_bound(y_n, y_r, spec, memo=None):
        scanned[0] += memo is not None
        return dissimilarity_lower_bound(y_n, y_r, spec, memo)

    def counted_dissimilarity(y_n, y_r, spec, memo=None):
        scanned[0] += memo is not None
        pending.append(((labels[spec], tuple(y_n), tuple(y_r)), memo is not None))
        try:
            d = dissimilarity(y_n, y_r, spec, memo)
        finally:
            key, memoised = pending.pop()
        if memoised and spec.kind == WMD_T and y_n and y_r:
            wmd_labels.add(key[0])
            if d < math.inf:
                needed.add(key)
        return d

    def counted_solve(bags):
        key, memoised = pending[-1]
        if memoised:
            scanned[0] += 1
            solved[key] += 1
        return path_transport(bags)

    path_transport = similarity._path_transport

    memo = Memo()
    expected_keys, expected_rescorings, agreements = set(), set(), set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidi, "dissimilarity", counted_dissimilarity)
        patch.setattr(bidi, "dissimilarity_lower_bound", counted_bound)
        patch.setattr(similarity, "_path_transport", counted_solve)
        for algorithm, b, source, slot, weight in calls:
            if algorithm == "rebuild":
                slot = slot or 1  # a WMD slot
                slots[slot] = None
                slots[slot] = dataclasses.replace(templates[2])
                labels[slots[slot]] = next(fresh_labels)
                continue
            if algorithm == "bidia":
                b = 2 * half
            params = SearchParams(b, t, alpha)
            if algorithm == "vbs":
                run = lambda memo: vbs_decode(regular, source, params, memo)
                expected_keys.add((regular, source, params))
            elif algorithm == "bidis":
                run = lambda memo: bidis_decode(regular, reverse, source, BidiSParams(params, weight), memo)
                expected_keys.add((regular, source, params))
                expected_rescorings.add((regular, reverse, source, params))
            else:
                measure = slots[slot]
                run = lambda memo: bidia_decode(regular, reverse, source, params, measure, memo)
                halves = SearchParams(half, t, alpha)
                expected_keys.update({(regular, source, halves), (reverse, source, halves)})
            before = scanned[0]
            assert_same_output(run(memo), run(None))
            if algorithm == "bidia":
                agreement = (source, labels[measure])
                assert (scanned[0] == before) == (agreement in agreements)
                agreements.add(agreement)
            run = measure = None  # a dropped measure is then referenced by the memo alone
    assert made_by(memo, _search) == expected_keys
    assert made_by(memo, bidi._rescored) == expected_rescorings
    assert {(args[2], labels[args[-1]]) for args in made_by(memo, bidi._agree)} == agreements
    assert {labels[args[-1]] for args in made_by(memo, similarity._problem)} == wmd_labels
    assert set(solved) == needed
    assert set(solved.values()) <= {1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_stored_value_is_made_once(data):
    """``dissimilarity``, its lower bound and ``tie_break``, with WMD and
    BLEU-T measures and pairs that include degenerate ones (an empty side,
    or nothing left after filtering), and ``corpus_bleu4`` and
    ``best_hypothesis`` over the same pairs, each called twice in shuffled
    order over one memo: every memo maker runs once per key, so each
    (measure, pair)'s transport problem is built once, a degenerate pair's
    None included, each pair with a problem is solved once, each BLEU-T
    pair is scored once (for both its d and its tie-break), n-grams are
    counted once per distinct reference and once per distinct BLEU pair,
    and every value equals its memo-free value and its oracle's.  A
    get-or-make that took a stored None or +inf for a miss would make it
    again."""
    vocab = dummy_vocab(data.draw(st.integers(5, 7)))
    measures = [data.draw(wmd_measures(vocab)), data.draw(covering_wmd_measures(vocab)),
                SimilaritySpec(BLEU_T, max_length=data.draw(st.integers(1, 6)))]
    core = st.lists(st.integers(0, vocab.size - 1), max_size=3).map(tuple)
    pairs = list(dict.fromkeys(data.draw(st.lists(st.tuples(core, core), min_size=1, max_size=8))))
    expected = {(score, y_n, y_r, measure): score(y_n, y_r, measure)
                for score in (dissimilarity, dissimilarity_lower_bound, tie_break)
                for y_n, y_r in pairs for measure in measures}
    corpora = data.draw(st.lists(st.lists(st.sampled_from(pairs), min_size=1, max_size=4).map(tuple),
                                 min_size=1, max_size=3))
    for corpus in corpora:
        expected[corpus_bleu4, corpus] = corpus_bleu4(corpus)
        assert expected[corpus_bleu4, corpus] == oracle_corpus_bleu4(corpus)
    # One beam of every distinct regular core against each non-empty reverse core.
    cores = tuple(dict.fromkeys(y_n for y_n, _ in pairs))
    beam = tuple(Hypothesis(y_n, -1.0, False) for y_n in cores)
    references = {y_r for _, y_r in pairs if y_r}
    for reference in references:
        expected[best_hypothesis, beam, reference] = best_hypothesis(beam, reference)
        assert expected[best_hypothesis, beam, reference][1] == oracle_best_hypothesis(cores, reference)
    made, built, scored, solves, counted_ngrams = Counter(), Counter(), Counter(), [0], [0]

    def counted_make(make):
        def counted(*args):
            made[(make, *args[:-1])] += 1
            return make(*args)
        return counted

    def counted_problem(x, y, table, stopwords):
        built[(table, tuple(x), tuple(y))] += 1
        return transport_problem(x, y, table, stopwords)

    def counted_bleu_t(hypothesis, reference, spec):
        scored[(tuple(hypothesis), tuple(reference), spec)] += 1
        return bleu_t(hypothesis, reference, spec)

    def counted_solve(bags):
        solves[0] += 1
        return path_transport(bags)

    def counted_ngram_table(tokens):
        counted_ngrams[0] += 1
        return ngram_table(tokens)

    transport_problem, bleu_t = similarity._transport_problem, similarity.bleu_t
    path_transport = similarity._path_transport
    ngram_table = evaluation.ngram_table
    memo = Memo()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_problem", "_raw_wmd", "_raw_bound", "_bleu_similarity"):
            patch.setattr(similarity, name, counted_make(getattr(similarity, name)))
        patch.setattr(similarity, "_transport_problem", counted_problem)
        patch.setattr(similarity, "bleu_t", counted_bleu_t)
        patch.setattr(similarity, "_path_transport", counted_solve)
        for name in ("_ngrams", "_clipped", "_sentence_bleu4"):
            patch.setattr(evaluation, name, counted_make(getattr(evaluation, name)))
        patch.setattr(evaluation, "ngram_table", counted_ngram_table)
        for _ in range(2):
            for call in data.draw(st.permutations(list(expected))):
                score, *args = call
                assert score(*args, memo) == expected[call]
    wmd, bleu = measures[:2], measures[2]
    compared = [(y_n, y_r) for y_n, y_r in pairs if y_n and y_r]
    assert set(made.values()) <= {1}
    assert set(built.values()) <= {1}
    assert set(built) == {(measure.embeddings, tuple(vocab.decode(y_n)), tuple(vocab.decode(y_r)))
                          for measure in wmd for y_n, y_r in compared}
    assert solves[0] == sum(expected[dissimilarity, y_n, y_r, measure] < math.inf
                            for measure in wmd for y_n, y_r in compared)
    assert set(scored.values()) <= {1}
    assert set(scored) == {(y_n, y_r, bleu) for y_n, y_r in compared}
    bleu_pairs = {pair for corpus in corpora for pair in corpus}
    ranked = {(y_n, reference) for y_n in cores for reference in references}
    assert counted_ngrams[0] == (len({reference for _, reference in bleu_pairs | ranked})
                                 + len(bleu_pairs | ranked))
    assert made_by(made, evaluation._sentence_bleu4) == ranked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 5), st.data())
def test_select_lambda_matches_per_weight_bleu(seed, b, t, data):
    """select_lambda picks the weight, and records the curve, that scoring
    every weight's selections from scratch gives, with or without a memo.
    A memo ends up holding the validation searches, and n-gram tables of
    exactly the validation references."""
    vocab = dummy_vocab(7)
    regular = RandomTableLM(vocab, seed, direction=REGULAR)
    reverse = RandomTableLM(vocab, seed + 1, direction=REVERSE)
    search = SearchParams(b, t)
    validation = []
    for source in data.draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=6)):
        # A target copied from some beam member (marker ids dropped), so
        # BLEU differs between weights.
        beam = vbs_decode(regular, source, search).beam
        core = beam[data.draw(st.integers(0, len(beam) - 1))].core()
        target = tuple(token for token in core if token >= 4) or (4,)
        validation.append(SentencePair(source, target))
    grid = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]),
                              min_size=1, max_size=6, unique=True))
    expected = (oracle_select_lambda(regular, reverse, validation, search, grid),
                oracle_lambda_curve(regular, reverse, validation, search, grid))
    memo = Memo()
    assert select_lambda(regular, reverse, validation, search, grid) == expected
    assert select_lambda(regular, reverse, validation, search, grid, memo) == expected
    assert made_by(memo, _search) == {(regular, pair.source, search) for pair in validation}
    assert made_by(memo, evaluation._ngrams) == {(pair.target,) for pair in validation}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 5), st.data())
def test_select_lambda_then_bidis_rescore_each_member_once(seed, b, t, data):
    """λ selection, then bidis decodes at the same search over one memo, on
    sources that repeat within and across the validation and test lists:
    the reverse model scores each distinct (source, beam member) once, and
    every result equals its memo-free one."""
    vocab = dummy_vocab(7)
    regular = RandomTableLM(vocab, seed, direction=REGULAR)
    reverse = RandomTableLM(vocab, seed + 1, direction=REVERSE)
    search = SearchParams(b, t)
    sources = st.lists(st.sampled_from(SOURCES), min_size=1, max_size=5)
    validation = [SentencePair(source, (4, 5)) for source in data.draw(sources)]
    test = data.draw(sources)
    grid = [0.0, 0.5, 2.0]
    scored = Counter()

    def counted(model, source, core):
        scored[(model, tuple(source), tuple(core))] += 1
        return reverse_sequence_logprob(model, source, core)

    memo = Memo()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidi, "reverse_sequence_logprob", counted)
        lam, curve = select_lambda(regular, reverse, validation, search, grid, memo)
        params = BidiSParams(search, lam)
        outputs = [bidis_decode(regular, reverse, source, params, memo) for source in test]
    assert (lam, curve) == select_lambda(regular, reverse, validation, search, grid)
    for source, output in zip(test, outputs):
        assert_same_output(output, bidis_decode(regular, reverse, source, params))
    distinct = {pair.source for pair in validation} | set(test)
    assert set(scored.values()) == {1}
    assert set(scored) == {(reverse, source, h.core())
                           for source in distinct for h in vbs_decode(regular, source, search).beam}
    assert made_by(memo, bidi._rescored) == {(regular, reverse, source, search)
                                              for source in distinct}


class UnhashableLM(RandomTableLM):
    """A model that cannot key a search memo, as a ``@dataclass`` model is."""

    __hash__ = None


def test_memo_free_calls_decode_an_unhashable_model():
    """Without a memo nothing is hashed, so any model decodes: vbs, bidis,
    bidia under both measure kinds, and the λ selection."""
    vocab = dummy_vocab(6)
    search = SearchParams(3, 4)
    table = EmbeddingTable({vocab.surface_for(i): np.array([float(i), 1.0])
                            for i in range(vocab.size)})
    measures = (SimilaritySpec(BLEU_T, max_length=4),
                SimilaritySpec(WMD_T, max_length=4, embeddings=table, vocab=vocab))
    rescoring, agreement = BidiSParams(search, 0.5), SearchParams(4, 4)
    validation = [SentencePair(source, (4, 5)) for source in SOURCES]
    models = [(cls(vocab, 1, direction=REGULAR), cls(vocab, 2, direction=REVERSE))
              for cls in (UnhashableLM, RandomTableLM)]
    (regular, reverse), (hashable_regular, hashable_reverse) = models
    with pytest.raises(TypeError):
        hash(regular)
    for source in SOURCES:
        assert_same_output(vbs_decode(regular, source, search),
                           vbs_decode(hashable_regular, source, search))
        assert_same_output(bidis_decode(regular, reverse, source, rescoring),
                           bidis_decode(hashable_regular, hashable_reverse, source, rescoring))
        for measure in measures:
            assert_same_output(
                bidia_decode(regular, reverse, source, agreement, measure),
                bidia_decode(hashable_regular, hashable_reverse, source, agreement, measure))
    assert (select_lambda(regular, reverse, validation, search, [0.0, 1.0])
            == select_lambda(hashable_regular, hashable_reverse, validation, search, [0.0, 1.0]))


def test_select_lambda_empty_validation_takes_smallest_weight():
    vocab = dummy_vocab(6)
    regular = RandomTableLM(vocab, 1, direction=REGULAR)
    reverse = RandomTableLM(vocab, 2, direction=REVERSE)
    assert select_lambda(regular, reverse, [], SearchParams(2, 3), [2.0, 0.5, 1.0]) == (0.5, [])


@pytest.mark.parametrize("grid", [[], [-1.0], [0.5, -0.25], [math.nan], [0.5, math.inf]])
@pytest.mark.parametrize("validation", [[], [SentencePair((4,), (5,))]])
def test_select_lambda_rejects_a_bad_grid(grid, validation):
    """An empty grid or a negative, NaN or infinite weight is a
    ParameterError, whether or not there is validation data to score."""
    vocab = dummy_vocab(6)
    regular = RandomTableLM(vocab, 1, direction=REGULAR)
    reverse = RandomTableLM(vocab, 2, direction=REVERSE)
    with pytest.raises(ParameterError):
        select_lambda(regular, reverse, validation, SearchParams(2, 3), grid)


def memo_dispatches():
    """Where each ``bidibeam`` module indexes a name ``memo`` or tests
    ``memo is None``: two sets of (module, innermost function) pairs."""
    indexed, tested = set(), set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "memo":
            indexed.add((module, function))
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "memo"
                and isinstance(node.ops[0], ast.Is) and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            tested.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(bidibeam.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return indexed, tested


def test_made_is_the_one_memo_dispatch():
    """Decoders and similarities reach their makers through ``beam.made``
    alone: only ``made`` and the BLEU scorers of ``evaluation``, whose memo
    is never None, index a memo, and ``memo is None`` is tested only by
    ``made`` and by the three functions that default to a fresh ``Memo``."""
    indexed, tested = memo_dispatches()
    assert {site for site in indexed if site[0] != "evaluation"} == {("beam", "made")}
    assert tested <= {("beam", "made"), ("bidi", "select_lambda"),
                      ("evaluation", "corpus_bleu4"), ("evaluation", "best_hypothesis")}
    assert ("beam", "made") in tested
