"""The command memo: decodes and scorings that share one give the outputs
of memo-free ones."""

import dataclasses
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidibeam import bidi, similarity
from bidibeam.beam import Memo, SearchParams, vbs_decode
from bidibeam.bidi import BidiSParams, bidia_decode, bidis_decode, select_lambda
from bidibeam.corpus import SentencePair
from bidibeam.errors import ParameterError
from bidibeam.lm import REGULAR, REVERSE, reverse_sequence_logprob
from bidibeam.similarity import (
    BLEU_T,
    WMD_T,
    SimilaritySpec,
    dissimilarity,
    dissimilarity_lower_bound,
    solve_transport,
)

from conftest import RandomTableLM, TieLM, covering_wmd_measures, dummy_vocab, wmd_measures
from oracles import oracle_lambda_curve, oracle_select_lambda

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
    bidia call does; a memo keyed by a reused ``id`` would let the rebuilt
    measure hit the dropped one's entries.
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
    slots = [SimilaritySpec(BLEU_T, max_length=t),
             dataclasses.replace(templates[0]), dataclasses.replace(templates[1])]
    labels = {id(measure): n for n, measure in enumerate(slots)}
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
        pending.append(((labels[id(spec)], tuple(y_n), tuple(y_r)), memo is not None))
        try:
            d = dissimilarity(y_n, y_r, spec, memo)
        finally:
            key, memoised = pending.pop()
        if memoised and spec.kind == WMD_T and y_n and y_r:
            wmd_labels.add(key[0])
            if d < math.inf:
                needed.add(key)
        return d

    def counted_solve(problem):
        key, memoised = pending[-1]
        if memoised:
            scanned[0] += 1
            solved[key] += 1
        return solve_transport(problem)

    memo = Memo()
    expected_keys, expected_rescorings, agreements = set(), set(), set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidi, "dissimilarity", counted_dissimilarity)
        patch.setattr(bidi, "dissimilarity_lower_bound", counted_bound)
        patch.setattr(similarity, "solve_transport", counted_solve)
        for algorithm, b, source, slot, weight in calls:
            if algorithm == "rebuild":
                slot = slot or 1  # a WMD slot
                del labels[id(slots[slot])]
                slots[slot] = None
                slots[slot] = dataclasses.replace(templates[2])
                labels[id(slots[slot])] = next(fresh_labels)
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
                agreement = (source, labels[id(measure)])
                assert (scanned[0] == before) == (agreement in agreements)
                agreements.add(agreement)
            run = measure = None  # a dropped measure is then referenced by the memo alone
    assert set(memo.searches) == expected_keys
    assert set(memo.rescorings) == expected_rescorings
    assert len(memo.agreements) == len(agreements)
    assert all(key[-1] == id(held[0]) for key, held in memo.agreements.items())
    assert len(memo.transport) == len(wmd_labels)
    assert all(key == id(held[0]) for key, held in memo.transport.items())
    assert set(solved) == needed
    assert set(solved.values()) <= {1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 5), st.data())
def test_select_lambda_matches_per_weight_bleu(seed, b, t, data):
    """select_lambda picks the weight, and records the curve, that scoring
    every weight's selections from scratch gives, with or without a memo.
    A memo ends up holding the validation searches, and BLEU entries for
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
    assert set(memo.searches) == {(regular, pair.source, search) for pair in validation}
    assert set(memo.bleu) == {pair.target for pair in validation}


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
    assert set(memo.rescorings) == {(regular, reverse, source, search) for source in distinct}


class UnhashableLM(RandomTableLM):
    """A model that cannot key a search memo, as a ``@dataclass`` model is."""

    __hash__ = None


def test_memo_free_calls_decode_an_unhashable_model():
    """Without a memo nothing is hashed, so any model decodes."""
    vocab = dummy_vocab(6)
    search = SearchParams(3, 4)
    validation = [SentencePair(source, (4, 5)) for source in SOURCES]
    models = [(cls(vocab, 1, direction=REGULAR), cls(vocab, 2, direction=REVERSE))
              for cls in (UnhashableLM, RandomTableLM)]
    (regular, reverse), (hashable_regular, hashable_reverse) = models
    with pytest.raises(TypeError):
        hash(regular)
    for source in SOURCES:
        assert_same_output(vbs_decode(regular, source, search),
                           vbs_decode(hashable_regular, source, search))
    assert (select_lambda(regular, reverse, validation, search, [0.0, 1.0])
            == select_lambda(hashable_regular, hashable_reverse, validation, search, [0.0, 1.0]))


def test_select_lambda_empty_validation_takes_smallest_weight():
    vocab = dummy_vocab(6)
    regular = RandomTableLM(vocab, 1, direction=REGULAR)
    reverse = RandomTableLM(vocab, 2, direction=REVERSE)
    assert select_lambda(regular, reverse, [], SearchParams(2, 3), [2.0, 0.5, 1.0]) == (0.5, [])


@pytest.mark.parametrize("grid", [[], [-1.0], [0.5, -0.25]])
@pytest.mark.parametrize("validation", [[], [SentencePair((4,), (5,))]])
def test_select_lambda_rejects_a_bad_grid(grid, validation):
    """An empty grid or a negative weight is a ParameterError, whether or
    not there is validation data to score."""
    vocab = dummy_vocab(6)
    regular = RandomTableLM(vocab, 1, direction=REGULAR)
    reverse = RandomTableLM(vocab, 2, direction=REVERSE)
    with pytest.raises(ParameterError):
        select_lambda(regular, reverse, validation, SearchParams(2, 3), grid)
