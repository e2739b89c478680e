"""Shared fixtures: dummy vocabularies, scripted and randomized models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import logsumexp

from bidibeam import similarity
from bidibeam.corpus import RESERVED, Vocabulary
from bidibeam.lm import REGULAR, LanguageModel
from bidibeam.similarity import (
    BP_DIVIDE, BP_MULTIPLY, WMD_T, EmbeddingTable, SimilaritySpec, TransportProblem,
)

from oracles import highs_transport


def dummy_vocab(size: int) -> Vocabulary:
    """A vocabulary of the given total size; ids 4+ get surfaces w4, w5, ..."""
    if size < 4:
        raise ValueError("vocabularies start with the four reserved markers")
    return Vocabulary(list(RESERVED) + [f"w{i}" for i in range(4, size)])


def highs_wmd(x, y, table: EmbeddingTable) -> float:
    """HiGHS's value on the library's WMD problem of two word lists: the
    bags' normalized counts and the library's own cost matrix."""
    bags = similarity._transport_problem(x, y, table, frozenset())
    supply, demand = (np.divide(c, sum(c)) for c in (bags.supply_counts, bags.demand_counts))
    return highs_transport(TransportProblem(supply, demand, bags.cost))[1]


def made_by(memo, make):
    """The argument tuples of the memo's entries made by ``make``."""
    return {key[1:] for key in memo if key[0] is make}


class RandomTableLM(LanguageModel):
    """Deterministic pseudo-random next-token tables, pure in (source, prefix).

    The per-prefix distribution is derived from the seed and the query
    alone, so any two consumers (the decoder and an oracle) observe
    identical floats regardless of query order.
    """

    def __init__(self, vocab: Vocabulary, seed: int, direction: str = REGULAR,
                 spread: float = 2.0):
        self.vocab = vocab
        self.direction = direction
        self._seed = seed
        self._spread = spread
        self._cache: dict[tuple, np.ndarray] = {}
        self.calls = 0

    def next_token_logprobs(self, source, prefix) -> np.ndarray:
        key = (tuple(source), tuple(prefix))
        if key not in self._cache:
            rng = np.random.default_rng([self._seed, 9176, *key[0], 733, *key[1]])
            logits = rng.normal(0.0, self._spread, size=self.vocab.size)
            self._cache[key] = logits - logsumexp(logits)
        self.calls += 1
        return self._cache[key]


class TieLM(LanguageModel):
    """Log-probabilities drawn from {0, -0.5, -1, -1.5}, pure in (source, prefix).

    The rows are not normalized; on this grid every sum is exact, so equal
    scores recur within a parent and across parents.
    """

    def __init__(self, vocab: Vocabulary, seed: int, direction: str = REGULAR):
        self.vocab = vocab
        self.direction = direction
        self._seed = seed

    def next_token_logprobs(self, source, prefix) -> np.ndarray:
        rng = np.random.default_rng([self._seed, 5171, *source, 733, *prefix])
        return -rng.integers(0, 4, size=self.vocab.size) / 2.0


class PeakedEosLM(LanguageModel):
    """P(EOS | anything) = 1 exactly; every other token has probability 0."""

    def __init__(self, vocab: Vocabulary, direction: str = REGULAR):
        self.vocab = vocab
        self.direction = direction

    def next_token_logprobs(self, source, prefix) -> np.ndarray:
        probs = np.zeros(self.vocab.size)
        probs[1] = 1.0
        with np.errstate(divide="ignore"):
            return np.log(probs)


class NoEosLM(LanguageModel):
    """EOS nearly impossible; everything else uniform.  Keeps beams full."""

    def __init__(self, vocab: Vocabulary, direction: str = REGULAR):
        self.vocab = vocab
        self.direction = direction

    def next_token_logprobs(self, source, prefix) -> np.ndarray:
        v = self.vocab.size
        probs = np.full(v, (1.0 - 1e-12) / (v - 1))
        probs[1] = 1e-12
        return np.log(probs)


@st.composite
def wmd_measures(draw, vocab: Vocabulary) -> SimilaritySpec:
    """WMD measures over ``vocab`` built to produce exact ties.

    Content words share vectors from a pool of at most three points on a
    small integer grid (so distinct words can sit at distance 0 and many
    distances coincide), some words have no vector, and the stopword list
    ranges up to every content word, which makes every pair degenerate.
    """
    words = [vocab.surface_for(i) for i in range(len(RESERVED), vocab.size)]
    point = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    pool = draw(st.lists(point, min_size=1, max_size=3))
    vectors = {}
    for word in words:
        slot = draw(st.integers(-1, len(pool) - 1))
        if slot >= 0:
            vectors[word] = np.array(pool[slot], dtype=float)
    vectors.setdefault(words[0], np.array(pool[0], dtype=float))
    stopwords = draw(st.one_of(st.just(frozenset(words)), st.frozensets(st.sampled_from(words))))
    return SimilaritySpec(
        WMD_T,
        max_length=draw(st.integers(1, 6)),
        bp_mode=draw(st.sampled_from((BP_DIVIDE, BP_MULTIPLY))),
        embeddings=EmbeddingTable(vectors),
        stopwords=stopwords,
        vocab=vocab,
    )


@st.composite
def covering_wmd_measures(draw, vocab: Vocabulary) -> SimilaritySpec:
    """WMD measures in which every word of ``vocab``, markers included, has a
    vector on a small integer grid and at least one is not a stopword, so
    that, unlike most ``wmd_measures``, most pairs of cores are solved."""
    words = [vocab.surface_for(i) for i in range(vocab.size)]
    point = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    vectors = {word: np.array(draw(point), dtype=float) for word in words}
    stopwords = draw(st.frozensets(st.sampled_from(words))) - {draw(st.sampled_from(words))}
    return SimilaritySpec(
        WMD_T,
        max_length=draw(st.integers(1, 6)),
        bp_mode=draw(st.sampled_from((BP_DIVIDE, BP_MULTIPLY))),
        embeddings=EmbeddingTable(vectors),
        stopwords=stopwords,
        vocab=vocab,
    )


@pytest.fixture
def vocab6() -> Vocabulary:
    return dummy_vocab(6)
