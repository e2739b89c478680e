"""Corpus metrics: BLEU-4, distinct-n, the ideal re-ranking oracle, and
rank / word-position statistics for beam analysis."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .beam import DecodeOutput, Hypothesis
from .corpus import SentencePair, Vocabulary
from .errors import ParameterError
from .similarity import (
    BLEU_ORDER,
    bp_t,
    clip_counts,
    clipped_precision_counts,
    geometric_mean,
    ngram_table,
    smoothed_from_counts,
)


@dataclass
class BleuAccumulator:
    """Corpus-level clipped n-gram counts for micro-averaged BLEU-4."""

    matches: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    totals: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    candidate_length: int = 0
    reference_length: int = 0

    def add(self, candidate: Sequence, reference: Sequence) -> None:
        matches, totals = clipped_precision_counts(candidate, reference)
        for n in range(BLEU_ORDER):
            self.matches[n] += matches[n]
            self.totals[n] += totals[n]
        self.candidate_length += len(candidate)
        self.reference_length += len(reference)

    def merge(self, other: "BleuAccumulator") -> None:
        for n in range(BLEU_ORDER):
            self.matches[n] += other.matches[n]
            self.totals[n] += other.totals[n]
        self.candidate_length += other.candidate_length
        self.reference_length += other.reference_length

    def score(self) -> float:
        """Micro-averaged BLEU-4 on the 0..100 scale.

        An order with hypothesis n-grams but zero matches drops the score
        to 0; an order with no hypothesis n-grams anywhere in the corpus is
        vacuous and contributes a perfect precision, which keeps the score
        of a corpus against itself at 100 even for very short sentences.
        """
        if self.candidate_length == 0:
            return 0.0
        precisions = [m / t if t else 1.0 for m, t in zip(self.matches, self.totals)]
        penalty = bp_t(self.candidate_length, self.reference_length)
        return 100.0 * penalty * geometric_mean(precisions)


def corpus_bleu4(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Corpus BLEU-4 over (candidate, reference) pairs, both EOS-stripped."""
    if not pairs:
        raise ParameterError("corpus BLEU needs at least one pair")
    acc = BleuAccumulator()
    for candidate, reference in pairs:
        acc.add(candidate, reference)
    return acc.score()


def distinct_n(sentences: Sequence[Sequence], n: int) -> float:
    """Unique n-grams across all sentences divided by the total word count.

    The denominator is in words for every n, so values shrink quickly with
    repetitive output and the n=1 case is the classic type/token ratio.
    Sentences that hold no words at all (every output empty) score 0.0.
    """
    if n < 1:
        raise ParameterError("n-gram order must be >= 1")
    if not sentences:
        raise ParameterError("distinct-n needs at least one sentence")
    total_words = sum(len(s) for s in sentences)
    if total_words == 0:
        return 0.0
    grams = set()
    for sentence in sentences:
        for i in range(len(sentence) - n + 1):
            grams.add(tuple(sentence[i : i + n]))
    return len(grams) / total_words


def _reference_table(reference: Sequence) -> Counter:
    if not reference:
        raise ParameterError("reference must be non-empty")
    return ngram_table(reference)


def _bleu4_against(candidate: Sequence, reference_table: Counter, reference_length: int) -> float:
    """Sentence BLEU-4 of ``candidate`` against a reference given by its
    ``ngram_table`` and length."""
    if not candidate:
        return 0.0
    counts = clip_counts(ngram_table(candidate), len(candidate), reference_table)
    return bp_t(len(candidate), reference_length) * geometric_mean(smoothed_from_counts(*counts))


def sentence_bleu4(candidate: Sequence, reference: Sequence) -> float:
    """Sentence BLEU-4 with add-1 smoothing and the standard brevity penalty."""
    return _bleu4_against(candidate, _reference_table(reference), len(reference))


def best_hypothesis(
    beam: Sequence[Hypothesis], reference: Sequence[int]
) -> tuple[Hypothesis, int]:
    """The beam element with the highest sentence BLEU-4, plus its 1-based rank.

    This is the ideal re-ranking oracle: an upper bound on what any
    beam re-scoring strategy could select.  Ties keep the lowest rank.
    The reference's n-grams are counted once for the whole beam.
    """
    if not beam:
        raise ParameterError("beam must be non-empty")
    table = _reference_table(reference)
    best_rank = 0
    best_score = -1.0
    for i, hyp in enumerate(beam):
        score = _bleu4_against(hyp.core(), table, len(reference))
        if score > best_score:
            best_score = score
            best_rank = i
    return beam[best_rank], best_rank + 1


@dataclass
class RankHistogram:
    """Counts of selected-sentence original beam ranks, indexed 1..B."""

    counts: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def count_for(self, rank: int) -> int:
        return self.counts[rank - 1]


def rank_histogram(runs: Sequence[DecodeOutput], beam_size: int) -> RankHistogram:
    """Histogram the selected candidates' original beam ranks over runs."""
    counts = [0] * beam_size
    for run in runs:
        if not 1 <= run.selected_index <= beam_size:
            raise ParameterError(
                f"selected index {run.selected_index} outside 1..{beam_size}"
            )
        counts[run.selected_index - 1] += 1
    return RankHistogram(counts)


def word_position_frequency(
    pairs: Sequence[SentencePair],
    vocab: Vocabulary,
    position: int,
    order: str = "regular",
    top_k: int = 50,
) -> list[tuple[str, int]]:
    """Most frequent target words at a given position from either end.

    With order "reverse" positions count from the end, so position 1
    counts sentence-final words; short sentences skip positions past
    their length.  Ties break lexicographically after descending count.
    Token ids are counted first, then each distinct id is mapped to its
    word once.
    """
    if position not in (1, 2, 3):
        raise ParameterError("position must be 1, 2 or 3")
    if top_k < 1:
        raise ParameterError("top_k must be >= 1")
    if order not in ("regular", "reverse"):
        raise ParameterError(f"unknown order {order!r}")
    index = position - 1 if order == "regular" else -position
    ids = Counter([pair.target[index] for pair in pairs if len(pair.target) >= position])
    counts = {vocab.surface_for(token_id): count for token_id, count in ids.items()}
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]
