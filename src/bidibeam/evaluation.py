"""Corpus metrics: BLEU-4, distinct-n, the ideal re-ranking oracle, and
rank / word-position statistics for beam analysis."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .beam import DecodeOutput, Hypothesis
from .corpus import SentencePair, Vocabulary, reverse_target
from .errors import ParameterError
from .similarity import clipped_precision_counts, smoothed_precisions

BLEU_ORDER = 4


@dataclass
class BleuAccumulator:
    """Corpus-level clipped n-gram counts for micro-averaged BLEU-4."""

    matches: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    totals: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    candidate_length: int = 0
    reference_length: int = 0

    def add(self, candidate: Sequence, reference: Sequence) -> None:
        matches, totals = clipped_precision_counts(candidate, reference, BLEU_ORDER)
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
        log_mean = 0.0
        for m, t in zip(self.matches, self.totals):
            if t == 0:
                continue
            if m == 0:
                return 0.0
            log_mean += math.log(m / t) / BLEU_ORDER
        penalty = min(
            1.0, math.exp(1.0 - self.reference_length / self.candidate_length)
        )
        return 100.0 * penalty * math.exp(log_mean)


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


def sentence_bleu4(candidate: Sequence, reference: Sequence) -> float:
    """Sentence BLEU-4 with add-1 smoothing and the standard brevity penalty."""
    if not reference:
        raise ParameterError("reference must be non-empty")
    if not candidate:
        return 0.0
    precisions = smoothed_precisions(candidate, reference, BLEU_ORDER)
    if any(p == 0.0 for p in precisions):
        return 0.0
    log_mean = sum(math.log(p) for p in precisions) / BLEU_ORDER
    penalty = min(1.0, math.exp(1.0 - len(reference) / len(candidate)))
    return penalty * math.exp(log_mean)


def best_hypothesis(
    beam: Sequence[Hypothesis], reference: Sequence[int]
) -> tuple[Hypothesis, int]:
    """The beam element with the highest sentence BLEU-4, plus its 1-based rank.

    This is the ideal re-ranking oracle: an upper bound on what any
    beam re-scoring strategy could select.  Ties keep the lowest rank.
    """
    if not beam:
        raise ParameterError("beam must be non-empty")
    best_rank = 0
    best_score = -1.0
    for i, hyp in enumerate(beam):
        score = sentence_bleu4(hyp.core(), reference)
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

    With order "reverse" the targets are reversed first, so position 1
    counts sentence-final words; short sentences skip positions past
    their length.  Ties break lexicographically after descending count.
    """
    if position not in (1, 2, 3):
        raise ParameterError("position must be 1, 2 or 3")
    if top_k < 1:
        raise ParameterError("top_k must be >= 1")
    if order not in ("regular", "reverse"):
        raise ParameterError(f"unknown order {order!r}")
    counts: Counter[str] = Counter()
    for pair in pairs:
        target = pair.target if order == "regular" else reverse_target(pair.target)
        if len(target) >= position:
            counts[vocab.surface_for(target[position - 1])] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]
