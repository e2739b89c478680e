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
    geometric_mean,
    ngram_table,
    smoothed_from_counts,
)

# A BLEU memo maps a (candidate, reference) pair of token tuples to the
# pair's clipped n-gram matches and candidate n-gram totals.  Every entry
# is a pure function of its key, so one memo can be shared by any number
# of calls; a call given none uses a fresh one.
BleuMemo = dict[tuple[tuple, tuple], tuple[list[int], list[int]]]


def _counts(
    candidate: tuple, reference: tuple, memo: BleuMemo, reference_table: Counter | None = None
) -> tuple[list[int], list[int]]:
    """The memo's entry for one pair, counted on a miss against
    ``reference_table`` (the reference's ``ngram_table``, counted here when
    not given)."""
    key = (candidate, reference)
    entry = memo.get(key)
    if entry is None:
        if reference_table is None:
            reference_table = ngram_table(reference)
        entry = memo[key] = clip_counts(ngram_table(candidate), len(candidate), reference_table)
    return entry


def _bleu4(
    candidate_length: int, reference_length: int, matches: list[int], totals: list[int]
) -> float:
    """Sentence BLEU-4 from a pair's lengths and clipped counts."""
    if not candidate_length:
        return 0.0
    return bp_t(candidate_length, reference_length) * geometric_mean(
        smoothed_from_counts(matches, totals)
    )


@dataclass
class BleuAccumulator:
    """Corpus-level clipped n-gram counts for micro-averaged BLEU-4."""

    matches: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    totals: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    candidate_length: int = 0
    reference_length: int = 0

    def add(self, candidate: Sequence, reference: Sequence, memo: BleuMemo | None = None) -> None:
        """Count one pair, looking its counts up in ``memo`` first."""
        matches, totals = _counts(tuple(candidate), tuple(reference), {} if memo is None else memo)
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


def corpus_bleu4(
    pairs: Sequence[tuple[Sequence, Sequence]], memo: BleuMemo | None = None
) -> float:
    """Corpus BLEU-4 over (candidate, reference) pairs, both EOS-stripped;
    each distinct pair is counted once per ``memo``."""
    if not pairs:
        raise ParameterError("corpus BLEU needs at least one pair")
    if memo is None:
        memo = {}
    acc = BleuAccumulator()
    for candidate, reference in pairs:
        acc.add(candidate, reference, memo)
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
    counts = _counts(tuple(candidate), tuple(reference), {})
    return _bleu4(len(candidate), len(reference), *counts)


def best_hypothesis(
    beam: Sequence[Hypothesis], reference: Sequence[int], memo: BleuMemo | None = None
) -> tuple[Hypothesis, int]:
    """The beam element with the highest sentence BLEU-4, plus its 1-based rank.

    This is the ideal re-ranking oracle: an upper bound on what any
    beam re-scoring strategy could select.  Ties keep the lowest rank.
    Members are looked up in ``memo`` first; the reference's n-grams are
    counted at most once per call, at the first miss.
    """
    if not beam:
        raise ParameterError("beam must be non-empty")
    if not reference:
        raise ParameterError("reference must be non-empty")
    if memo is None:
        memo = {}
    reference = tuple(reference)
    table = None
    best_rank = 0
    best_score = -1.0
    for i, hyp in enumerate(beam):
        core = hyp.core()
        counts = memo.get((core, reference))
        if counts is None:
            if table is None:
                table = ngram_table(reference)
            counts = _counts(core, reference, memo, table)
        score = _bleu4(len(core), len(reference), *counts)
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
    The ids at the position are counted in one ``Counter``; only the
    words whose count reaches the top_k-th count are mapped and sorted.
    """
    if position not in (1, 2, 3):
        raise ParameterError("position must be 1, 2 or 3")
    if top_k < 1:
        raise ParameterError("top_k must be >= 1")
    if order not in ("regular", "reverse"):
        raise ParameterError(f"unknown order {order!r}")
    index = position - 1 if order == "regular" else -position
    ids = Counter([pair.target[index] for pair in pairs if len(pair.target) >= position])
    size = vocab.size
    for token_id in ids:  # in order of first occurrence
        if not 0 <= token_id < size:
            vocab.surface_for(token_id)  # raises, naming the id
    # Only words counted at least as often as the top_k-th word can rank;
    # ties at that count are all kept so the word order settles them.
    cut = sorted(ids.values())[-top_k] if len(ids) > top_k else 0
    ranked = sorted(
        ((vocab.surface_for(token_id), count) for token_id, count in ids.items() if count >= cut),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:top_k]
