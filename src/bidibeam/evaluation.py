"""Corpus metrics: BLEU-4, distinct-n, the ideal re-ranking oracle, and
rank / word-position statistics for beam analysis."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .beam import DecodeOutput, Hypothesis, Memo
from .corpus import SentencePair, Vocabulary
from .errors import ParameterError
from .similarity import BLEU_ORDER, bleu4_from_counts, bp_t, clip_counts, geometric_mean, ngram_table

# The BLEU makers of a ``beam.Memo``, keyed by EOS-stripped token tuples:
# each reference's n-grams, each pair's clipped counts and each pair's
# sentence BLEU-4 are made once per memo.


def _ngrams(reference: tuple, memo: Memo) -> Counter:
    """The ``ngram_table`` of a reference."""
    return ngram_table(reference)


def _clipped(candidate: tuple, reference: tuple, memo: Memo) -> tuple[list[int], list[int]]:
    """The clipped n-gram matches and candidate n-gram totals of
    ``candidate`` against ``reference``."""
    return clip_counts(ngram_table(candidate), len(candidate), memo[_ngrams, reference])


def _sentence_bleu4(candidate: tuple, reference: tuple, memo: Memo) -> float:
    """The sentence BLEU-4 of ``candidate`` against ``reference``."""
    return bleu4_from_counts(len(candidate), len(reference), *memo[_clipped, candidate, reference])


def corpus_bleu4(
    pairs: Sequence[tuple[Sequence, Sequence]], memo: Memo | None = None
) -> float:
    """Micro-averaged corpus BLEU-4 on the 0..100 scale over (candidate,
    reference) pairs, both EOS-stripped; each distinct pair's clipped
    counts are made once per ``memo``, a ``beam.Memo`` (a fresh one if
    None; a plain dict has no ``__missing__`` and does not work).

    An order with hypothesis n-grams but zero matches drops the score to 0;
    an order with no hypothesis n-grams anywhere in the corpus is vacuous
    and contributes a perfect precision, which keeps the score of a corpus
    against itself at 100 even for very short sentences.
    """
    if not pairs:
        raise ParameterError("corpus BLEU needs at least one pair")
    if memo is None:
        memo = Memo()
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    candidate_length = reference_length = 0
    for candidate, reference in pairs:
        pair_matches, pair_totals = memo[_clipped, tuple(candidate), tuple(reference)]
        for n in range(BLEU_ORDER):
            matches[n] += pair_matches[n]
            totals[n] += pair_totals[n]
        candidate_length += len(candidate)
        reference_length += len(reference)
    if candidate_length == 0:
        return 0.0
    precisions = [m / t if t else 1.0 for m, t in zip(matches, totals)]
    return 100.0 * bp_t(candidate_length, reference_length) * geometric_mean(precisions)


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
    return _sentence_bleu4(tuple(candidate), tuple(reference), Memo())


def best_hypothesis(
    beam: Sequence[Hypothesis], reference: Sequence[int], memo: Memo | None = None
) -> tuple[Hypothesis, int]:
    """The beam element with the highest sentence BLEU-4, plus its 1-based rank.

    This is the ideal re-ranking oracle: an upper bound on what any
    beam re-scoring strategy could select.  Ties keep the lowest rank.
    Each member's score is made once per ``memo``, a ``beam.Memo`` (a
    fresh one if None; a plain dict does not work), from the same clipped
    counts ``corpus_bleu4`` reads.
    """
    if not beam:
        raise ParameterError("beam must be non-empty")
    if not reference:
        raise ParameterError("reference must be non-empty")
    if memo is None:
        memo = Memo()
    reference = tuple(reference)
    best_rank = 0
    best_score = -1.0
    for i, hyp in enumerate(beam):
        score = memo[_sentence_bleu4, hyp.core(), reference]
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


def _position_index(position: int, order: str, top_k: int) -> int:
    """The target index of ``position`` counted from the ``order`` end,
    after checking the arguments of a word-position table."""
    if position not in (1, 2, 3):
        raise ParameterError("position must be 1, 2 or 3")
    if top_k < 1:
        raise ParameterError("top_k must be >= 1")
    if order not in ("regular", "reverse"):
        raise ParameterError(f"unknown order {order!r}")
    return position - 1 if order == "regular" else -position


def _top_words(ids: Counter, vocab: Vocabulary, top_k: int) -> list[tuple[str, int]]:
    """The ``top_k`` words of an id count by descending count, ties by word.

    Only the words whose count reaches the top_k-th count are mapped and
    sorted.  Ids are checked in order of first occurrence, so the first id
    outside ``vocab`` raises, naming it.
    """
    size = vocab.size
    for token_id in ids:
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
    The ids at the position are counted in one ``Counter``.
    """
    index = _position_index(position, order, top_k)
    ids = Counter([pair.target[index] for pair in pairs if len(pair.target) >= position])
    return _top_words(ids, vocab, top_k)


def surface_position_frequency(
    targets: Sequence[Sequence[str]],
    vocab: Vocabulary,
    position: int,
    order: str = "regular",
    top_k: int = 50,
) -> list[tuple[str, int]]:
    """``word_position_frequency`` over tokenized target sides, without
    encoding them first.

    Each distinct word at the position is counted once and then looked up
    with ``vocab.id_for``, so words outside the vocabulary merge into UNK
    exactly as ``encode_pairs`` would merge them.
    """
    index = _position_index(position, order, top_k)
    ids: Counter = Counter()
    for word, count in Counter([t[index] for t in targets if len(t) >= position]).items():
        ids[vocab.id_for(word)] += count
    return _top_words(ids, vocab, top_k)
