"""Bidirectional decoding: reverse-model re-scoring and two-beam agreement.

Both decoders combine a left-to-right (regular) and a right-to-left
(reverse) model.  Re-scoring decodes a beam with the regular model and
re-ranks it by a weighted sum of the normalized log-probabilities under
both directions, with the reverse weight selected on validation data.
Agreement decodes half-size beams under each model and outputs the
regular-side member of the most similar cross-beam pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .beam import DecodeOutput, Hypothesis, Memo, SearchParams, length_penalty, made, vbs_decode
from .corpus import EOS_ID, SentencePair
from .errors import DirectionError, ParameterError, VocabularyMismatchError
from .evaluation import corpus_bleu4
from .instrumentation import ComplexityReport
from .lm import LanguageModel, reverse_sequence_logprob
from .similarity import SimilaritySpec, dissimilarity, dissimilarity_lower_bound, tie_break

# A pair is skipped only when its lower bound exceeds the best exact
# dissimilarity by more than this margin, so float rounding in the bound
# (a few ulps where it equals the exact value) never drops a tying pair.
_PRUNE_RTOL = 1e-9
_PRUNE_ATOL = 1e-12


@dataclass(frozen=True)
class BidiSParams:
    """Re-scoring parameters: the reverse-direction weight plus search settings.

    The weight compensates the scale difference between the two directions'
    normalized log-probabilities; it should be selected on validation data,
    with 1.0 as the unvalidated fallback.  It must be finite and >= 0.
    """

    search: SearchParams
    reverse_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.reverse_weight < math.inf:  # NaN fails both
            raise ParameterError("reverse weight must be finite and non-negative")


@dataclass(frozen=True)
class AgreementPair:
    """The selected cross-beam pair; the reverse member is in regular order."""

    regular_hypothesis: Hypothesis
    reverse_hypothesis_regular_order: Hypothesis
    dissimilarity: float


def _check_directions(regular: LanguageModel, reverse: LanguageModel) -> None:
    if regular.direction != "regular":
        raise DirectionError("first model must be regular-direction")
    if reverse.direction != "reverse":
        raise DirectionError("second model must be reverse-direction")
    if regular.vocab.size != reverse.vocab.size:
        raise VocabularyMismatchError("regular and reverse models must share a vocabulary")


def rescore_terms(
    beam: Sequence[Hypothesis],
    reverse: LanguageModel,
    source: Sequence[int],
    alpha: float,
) -> list[tuple[float, float]]:
    """Per-hypothesis (regular, reverse) normalized log-probability terms.

    Both terms divide by the length penalty of the hypothesis's own token
    count, so the combined score for weight w is term1 + w * term2.
    """
    terms = []
    for hyp in beam:
        lp = length_penalty(len(hyp.tokens), alpha)
        term1 = hyp.logprob / lp
        term2 = reverse_sequence_logprob(reverse, source, hyp.core()) / lp
        terms.append((term1, term2))
    return terms


def rank_by_combined_score(
    beam: Sequence[Hypothesis],
    terms: Sequence[tuple[float, float]],
    reverse_weight: float,
) -> list[tuple[int, float]]:
    """Order beam positions by combined score descending, ties by token ids."""
    combined = [
        (i, t1 + reverse_weight * t2) for i, (t1, t2) in enumerate(terms)
    ]
    combined.sort(key=lambda pair: (-pair[1], beam[pair[0]].tokens))
    return combined


def _rescored(
    regular: LanguageModel,
    reverse: LanguageModel,
    source: Sequence[int],
    search: SearchParams,
    memo: Memo | None,
) -> tuple[DecodeOutput, list[tuple[float, float]]]:
    """The regular search of ``source`` and its ``rescore_terms``."""
    base = vbs_decode(regular, source, search, memo)
    return base, rescore_terms(base.beam, reverse, source, search.alpha)


def bidis_decode(
    regular: LanguageModel,
    reverse: LanguageModel,
    source: Sequence[int],
    params: BidiSParams,
    memo: Memo | None = None,
) -> DecodeOutput:
    """Decode with the regular model, then re-rank by both directions.

    The output beam is re-ranked by the combined score, so the winner sits
    at ``position`` 0; ``selected_index`` reports its original rank in the
    regular beam, which is what rank analysis histograms.  A search and
    re-scoring already in ``memo`` is not repeated.
    """
    _check_directions(regular, reverse)
    base, terms = made(memo, _rescored, regular, reverse, tuple(source), params.search)
    order = rank_by_combined_score(base.beam, terms, params.reverse_weight)
    report = ComplexityReport(algorithm="bidis")
    report.merge_search(base.report)
    report.rescoring_evals = len(base.beam)
    return DecodeOutput(
        beam=tuple(base.beam[i] for i, _ in order),
        position=0,
        selected_index=order[0][0] + 1,
        scores=tuple(score for _, score in order),
        report=report,
    )


def select_lambda(
    regular: LanguageModel,
    reverse: LanguageModel,
    validation: Sequence[SentencePair],
    search: SearchParams,
    grid: Sequence[float],
    memo: Memo | None = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the reverse-score weight maximizing validation BLEU-4.

    Returns the weight and the validation curve that chose it: one
    (weight, corpus BLEU-4) pair per grid value, in ascending weight order.
    Ties prefer the smallest weight; an empty validation split falls back
    to the smallest grid value with an empty curve.  With validation data
    or not, the models must pass ``bidis_decode``'s checks and each weight
    ``BidiSParams``'s.  Each validation source is searched and re-scored as
    ``bidis_decode`` does it, so with a memo a source that is also decoded
    is re-scored once.  Every weight's selections are scored by
    ``corpus_bleu4`` over one ``Memo``, ``memo`` or a fresh one, so a pair
    some weights share is counted once.
    """
    _check_directions(regular, reverse)
    if not grid:
        raise ParameterError("the reverse-weight grid must not be empty")
    for weight in grid:
        BidiSParams(search, weight)
    grid = sorted(grid)
    if not validation:
        return grid[0], []
    bases = [(pair, *made(memo, _rescored, regular, reverse, tuple(pair.source), search))
             for pair in validation]
    bleu = Memo() if memo is None else memo
    curve = []
    for lam in grid:
        selections = [
            (base.beam[rank_by_combined_score(base.beam, terms, lam)[0][0]].core(), pair.target)
            for pair, base, terms in bases
        ]
        curve.append((lam, corpus_bleu4(selections, bleu)))
    best_lambda, _ = max(curve, key=lambda point: point[1])
    return best_lambda, curve


def unreverse_hypothesis(hyp: Hypothesis) -> Hypothesis:
    """Flip a reverse-model hypothesis into regular order, EOS kept last."""
    core = tuple(reversed(hyp.core()))
    tokens = core + (EOS_ID,) if hyp.finished else core
    return Hypothesis(tokens, hyp.logprob, hyp.finished)


def agreement_argmin(
    regular_cores: Sequence[Sequence[int]],
    reverse_cores: Sequence[Sequence[int]],
    regular_scores: Sequence[float],
    measure: SimilaritySpec,
    memo: Memo | None = None,
) -> tuple[int, int, float, int]:
    """The cross pair (i, j) minimizing (d, -regular_scores[i], i, j), its
    dissimilarity d, and how many exact dissimilarities were computed.

    Every pair gets a cheap lower bound and pairs are visited by ascending
    (bound, -score, i, j).  Once a bound exceeds the best exact value by more
    than the rounding margin, so does every later one, and none of those
    pairs can win or tie, so the scan stops there.  The selection key is the
    total order (d, ``tie_break``, -score, i, j), so the result equals that
    of scanning every pair.  ``memo`` goes to the bound, the exact
    dissimilarity and the tie-break, so they share each WMD pair's
    transport problem and each BLEU-T pair's bleu_t, and the command solves
    each pair once.
    """
    candidates = sorted(
        (dissimilarity_lower_bound(y_n, y_r, measure, memo), -regular_scores[i], i, j)
        for i, y_n in enumerate(regular_cores)
        for j, y_r in enumerate(reverse_cores)
    )
    best_key = None
    exact_evals = 0
    for bound, neg_score, i, j in candidates:
        if best_key is not None and bound > best_key[0] * (1 + _PRUNE_RTOL) + _PRUNE_ATOL:
            break
        y_n, y_r = regular_cores[i], reverse_cores[j]
        key = (dissimilarity(y_n, y_r, measure, memo), tie_break(y_n, y_r, measure, memo),
               neg_score, i, j)
        exact_evals += 1
        if best_key is None or key < best_key:
            best_key = key
    d, _, _, i, j = best_key
    return i, j, d, exact_evals


def bidia_decode(
    regular: LanguageModel,
    reverse: LanguageModel,
    source: Sequence[int],
    params: SearchParams,
    measure: SimilaritySpec,
    memo: Memo | None = None,
) -> DecodeOutput:
    """Agreement decoding over two half-size beams.

    Runs beam search with size B/2 under each model, un-reverses the
    reverse-side hypotheses and outputs the regular-side member of the
    cross-beam pair of least dissimilarity.  Ties prefer the higher regular
    normalized score, then the lower regular index, then the lower reverse
    index.  A decode already in ``memo`` is not repeated.
    """
    _check_directions(regular, reverse)
    if params.beam_size % 2 != 0 or params.beam_size < 2:
        raise ParameterError("agreement decoding needs an even beam size >= 2")
    return made(memo, _agree, regular, reverse, tuple(source), params, measure)


def _agree(
    regular: LanguageModel,
    reverse: LanguageModel,
    source: Sequence[int],
    params: SearchParams,
    measure: SimilaritySpec,
    memo: Memo | None,
) -> DecodeOutput:
    """One agreement decode; see ``bidia_decode``."""
    half = SearchParams(params.beam_size // 2, params.max_length, params.alpha)
    run_regular = vbs_decode(regular, source, half, memo)
    run_reverse = vbs_decode(reverse, source, half, memo)
    unreversed = tuple(unreverse_hypothesis(h) for h in run_reverse.beam)

    i0, j0, d0, exact_evals = agreement_argmin(
        [h.core() for h in run_regular.beam],
        [h.core() for h in unreversed],
        run_regular.scores,
        measure,
        memo,
    )

    report = ComplexityReport(algorithm="bidia")
    report.merge_search(run_regular.report)
    report.merge_search(run_reverse.report)
    report.pairwise_sim_evals = len(run_regular.beam) * len(unreversed)
    report.exact_sim_evals = exact_evals
    return DecodeOutput(
        beam=run_regular.beam,
        position=i0,
        selected_index=i0 + 1,
        scores=run_regular.scores,
        report=report,
        reverse_beam=unreversed,
        agreement=AgreementPair(run_regular.beam[i0], unreversed[j0], d0),
    )
