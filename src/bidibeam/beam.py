"""Vanilla beam search with length-normalized scoring and a finished-candidate
stopping rule.

Scores are log-probabilities divided by the length penalty
lp(Y) = (5 + |Y|)^alpha / (5 + 1)^alpha; the search stops once B finished
candidates have been collected or the length limit T is reached.  All ties
are broken by lexicographic token-id order so decoding is fully
deterministic.

A step scores the n alive hypotheses' n x V candidates as one numpy array,
ranks only its top B + n, selected with np.partition and ordered with
np.lexsort on (-score, parent's lexicographic rank, token id), and builds
Hypothesis objects only for the children that survive the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .corpus import EOS_ID
from .errors import ParameterError
from .instrumentation import ComplexityReport
from .lm import LanguageModel

if TYPE_CHECKING:
    from .bidi import AgreementPair


@dataclass(frozen=True)
class SearchParams:
    beam_size: int
    max_length: int
    alpha: float = 0.6

    def __post_init__(self):
        if self.beam_size < 1:
            raise ParameterError("beam size must be >= 1")
        if self.max_length < 1:
            raise ParameterError("maximum sentence length must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("length-penalty exponent must lie in [0, 1]")


@dataclass(frozen=True)
class Hypothesis:
    """A partial or finished target sequence with its cumulative log-probability.

    Tokens never include BOS; EOS is present iff the hypothesis is finished.
    """

    tokens: tuple[int, ...]
    logprob: float
    finished: bool

    def core(self) -> tuple[int, ...]:
        """Tokens with the trailing EOS stripped."""
        return self.tokens[:-1] if self.finished else self.tokens


@dataclass
class DecodeOutput:
    """A decode result: the full final beam and where the selection sits in it.

    ``scores`` holds the value each algorithm ordered the beam by (the
    normalized score for plain beam search, the combined bidirectional score
    after re-ranking).  ``position`` is the selected hypothesis's 0-based
    index in ``beam``: 0 for vbs and bidis, whose beams are ordered by the
    score that selects, and the agreement pick's index in bidia's regular
    beam, which keeps search order.  ``selected_index`` is the selected
    hypothesis's 1-based rank in the ordering of the underlying
    left-to-right search, which is what rank analysis plots.
    """

    beam: tuple[Hypothesis, ...]
    position: int
    selected_index: int
    scores: tuple[float, ...]
    report: ComplexityReport
    reverse_beam: Optional[tuple[Hypothesis, ...]] = None
    agreement: Optional["AgreementPair"] = None

    @property
    def selected(self) -> Hypothesis:
        return self.beam[self.position]


class Memo(dict):
    """What the decodes and scorings of one command share.

    One table maps ``(make, *args)`` to ``make(*args, memo)``, made by the
    first lookup that misses (``__missing__``) and read by every later one.
    Each maker is a pure function of its arguments and takes the memo last,
    so the values it needs in turn come from the same table, and a decode or
    score equals a memo-free one.  A stored None (a degenerate WMD pair's
    transport problem) is a value like any other.  Models and similarity
    measures in a key hash by identity, and the key holds the object itself,
    so a rebuilt measure never finds an entry of the one it replaces.

    The makers are ``beam._search`` (one beam search), ``bidi._rescored``
    (a regular search and its ``rescore_terms``, shared by ``bidis_decode``
    and ``select_lambda``), ``bidi._agree`` (one agreement decode), and in
    ``similarity`` a WMD pair's cost matrix and bags' word counts
    (``_problem``), its raw WMD (``_raw_wmd``, solved on those counts) and
    its relaxed WMD, both before ``bp_t`` (applied on every call, since it
    depends on the call's candidate length), and a BLEU-T pair's bleu_t
    (read by both ``dissimilarity`` and ``tie_break``), and in
    ``evaluation`` a reference's n-grams, a (candidate, reference) pair's
    clipped counts and its sentence BLEU-4.

    Decoders and similarities reach a maker through ``made``, which without
    a memo calls it directly and hashes nothing, so any model decodes; a
    BLEU scorer given no memo uses a fresh one, since its keys are token
    tuples.  A plain dict is no memo: it has no ``__missing__``.  Each
    command builds one memo, which lives as long as the command and has no
    size cap.
    """

    def __missing__(self, key: tuple):
        make, *args = key
        value = self[key] = make(*args, self)
        return value


def made(memo: Memo | None, make, *args):
    """``make(*args, memo)``: made afresh without a memo, else looked up in it."""
    return make(*args, None) if memo is None else memo[(make,) + args]


def length_penalty(length: int, alpha: float) -> float:
    """GNMT length normalizer ((5 + length) / 6) ** alpha."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    return (5.0 + length) ** alpha / 6.0**alpha


def normalized_score(logprob: float, length: int, alpha: float) -> float:
    return logprob / length_penalty(length, alpha)


def _ranked(
    hypotheses: Sequence[Hypothesis], alpha: float
) -> list[tuple[float, Hypothesis]]:
    """Sort by normalized score descending, ties by lexicographic token ids."""
    scored = [
        (normalized_score(h.logprob, len(h.tokens), alpha), h) for h in hypotheses
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].tokens))
    return scored


def vbs_decode(
    model: LanguageModel,
    source: Sequence[int],
    params: SearchParams,
    memo: Memo | None = None,
) -> DecodeOutput:
    """Vanilla beam search over the model's next-token distributions.

    Each step expands every alive hypothesis by all V tokens and ranks the
    candidates by normalized score, ties by token ids.  Finished candidates
    ranked inside the top B are set aside (they do not consume alive slots);
    the B best unfinished candidates survive.  If fewer than B hypotheses
    finish within the length limit, the output beam is padded with the best
    unfinished ones.

    A step scores the n x V candidates of the n alive hypotheses as one
    array and ranks only its top k = min(B + n, n * V): every parent has
    exactly one EOS child, so the top B + n hold at least B unfinished ones.
    np.partition finds the k-th best score; every candidate no worse than it
    is kept, so ties at the cut survive, and np.lexsort orders them by
    (-score, parent's lexicographic rank, token id).  All alive prefixes have
    the same length, so this is the lexicographic token order of the
    children.  Only the kept children of the first k become Hypothesis
    objects; ``sort_events`` still records the n * V pool.  A search
    already in ``memo`` is not repeated.
    """
    return made(memo, _search, model, tuple(source), params)


def _search(
    model: LanguageModel, source: Sequence[int], params: SearchParams, memo: Memo | None
) -> DecodeOutput:
    """One beam search; see ``vbs_decode``."""
    v = model.vocab.size
    if v < 2:
        raise ParameterError("cannot decode with a vocabulary of fewer than 2 tokens")
    b, t, alpha = params.beam_size, params.max_length, params.alpha
    report = ComplexityReport(algorithm="vbs")

    alive: list[Hypothesis] = [Hypothesis((), 0.0, False)]
    finished: list[Hypothesis] = []
    step = 0
    while alive and len(finished) < b and step < t:
        step += 1
        # Row i belongs to the parent of lexicographic rank i, so a flat
        # candidate index i * V + token is its lexicographic rank too.
        parents = sorted(alive, key=lambda h: h.tokens)
        rows = np.array([model.next_token_logprobs(source, h.tokens) for h in parents],
                        dtype=np.float64)
        n = len(parents)
        if rows.shape != (n, v):
            raise ParameterError(f"next-token log-probabilities must have length V = {v}")
        # The max is NaN or +inf if any entry is, and either fails this
        # comparison; -inf (an impossible token) passes.
        if not rows.max() < np.inf:
            raise ParameterError("next-token log-probabilities must not be NaN or +inf")
        report.expansions += n * v
        report.sort_events.append((step, n * v))
        # rows is a fresh float64 array, and x / -lp is -(x / lp) bit for bit.
        rows += np.array([h.logprob for h in parents])[:, None]
        logprobs = rows.ravel()
        negated = logprobs / -length_penalty(step, alpha)
        k = min(b + n, n * v)
        cut = np.partition(negated, k - 1)[k - 1]
        pool = np.flatnonzero(negated <= cut)
        top = pool[np.lexsort((pool, negated[pool]))][:k]

        alive = []
        for position, (index, logprob) in enumerate(zip(top.tolist(), logprobs[top].tolist())):
            parent, token = divmod(index, v)
            if token != EOS_ID:
                if len(alive) < b:
                    alive.append(Hypothesis(parents[parent].tokens + (token,), logprob, False))
            elif position < b and len(finished) < b:
                finished.append(Hypothesis(parents[parent].tokens + (token,), logprob, True))

    beam_set = list(finished)
    if len(beam_set) < b:
        beam_set.extend(alive[: b - len(beam_set)])
    ranked = _ranked(beam_set, alpha)
    return DecodeOutput(
        beam=tuple(h for _, h in ranked),
        position=0,
        selected_index=1,
        scores=tuple(s for s, _ in ranked),
        report=report,
    )
