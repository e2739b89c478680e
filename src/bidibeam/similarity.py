"""Sentence-pair similarity measures for agreement-based decoding.

Two measures are provided: a sentence BLEU variant whose brevity penalty
treats the decoder's maximum length T as the reference length, and a Word
Mover's Distance backed by an exact transportation-LP solver over word
embeddings.  Both are exposed through a single ``dissimilarity`` function
that agreement decoding minimizes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from collections import Counter
from itertools import chain
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .corpus import Vocabulary, numbered_lines, read_user_text
from .errors import DegeneratePairError, FormatError, ParameterError

log = logging.getLogger(__name__)

BLEU_T = "bleu_t"
WMD_T = "wmd_t"

BLEU_ORDER = 4

BP_DIVIDE = "divide"
BP_MULTIPLY = "multiply"


@dataclass(frozen=True)
class SimilaritySpec:
    """Configuration of one similarity measure.

    ``embeddings``, ``stopwords`` and ``vocab`` are only consulted by the
    WMD measure; ``vocab`` maps token ids to words before embedding lookup.
    """

    kind: str
    max_length: int
    bp_mode: str = BP_DIVIDE
    embeddings: Optional["EmbeddingTable"] = None
    stopwords: frozenset[str] = frozenset()
    vocab: Optional[Vocabulary] = None

    def __post_init__(self):
        if self.kind not in (BLEU_T, WMD_T):
            raise ParameterError(f"unknown similarity kind {self.kind!r}")
        if self.max_length < 1:
            raise ParameterError("maximum sentence length must be >= 1")
        if self.bp_mode not in (BP_DIVIDE, BP_MULTIPLY):
            raise ParameterError(f"unknown brevity-penalty mode {self.bp_mode!r}")
        if self.kind == WMD_T and self.embeddings is None:
            raise ParameterError("the WMD measure requires an embedding table")


def bp_t(candidate_length: int, reference_length: int) -> float:
    """Brevity penalty min(1, exp(1 - r/c)) of a length-c candidate against
    reference length r; the similarity measures pass the decoder length
    limit T as r, corpus and sentence BLEU-4 the reference's length."""
    if candidate_length < 1:
        raise ParameterError("candidate length must be >= 1")
    return min(1.0, math.exp(1.0 - reference_length / candidate_length))


def ngram_table(tokens: Sequence) -> Counter:
    """Every 1..BLEU_ORDER-gram of ``tokens`` in one table, keyed by the
    gram's tuple, so its length is its order.  Each order's grams are
    zipped from shifted slices and counted in C."""
    return Counter(chain.from_iterable(
        zip(*(tokens[k:] for k in range(n))) for n in range(1, BLEU_ORDER + 1)
    ))


def clip_counts(
    hypothesis_table: Counter, hypothesis_length: int, reference_table: Counter
) -> tuple[list[int], list[int]]:
    """Per-order clipped n-gram matches and hypothesis n-gram totals, from
    the two sentences' ``ngram_table``s."""
    matches = [0] * BLEU_ORDER
    for gram in hypothesis_table.keys() & reference_table.keys():
        matches[len(gram) - 1] += min(hypothesis_table[gram], reference_table[gram])
    totals = [max(0, hypothesis_length - n) for n in range(BLEU_ORDER)]
    return matches, totals


def clipped_precision_counts(
    hypothesis: Sequence, reference: Sequence
) -> tuple[list[int], list[int]]:
    """Per-order clipped n-gram matches and hypothesis n-gram totals."""
    return clip_counts(ngram_table(hypothesis), len(hypothesis), ngram_table(reference))


def smoothed_from_counts(matches: Sequence[int], totals: Sequence[int]) -> list[float]:
    """Modified n-gram precisions with sentence-level add-1 smoothing.

    Whenever any raw precision is zero, orders >= 2 switch to
    (matches + 1) / (totals + 1); the unigram precision is never smoothed.
    Orders with no hypothesis n-grams at all count as vacuously perfect.
    """
    any_zero = any(t > 0 and m == 0 for m, t in zip(matches, totals))
    precisions = [matches[0] / totals[0]]
    for m, t in zip(matches[1:], totals[1:]):
        if any_zero:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(m / t if t > 0 else 1.0)
    return precisions


def smoothed_precisions(hypothesis: Sequence, reference: Sequence) -> list[float]:
    """``smoothed_from_counts`` of the pair's clipped n-gram counts."""
    return smoothed_from_counts(*clipped_precision_counts(hypothesis, reference))


def geometric_mean(precisions: Sequence[float]) -> float:
    """Uniformly weighted geometric mean of n-gram precisions; 0 when any is 0."""
    if any(p == 0.0 for p in precisions):
        return 0.0
    return math.exp(sum(math.log(p) for p in precisions) / len(precisions))


def bleu_t(hypothesis: Sequence, reference: Sequence, spec: SimilaritySpec) -> float:
    """Sentence BLEU-4 with the decoder length limit as reference length.

    Equals bp_t(|hypothesis|, T) times the geometric mean of the smoothed
    modified n-gram precisions; always in [0, 1].
    """
    if not hypothesis or not reference:
        raise ParameterError("bleu_t requires non-empty sequences")
    precisions = smoothed_precisions(hypothesis, reference)
    return bp_t(len(hypothesis), spec.max_length) * geometric_mean(precisions)


class EmbeddingTable:
    """Immutable word -> dense vector mapping of one fixed dimension."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ParameterError("embedding table must not be empty")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1:
            raise ParameterError("all embedding vectors must share one dimension")
        if not all(np.isfinite(v).all() for v in vectors.values()):
            raise ParameterError("embedding vectors must be finite")
        self._vectors = vectors
        self.dimension = next(iter(vectors.values())).shape[0]

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def vector(self, word: str) -> np.ndarray:
        if word not in self._vectors:
            raise KeyError(f"word {word!r} has no embedding")
        return self._vectors[word]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse a text vector file: optional "count dim" header, then one
    "word v1 ... vd" line per word.  Duplicate words keep the first entry."""
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    lines = list(numbered_lines(read_user_text(path)))
    head = lines[0][1].split()
    if len(head) == 2:
        try:
            int(head[0]), int(head[1])
            lines = lines[1:]
        except ValueError:
            pass
    for lineno, line in lines:
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        word, raw_values = parts[0], parts[1:]
        try:
            values = np.array([float(x) for x in raw_values])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: unparsable vector component")
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: line {lineno}: non-finite vector component")
        if dimension is None:
            dimension = len(values)
            if dimension == 0:
                raise FormatError(f"{path}: line {lineno}: no vector components")
        elif len(values) != dimension:
            raise FormatError(
                f"{path}: line {lineno}: expected {dimension} components, "
                f"got {len(values)}"
            )
        if word not in vectors:
            vectors[word] = values
    if not vectors:
        raise FormatError(f"{path}: no embedding vectors found")
    return EmbeddingTable(vectors)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One word per line; blank lines ignored, entries lowercased to match
    the tokenizer's casing."""
    words = read_user_text(path).split()
    return frozenset(w.lower() for w in words)


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("bidibeam").joinpath("data/stopwords_en.txt").read_text()
    return frozenset(text.split())


@dataclass(frozen=True)
class TransportProblem:
    """A balanced transportation LP with probability-mass marginals."""

    supply: np.ndarray
    demand: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", cost)
        if supply.ndim != 1 or demand.ndim != 1:
            raise ParameterError("supply and demand must be 1-d weight vectors")
        if cost.shape != (supply.size, demand.size):
            raise ParameterError("cost matrix shape must match the weight vectors")
        if (supply < 0).any() or (demand < 0).any():
            raise ParameterError("weights must be non-negative")
        if (cost < 0).any():
            raise ParameterError("costs must be non-negative")
        if abs(supply.sum() - 1.0) > 1e-9 or abs(demand.sum() - 1.0) > 1e-9:
            raise ParameterError("supply and demand weights must each sum to 1")


def solve_transport(problem: TransportProblem) -> tuple[np.ndarray, float]:
    """Exactly solve the balanced transportation LP.

    Returns the optimal flow matrix and its total cost.  The LP is solved
    with a simplex method, so the flow is an exact vertex solution; the cost
    is recomputed from the returned flow.
    """
    supply, demand, cost = problem.supply, problem.demand, problem.cost
    if abs(supply.sum() - demand.sum()) > 1e-9:
        raise ParameterError("supply and demand totals differ by more than 1e-9")
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([supply, demand])
    result = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if result.status != 0:
        raise ParameterError(f"transportation LP not solved: {result.message}")
    flow = np.maximum(result.x.reshape(m, n), 0.0)
    return flow, float(np.sum(flow * cost))


def _bag_of_words(words: Sequence[str]) -> tuple[list[str], np.ndarray]:
    counts = Counter(words)
    unique = sorted(counts)
    weights = np.array([counts[w] for w in unique], dtype=float)
    return unique, weights / weights.sum()


def _transport_problem(
    x: Sequence[str],
    y: Sequence[str],
    table: EmbeddingTable,
    stopwords: frozenset[str],
) -> TransportProblem:
    """Filter stopwords and words without embeddings, then build the
    bag-of-words marginals and the Euclidean cost matrix of the pair."""
    kept_x = [w for w in x if w not in stopwords and w in table]
    kept_y = [w for w in y if w not in stopwords and w in table]
    dropped = (len(x) - len(kept_x)) + (len(y) - len(kept_y))
    if dropped:
        log.debug("wmd dropped %d stopword/out-of-vocabulary tokens", dropped)
    if not kept_x or not kept_y:
        raise DegeneratePairError("a side is empty after stopword/OOV filtering")
    words_x, supply = _bag_of_words(kept_x)
    words_y, demand = _bag_of_words(kept_y)
    points_x = np.stack([table.vector(w) for w in words_x])
    points_y = np.stack([table.vector(w) for w in words_y])
    deltas = points_x[:, None, :] - points_y[None, :, :]
    cost = np.sqrt((deltas**2).sum(axis=2))
    return TransportProblem(supply, demand, cost)


def wmd(
    x: Sequence[str],
    y: Sequence[str],
    table: EmbeddingTable,
    stopwords: frozenset[str] = frozenset(),
) -> float:
    """Word Mover's Distance between two sentences.

    Stopwords and words without embeddings are dropped first; if either side
    becomes empty the pair is degenerate and cannot be compared.
    """
    _, total = solve_transport(_transport_problem(x, y, table, stopwords))
    return total


def _relaxed_wmd(problem: TransportProblem) -> float:
    """The relaxed WMD lower bound of Kusner et al. (2015): the larger of the
    two costs obtained by dropping one marginal constraint, each word then
    moving all its mass to its nearest word on the other side."""
    to_y = float(problem.supply @ problem.cost.min(axis=1))
    to_x = float(problem.demand @ problem.cost.min(axis=0))
    return max(to_y, to_x)


def _as_words(tokens: Sequence, spec: SimilaritySpec) -> list[str]:
    if all(isinstance(t, str) for t in tokens):
        return list(tokens)
    if spec.vocab is None:
        raise ParameterError("mapping token ids to words requires a vocabulary")
    return spec.vocab.decode(tokens)


def _scale_by_brevity(cost: float, candidate_length: int, spec: SimilaritySpec) -> float:
    penalty = bp_t(candidate_length, spec.max_length)
    return cost / penalty if spec.bp_mode == BP_DIVIDE else cost * penalty


def dissimilarity(y_n: Sequence, y_r: Sequence, spec: SimilaritySpec) -> float:
    """Dissimilarity d >= 0 that agreement decoding minimizes.

    bleu_t: d = 1 - bleu_t(y_n, y_r).  wmd_t: d = wmd / bp_t(|y_n|, T) by
    default, so short candidates incur larger dissimilarity; the multiply
    mode implements the literal product d = wmd * bp_t instead.  Degenerate
    pairs (an empty side, or nothing left after WMD filtering) score +inf so
    the argmin skips them unless every pair is degenerate.
    """
    if not y_n or not y_r:
        return math.inf
    if spec.kind == BLEU_T:
        return 1.0 - bleu_t(y_n, y_r, spec)
    try:
        cost = wmd(_as_words(y_n, spec), _as_words(y_r, spec),
                   spec.embeddings, spec.stopwords)
    except DegeneratePairError:
        return math.inf
    return _scale_by_brevity(cost, len(y_n), spec)


def dissimilarity_lower_bound(y_n: Sequence, y_r: Sequence, spec: SimilaritySpec) -> float:
    """A cheap lower bound on ``dissimilarity(y_n, y_r, spec)`` that solves no LP.

    Degenerate pairs get +inf, which ``dissimilarity`` returns exactly;
    bleu_t gets the trivial bound 0; wmd_t gets the relaxed WMD scaled by
    the same brevity penalty.  Float rounding may put the bound a few ulps
    above the exact value where the two agree mathematically, so callers
    that prune on it must allow a small margin.
    """
    if not y_n or not y_r:
        return math.inf
    if spec.kind == BLEU_T:
        return 0.0
    try:
        problem = _transport_problem(_as_words(y_n, spec), _as_words(y_r, spec),
                                     spec.embeddings, spec.stopwords)
    except DegeneratePairError:
        return math.inf
    return _scale_by_brevity(_relaxed_wmd(problem), len(y_n), spec)
