"""Sentence-pair similarity measures for agreement-based decoding.

Two measures are provided: a sentence BLEU variant whose brevity penalty
treats the decoder's maximum length T as the reference length, and a Word
Mover's Distance over word embeddings.  Both are exposed through a single
``dissimilarity`` function that agreement decoding minimizes.

A WMD is a transportation problem whose marginals are word counts over
sentence lengths, so its optimum is an integral flow once both bags are
scaled to a common length.  ``wmd`` and ``dissimilarity`` solve it exactly
on those integer counts by successive shortest paths (``_transport``), in
Python; ``solve_transport`` runs the same solver on a problem's float
marginals.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from collections import Counter
from itertools import chain
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .beam import Memo, made
from .corpus import Vocabulary, numbered_lines, read_user_text
from .errors import DegeneratePairError, FormatError, ParameterError

log = logging.getLogger(__name__)

BLEU_T = "bleu_t"
WMD_T = "wmd_t"

BLEU_ORDER = 4

BP_DIVIDE = "divide"
BP_MULTIPLY = "multiply"


@dataclass(frozen=True, eq=False)
class SimilaritySpec:
    """Configuration of one similarity measure; it hashes by identity.

    ``embeddings``, ``stopwords`` and ``vocab`` are only consulted by the
    WMD measure; ``vocab`` maps token ids to words before embedding lookup.
    A WMD measure rejects a ``max_length`` T whose brevity penalty would
    make some d meaningless: every WMD cost is at most twice the largest
    vector norm and every candidate's penalty at least bp_t(1, T), so T is
    rejected when that penalty underflows to 0 or, in divide mode, when
    the largest cost divided by it overflows.
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
        if self.kind == WMD_T:
            if self.embeddings is None:
                raise ParameterError("the WMD measure requires an embedding table")
            penalty = bp_t(1, self.max_length)
            largest = 2 * self.embeddings.largest_norm()
            if penalty == 0.0 or self.bp_mode == BP_DIVIDE and not math.isfinite(largest / penalty):
                raise ParameterError(
                    f"maximum sentence length {self.max_length} is too large for the WMD measure: "
                    f"a one-token candidate's brevity penalty is {penalty!r}, so WMD costs up to "
                    f"{largest!r} would not scale to a finite, comparable dissimilarity"
                )


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


def geometric_mean(precisions: Sequence[float]) -> float:
    """Uniformly weighted geometric mean of n-gram precisions; 0 when any is 0."""
    if any(p == 0.0 for p in precisions):
        return 0.0
    return math.exp(sum(math.log(p) for p in precisions) / len(precisions))


def bleu4_from_counts(
    candidate_length: int, reference_length: int, matches: Sequence[int], totals: Sequence[int]
) -> float:
    """Sentence BLEU-4 from a pair's clipped counts: bp_t of the two lengths
    times the geometric mean of the smoothed precisions; 0 for an empty
    candidate."""
    if not candidate_length:
        return 0.0
    return bp_t(candidate_length, reference_length) * geometric_mean(
        smoothed_from_counts(matches, totals)
    )


def bleu_t(hypothesis: Sequence, reference: Sequence, spec: SimilaritySpec) -> float:
    """Sentence BLEU-4 with the decoder length limit as reference length.

    Equals bp_t(|hypothesis|, T) times the geometric mean of the smoothed
    modified n-gram precisions; always in [0, 1].
    """
    if not hypothesis or not reference:
        raise ParameterError("bleu_t requires non-empty sequences")
    counts = clip_counts(ngram_table(hypothesis), len(hypothesis), ngram_table(reference))
    return bleu4_from_counts(len(hypothesis), spec.max_length, *counts)


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

    def largest_norm(self) -> float:
        """The largest Euclidean norm of a vector; every WMD cost between two
        of the vectors is at most twice it."""
        return max(float(np.linalg.norm(v)) for v in self._vectors.values())

    def vector(self, word: str) -> np.ndarray:
        if word not in self._vectors:
            raise KeyError(f"word {word!r} has no embedding")
        return self._vectors[word]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse a text vector file: optional "count dim" header, then one
    "word v1 ... vd" line per word.  Duplicate words keep the first entry.
    A header must state the number of vector lines and their dimension."""
    vectors: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    lines = list(numbered_lines(read_user_text(path)))
    head = lines[0][1].split()
    header = None
    if len(head) == 2:
        try:
            header = int(head[0]), int(head[1])
            lines = lines[1:]
        except ValueError:
            pass
    rows = 0
    for lineno, line in lines:
        if not line.strip():
            continue
        rows += 1
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
    if header is not None and header != (rows, dimension):
        raise FormatError(f"{path}: line 1: header declares {header[0]} vectors of dimension "
                          f"{header[1]}, but the file holds {rows} of dimension {dimension}")
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
    """A balanced transportation problem: finite, non-negative weights and
    costs, and both marginals sum to 1 and agree, within 1e-9."""

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
        if not all(np.isfinite(a).all() for a in (supply, demand, cost)):
            raise ParameterError("weights and costs must be finite")
        if (supply < 0).any() or (demand < 0).any():
            raise ParameterError("weights must be non-negative")
        if (cost < 0).any():
            raise ParameterError("costs must be non-negative")
        supplied, demanded = supply.sum(), demand.sum()
        if max(abs(supplied - 1.0), abs(demanded - 1.0), abs(supplied - demanded)) > 1e-9:
            raise ParameterError("supply and demand weights must each sum to 1 and agree, within 1e-9")


def solve_transport(problem: TransportProblem) -> tuple[np.ndarray, float]:
    """Exactly solve the balanced transportation problem by ``_transport``,
    the solver of every WMD, on its float marginals: an optimal flow matrix
    and its total cost, recomputed from the flow.  Where the totals differ,
    the smaller side's weights are all sent and the other keeps the rest."""
    flow = np.array(_transport(problem.supply.tolist(), problem.demand.tolist(),
                               problem.cost.tolist()), dtype=float)
    return flow, float(np.sum(flow * problem.cost))


def _bag_of_words(words: Sequence[str]) -> tuple[list[str], list[int]]:
    counts = Counter(words)
    unique = sorted(counts)
    return unique, [counts[w] for w in unique]


class _Bags(NamedTuple):
    """A WMD pair's Euclidean cost matrix and the two bags' word counts."""

    cost: np.ndarray
    supply_counts: list[int]
    demand_counts: list[int]


def _transport_problem(
    x: Sequence[str],
    y: Sequence[str],
    table: EmbeddingTable,
    stopwords: frozenset[str],
) -> _Bags:
    """Filter stopwords and words without embeddings, then count each bag's
    words and build the Euclidean cost matrix of the pair."""
    kept_x = [w for w in x if w not in stopwords and w in table]
    kept_y = [w for w in y if w not in stopwords and w in table]
    dropped = (len(x) - len(kept_x)) + (len(y) - len(kept_y))
    if dropped:
        log.debug("wmd dropped %d stopword/out-of-vocabulary tokens", dropped)
    if not kept_x or not kept_y:
        raise DegeneratePairError("a side is empty after stopword/OOV filtering")
    words_x, counts_x = _bag_of_words(kept_x)
    words_y, counts_y = _bag_of_words(kept_y)
    points_x = np.stack([table.vector(w) for w in words_x])
    points_y = np.stack([table.vector(w) for w in words_y])
    deltas = points_x[:, None, :] - points_y[None, :, :]
    return _Bags(np.sqrt((deltas**2).sum(axis=2)), counts_x, counts_y)


def _transport(left: list, need: list, cost: list[list[float]]) -> list[list]:
    """An optimal flow from supplies ``left`` to demands ``need``, which it
    uses up, by successive shortest paths.

    Each round runs Dijkstra on reduced costs over the m x n residual graph,
    from every row with supply left to the nearest column with demand left,
    and sends along that path all the flow it carries.  The node potentials
    then rise by the distances found, which keeps every residual reduced
    cost non-negative.  The amounts may be integers or floats: each round
    sends the least of a row's supply, a column's demand and the flows it
    cancels, and subtracting a value from itself leaves exactly 0, so each
    round empties a row, fills a column or cancels a flow.  The rounds end
    when either side has nothing left.
    """
    m, n = len(left), len(need)
    cols = range(m, m + n)  # rows are nodes 0 .. m-1, columns the next n
    flow = [[0] * n for _ in range(m)]
    carriers = [[] for _ in range(n)]  # the rows that send flow to each column
    potential = [0.0] * (m + n)
    while any(left) and any(need):
        distance = [0.0 if supply else math.inf for supply in left] + [math.inf] * n
        via = [-1] * (m + n)
        heap = [(0.0, i) for i in range(m) if left[i]]
        done = set()
        while True:
            reach, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node < m:
                arcs = zip(cols, cost[node])
            elif need[node - m]:
                break
            else:
                arcs = ((i, -cost[i][node - m]) for i in carriers[node - m])
            base = reach + potential[node]
            for v, c in arcs:
                step = base + c - potential[v]
                if step < distance[v] and v not in done:
                    distance[v], via[v] = step, node
                    heapq.heappush(heap, (step, v))
        for v, d in enumerate(distance):
            potential[v] += min(d, reach)
        end = node - m
        path, amount, j = [], need[end], end
        while True:
            i = via[m + j]
            path.append((i, j, 1))
            if via[i] < 0:
                break
            j = via[i] - m
            path.append((i, j, -1))
            amount = min(amount, flow[i][j])
        amount = min(amount, left[i])
        left[i] -= amount
        need[end] -= amount
        for i, j, sign in path:
            if not flow[i][j]:
                carriers[j].append(i)
            flow[i][j] += sign * amount
            if not flow[i][j]:
                carriers[j].remove(i)
    return flow


def _path_transport(bags: _Bags) -> float:
    """The pair's exact WMD: ``_transport`` on both bags' counts scaled to
    L = lcm(|x|, |y|) tokens, where an optimal flow is integral and the
    number of rounds does not grow with L; sum(flow * cost) / L."""
    size_x, size_y = sum(bags.supply_counts), sum(bags.demand_counts)
    scale = math.lcm(size_x, size_y)
    cost = bags.cost.tolist()
    flow = _transport([c * (scale // size_x) for c in bags.supply_counts],
                      [c * (scale // size_y) for c in bags.demand_counts], cost)
    return math.fsum(f * c for fs, cs in zip(flow, cost) for f, c in zip(fs, cs) if f) / scale


def wmd(
    x: Sequence[str],
    y: Sequence[str],
    table: EmbeddingTable,
    stopwords: frozenset[str] = frozenset(),
) -> float:
    """Word Mover's Distance between two sentences.

    Stopwords and words without embeddings are dropped first; if either side
    becomes empty the pair is degenerate and cannot be compared.  This is
    exactly the raw distance ``dissimilarity`` uses (``_raw_wmd``).
    """
    return _path_transport(_transport_problem(x, y, table, stopwords))


def _relaxed_wmd(bags: _Bags) -> float:
    """The relaxed WMD lower bound of Kusner et al. (2015): the larger of the
    two costs obtained by dropping one marginal constraint, each word then
    moving all its mass to its nearest word on the other side."""
    to_y = float(np.divide(bags.supply_counts, sum(bags.supply_counts)) @ bags.cost.min(axis=1))
    to_x = float(np.divide(bags.demand_counts, sum(bags.demand_counts)) @ bags.cost.min(axis=0))
    return max(to_y, to_x)


def _as_words(tokens: Sequence, spec: SimilaritySpec) -> list[str]:
    if all(isinstance(t, str) for t in tokens):
        return list(tokens)
    if spec.vocab is None:
        raise ParameterError("mapping token ids to words requires a vocabulary")
    return spec.vocab.decode(tokens)


def _scale_by_brevity(cost: float, candidate_length: int, spec: SimilaritySpec) -> float:
    # Every penalty of a WMD measure is positive, so a degenerate pair's
    # +inf stays +inf.
    penalty = bp_t(candidate_length, spec.max_length)
    return cost / penalty if spec.bp_mode == BP_DIVIDE else cost * penalty


def _problem(
    y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None
) -> Optional[_Bags]:
    """The WMD pair's ``_Bags``; None when the pair is degenerate."""
    try:
        return _transport_problem(_as_words(y_n, spec), _as_words(y_r, spec),
                                  spec.embeddings, spec.stopwords)
    except DegeneratePairError:
        return None


def _raw_wmd(y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None) -> float:
    """The WMD pair's exact distance before ``bp_t``, the value ``wmd``
    returns (``_path_transport``); +inf when degenerate."""
    bags = made(memo, _problem, y_n, y_r, spec)
    return math.inf if bags is None else _path_transport(bags)


def _raw_bound(y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None) -> float:
    """The WMD pair's relaxed distance before ``bp_t``; +inf when degenerate."""
    bags = made(memo, _problem, y_n, y_r, spec)
    return math.inf if bags is None else _relaxed_wmd(bags)


def _bleu_similarity(
    y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None
) -> float:
    return bleu_t(y_n, y_r, spec)


def dissimilarity(
    y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None = None
) -> float:
    """Dissimilarity d >= 0 that agreement decoding minimizes.

    bleu_t: d = 1 - bleu_t(y_n, y_r).  wmd_t: d = wmd / bp_t(|y_n|, T) by
    default, so short candidates incur larger dissimilarity; the multiply
    mode implements the literal product d = wmd * bp_t instead.  Degenerate
    pairs (an empty side, or nothing left after WMD filtering) score +inf so
    the argmin skips them unless every pair is degenerate.  A WMD pair's
    raw distance is the exact optimum on the bags' integer counts
    (``_raw_wmd``), which is what ``wmd`` returns.  With a memo,
    a BLEU-T pair's bleu_t and a WMD pair's raw distance are computed once
    per memo (see ``beam.Memo``).
    """
    if not y_n or not y_r:
        return math.inf
    if spec.kind == BLEU_T:
        return 1.0 - made(memo, _bleu_similarity, tuple(y_n), tuple(y_r), spec)
    cost = made(memo, _raw_wmd, tuple(y_n), tuple(y_r), spec)
    return _scale_by_brevity(cost, len(y_n), spec)


def dissimilarity_lower_bound(
    y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None = None
) -> float:
    """A cheap lower bound on ``dissimilarity(y_n, y_r, spec)`` that solves
    no transport problem.

    Degenerate pairs get +inf, which ``dissimilarity`` returns exactly;
    bleu_t gets the trivial bound 0; wmd_t gets the relaxed WMD scaled by
    the same brevity penalty.  Float rounding may put the bound a few ulps
    above the exact value where the two agree mathematically, so callers
    that prune on it must allow a small margin.  With a memo, the pair's
    transport problem is the one ``dissimilarity`` solves, and its relaxed
    WMD is computed once per memo.
    """
    if not y_n or not y_r:
        return math.inf
    if spec.kind == BLEU_T:
        return 0.0
    bound = made(memo, _raw_bound, tuple(y_n), tuple(y_r), spec)
    return _scale_by_brevity(bound, len(y_n), spec)


def tie_break(
    y_n: Sequence, y_r: Sequence, spec: SimilaritySpec, memo: Memo | None = None
) -> float:
    """Orders pairs of equal ``dissimilarity``, the lower first.

    bleu_t: -bleu_t, since d = 1 - bleu_t rounds to 1.0 for every pair whose
    brevity penalty falls below 2**-53 (a large T), while their bleu_t still
    differ; with a memo this reads the value ``dissimilarity`` stored.
    wmd_t, and degenerate pairs: 0.0.
    """
    if spec.kind == BLEU_T and y_n and y_r:
        return -made(memo, _bleu_similarity, tuple(y_n), tuple(y_r), spec)
    return 0.0
