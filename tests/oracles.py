"""Independent oracles the tests compare the library against.

Everything here is written from the defining formulas, on purpose without
reusing the library's helpers: n-gram counting one position at a time,
exhaustive decode enumeration, corpus reading one line and one field at a
time with a tokenizing regex, a transportation-polytope vertex solver over
exact rationals, transport LPs solved by scipy's HiGHS, and from-scratch
sentence similarity used to cross-check agreement decoding.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np

BOS, EOS, SEP = 0, 1, 2


def oracle_length_penalty(length: int, alpha: float) -> float:
    return (5.0 + length) ** alpha / 6.0**alpha


def exhaustive_best(model, source, v: int, t: int, alpha: float):
    """Global argmax of logprob/lp over every decodable sequence.

    Candidates are all EOS-terminated sequences of length <= t plus all
    EOS-free sequences of exactly length t.  Log-probabilities accumulate
    left to right in the same order as any chain-rule evaluation, so float
    results are directly comparable.  Ties prefer the smaller token tuple.
    """
    best_score = -math.inf
    best_tokens: tuple[int, ...] | None = None

    def consider(tokens: tuple[int, ...], logprob: float) -> None:
        nonlocal best_score, best_tokens
        score = logprob / oracle_length_penalty(len(tokens), alpha)
        if score > best_score or (score == best_score and tokens < best_tokens):
            best_score = score
            best_tokens = tokens

    def expand(prefix: tuple[int, ...], logprob: float) -> None:
        logprobs = model.next_token_logprobs(source, prefix)
        for token in range(v):
            child_logprob = logprob + float(logprobs[token])
            child = prefix + (token,)
            if token == EOS:
                consider(child, child_logprob)
            elif len(child) == t:
                consider(child, child_logprob)
            else:
                expand(child, child_logprob)

    expand((), 0.0)
    return best_tokens, best_score


def reference_vbs(model, source, v: int, b: int, t: int, alpha: float):
    """Beam search by scoring and sorting every one of the B x V candidates.

    Each step builds every child of every alive prefix, sorts all of them by
    (-score, tokens), sets aside the finished ones ranked inside the top b
    and keeps the b best unfinished ones.  Returns the final beam as
    (tokens, logprob, finished) triples in score order, their scores, the
    expansion count and the (step, pool size) sort events.
    """
    alive = [((), 0.0)]
    finished = []
    expansions = 0
    sort_events = []
    step = 0
    while alive and len(finished) < b and step < t:
        step += 1
        candidates = []
        for tokens, logprob in alive:
            logprobs = model.next_token_logprobs(source, tokens)
            expansions += v
            for token in range(v):
                child_logprob = logprob + float(logprobs[token])
                score = child_logprob / oracle_length_penalty(step, alpha)
                candidates.append((-score, tokens + (token,), child_logprob))
        sort_events.append((step, len(candidates)))
        candidates.sort(key=lambda c: (c[0], c[1]))
        for _, tokens, logprob in candidates[:b]:
            if tokens[-1] == EOS and len(finished) < b:
                finished.append((tokens, logprob, True))
        alive = [(tokens, logprob) for _, tokens, logprob in candidates
                 if tokens[-1] != EOS][:b]
    beam = finished + [(tokens, logprob, False) for tokens, logprob in alive]
    beam = beam[:b]
    scored = [
        (logprob / oracle_length_penalty(len(tokens), alpha), (tokens, logprob, done))
        for tokens, logprob, done in beam
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1][0]))
    return SimpleNamespace(
        beam=[hyp for _, hyp in scored],
        scores=[score for score, _ in scored],
        expansions=expansions,
        sort_events=sort_events,
    )


_TOKEN_RE = re.compile(r"[.!?,']|[^\s.!?,']+")
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")
_MARKERS = ("<bos>", "<eos>", "<sep>", "<unk>")


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase, then every . ! ? , ' alone and every run of other
    non-whitespace characters is a token."""
    return _TOKEN_RE.findall(text.lower())


def oracle_load_corpus(text: str, fmt: str):
    """The (source, target) token lists of a corpus text, read one line and
    one field at a time, or the message of its first bad line (without the
    file name) as a string.  Lines end at \\n, \\r\\n or \\r."""
    pairs = []
    for lineno, line in enumerate(_LINE_BREAK_RE.split(text), start=1):
        if not line.strip():
            continue
        if fmt == "tsv":
            if line.count("\t") != 1:
                return f"line {lineno}: expected exactly one TAB"
            fields = line.split("\t")
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                return f"line {lineno}: bad JSON ({exc.msg})"
            if not isinstance(record, dict) or "source" not in record or "target" not in record:
                return f"line {lineno}: expected fields 'source' and 'target'"
            fields = [record["source"], record["target"]]
            for name, field in zip(("source", "target"), fields):
                if not isinstance(field, str):
                    return f"line {lineno}: field {name!r} must be a string"
        source, target = (oracle_tokenize(field) for field in fields)
        if not source or not target:
            return f"line {lineno}: empty source or target field"
        for word in source + target:
            if word in _MARKERS:
                return f"line {lineno}: reserved marker {word!r} in corpus text"
        pairs.append((source, target))
    return pairs or "corpus file contains no pairs"


def reference_ngram_counts(pairs, order: int, direction: str) -> dict:
    """Every order's ``{context: {token: count}}`` table, counted one stream
    position and one order at a time.

    Each pair makes the stream [BOS, source..., SEP, target'..., EOS], where
    target' is reversed for the "reverse" direction.  Only positions after
    SEP are predicted; order o's context is the o - 1 tokens before the
    position, or all of them near the stream's start.
    """
    counts = {o: {} for o in range(1, order + 1)}
    for pair in pairs:
        target = pair.target[::-1] if direction == "reverse" else pair.target
        stream = (BOS, *pair.source, SEP, *target, EOS)
        for i in range(2 + len(pair.source), len(stream)):
            for o in range(1, order + 1):
                bucket = counts[o].setdefault(stream[max(0, i - (o - 1)):i], {})
                bucket[stream[i]] = bucket.get(stream[i], 0) + 1
    return counts


def reference_model_file(counts, order: int, direction: str, v: int, weights, k: float) -> str:
    """A model file in format version 1: compact JSON, contexts and tokens
    in ascending (tuple) order."""
    payload = {
        "format_version": 1,
        "order": order,
        "direction": direction,
        "vocab_size": v,
        "weights": [float(w) for w in weights],
        "k": float(k),
        "counts": [
            [o, [[list(ctx), sorted(bucket.items())] for ctx, bucket in sorted(counts[o].items())]]
            for o in sorted(counts)
        ],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def oracle_ngram_logprobs(counts, order: int, weights, k: float, v: int,
                          source, prefix) -> np.ndarray:
    """Interpolated add-k n-gram row computed afresh from the count tables.

    Orders are added from 1 up, each as a flat add-k share followed by the
    observed counts, so the floats match any implementation of the same
    formula that adds in the same order.
    """
    stream = (BOS, *source, SEP, *prefix)
    probs = np.zeros(v)
    for o in range(1, order + 1):
        ctx = stream[max(0, len(stream) - (o - 1)):] if o > 1 else ()
        bucket = counts[o].get(ctx, {})
        denom = sum(bucket.values()) + k * v
        probs += weights[o - 1] * (k / denom)
        for token, count in bucket.items():
            probs[token] += weights[o - 1] * count / denom
    return np.log(probs)


def _tree_flow(
    edges: Sequence[tuple[int, int]],
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
) -> dict[tuple[int, int], Fraction] | None:
    """Unique flow on a spanning tree of the bipartite transport graph.

    Nodes 0..m-1 are supplies, m..m+n-1 demands.  Returns None when the
    balance forces a negative flow (infeasible basis).
    """
    m = len(supply)
    balance = {i: supply[i] for i in range(m)}
    balance.update({m + j: -demand[j] for j in range(len(demand))})
    remaining = {node: [] for node in balance}
    for edge in edges:
        i, j = edge
        remaining[i].append(edge)
        remaining[m + j].append(edge)
    flow: dict[tuple[int, int], Fraction] = {}
    leaves = [node for node, incident in remaining.items() if len(incident) == 1]
    while leaves:
        node = leaves.pop()
        if not remaining[node]:
            continue
        edge = remaining[node][0]
        i, j = edge
        # Supply nodes carry +residual, demand nodes -residual; the leaf's
        # whole residual moves over its only edge either way.
        flow[edge] = balance[node] if node < m else -balance[node]
        other = m + j if node < m else i
        balance[other] += balance[node]
        balance[node] = Fraction(0)
        remaining[other].remove(edge)
        remaining[node] = []
        if len(remaining[other]) == 1:
            leaves.append(other)
    if any(value < 0 for value in flow.values()):
        return None
    return flow


def _spanning_trees(m: int, n: int):
    """All spanning trees of the complete bipartite graph K_{m,n}."""
    nodes = m + n
    all_edges = [(i, j) for i in range(m) for j in range(n)]
    for edges in itertools.combinations(all_edges, nodes - 1):
        parent = list(range(nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in edges:
            a, b = find(i), find(m + j)
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            yield edges


def vertex_transport_cost(
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    cost: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Exact optimum of the balanced transportation problem.

    Every vertex of the feasible polytope is supported on a spanning tree
    of K_{m,n}; enumerate them all, solve each tree's unique flow and keep
    the cheapest feasible one.
    """
    best: Fraction | None = None
    for edges in _spanning_trees(len(supply), len(demand)):
        flow = _tree_flow(edges, supply, demand)
        if flow is None:
            continue
        total = sum((amount * cost[i][j] for (i, j), amount in flow.items()), Fraction(0))
        if best is None or total < best:
            best = total
    assert best is not None, "balanced problems always admit a tree solution"
    return best


def highs_transport(problem) -> tuple[np.ndarray, float]:
    """A transportation problem solved as an LP by scipy's HiGHS, with all
    m + n marginal equalities; the cost is recomputed from the returned
    vertex flow.  HiGHS stops at absolute tolerances, so where costs are
    tiny or nearly tie its cost can lie above the exact optimum."""
    from scipy.optimize import linprog

    supply, demand, cost = problem.supply, problem.demand, problem.cost
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    result = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    flow = np.maximum(result.x.reshape(m, n), 0.0)
    return flow, float(np.sum(flow * cost))


def oracle_bp_t(length: int, t: int) -> float:
    return min(1.0, math.exp(1.0 - t / length))


def oracle_bleu_t(hyp: Sequence, ref: Sequence, t: int) -> float:
    """Length-limit BLEU-4 recomputed directly from its definition."""
    matches = []
    totals = []
    for n in range(1, 5):
        hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum(min(c, ref_grams[g]) for g, c in hyp_grams.items()))
        totals.append(sum(hyp_grams.values()))
    smooth = any(m == 0 and tot > 0 for m, tot in zip(matches, totals))
    log_sum = 0.0
    for n, (m, tot) in enumerate(zip(matches, totals), start=1):
        if n >= 2 and smooth:
            p = (m + 1) / (tot + 1)
        elif tot == 0:
            p = 1.0
        else:
            p = m / tot
        if p == 0.0:
            return 0.0
        log_sum += 0.25 * math.log(p)
    return oracle_bp_t(len(hyp), t) * math.exp(log_sum)


def oracle_sentence_bleu4(cand: Sequence, ref: Sequence) -> float:
    """Sentence BLEU-4 with the standard brevity penalty, from scratch."""
    if not cand:
        return 0.0
    matches = []
    totals = []
    for n in range(1, 5):
        cand_grams = Counter(
            tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)
        )
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum(min(c, ref_grams[g]) for g, c in cand_grams.items()))
        totals.append(sum(cand_grams.values()))
    smooth = any(m == 0 and tot > 0 for m, tot in zip(matches, totals))
    log_sum = 0.0
    for n, (m, tot) in enumerate(zip(matches, totals), start=1):
        if n >= 2 and smooth:
            p = (m + 1) / (tot + 1)
        elif tot == 0:
            p = 1.0
        else:
            p = m / tot
        if p == 0.0:
            return 0.0
        log_sum += 0.25 * math.log(p)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return bp * math.exp(log_sum)


def oracle_corpus_bleu4(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Micro-averaged corpus BLEU-4 on the 0..100 scale, from scratch.

    Clipped matches and candidate n-gram totals are summed over the corpus
    for each order; an order with no candidate n-grams anywhere is skipped.
    """
    matches = [0] * 4
    totals = [0] * 4
    cand_length = ref_length = 0
    for cand, ref in pairs:
        for n in range(1, 5):
            cand_grams = Counter(
                tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)
            )
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            matches[n - 1] += sum(min(c, ref_grams[g]) for g, c in cand_grams.items())
            totals[n - 1] += sum(cand_grams.values())
        cand_length += len(cand)
        ref_length += len(ref)
    if cand_length == 0:
        return 0.0
    log_mean = 0.0
    for m, tot in zip(matches, totals):
        if tot == 0:
            continue
        if m == 0:
            return 0.0
        log_mean += math.log(m / tot) / 4
    bp = min(1.0, math.exp(1.0 - ref_length / cand_length))
    return 100.0 * bp * math.exp(log_mean)


def oracle_clipped_precision_counts(hyp: Sequence, ref: Sequence) -> tuple[list[int], list[int]]:
    """Per-order clipped matches and hypothesis n-gram totals, one pair of
    Counters per order."""
    matches = []
    totals = []
    for n in range(1, 5):
        hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum(min(c, ref_grams[g]) for g, c in hyp_grams.items()))
        totals.append(max(0, len(hyp) - n + 1))
    return matches, totals


def oracle_best_hypothesis(cores: Sequence[Sequence], ref: Sequence) -> int:
    """1-based rank of the EOS-stripped beam member with the highest
    sentence BLEU-4; ties keep the lowest rank."""
    scores = [oracle_sentence_bleu4(core, ref) for core in cores]
    return max(range(len(cores)), key=lambda i: (scores[i], -i)) + 1


def oracle_select_lambda(regular, reverse, validation, search, grid) -> float:
    """The weight of ``grid`` whose re-ranked validation selections score
    the highest corpus BLEU-4 on ``oracle_lambda_curve``; ties keep the
    smallest weight, and an empty split takes the smallest weight."""
    curve = oracle_lambda_curve(regular, reverse, validation, search, grid)
    best_lambda, best_bleu = min(grid), -1.0
    for lam, bleu in curve:
        if bleu > best_bleu:
            best_lambda, best_bleu = lam, bleu
    return best_lambda


def oracle_lambda_curve(regular, reverse, validation, search, grid) -> list[tuple[float, float]]:
    """(weight, corpus BLEU-4 of its re-ranked validation selections) for
    each weight of ``grid`` in ascending order, every weight scored from
    scratch; empty for an empty split.

    Each beam comes from ``reference_vbs``.  A member's two terms are its
    regular log-probability and the reverse model's chain-rule sum over its
    reversed core plus EOS, each over the member's own length penalty; the
    weight w selects the member of highest term1 + w * term2, ties by
    tokens.
    """
    if not validation:
        return []
    b, t, alpha = search.beam_size, search.max_length, search.alpha
    beams = []
    for pair in validation:
        members = []
        for tokens, logprob, finished in reference_vbs(
                regular, pair.source, regular.vocab.size, b, t, alpha).beam:
            core = tokens[:-1] if finished else tokens
            backward = tuple(reversed(core)) + (EOS,)
            reverse_logprob = 0.0
            for i, token in enumerate(backward):
                reverse_logprob += float(reverse.next_token_logprobs(pair.source, backward[:i])[token])
            lp = oracle_length_penalty(len(tokens), alpha)
            members.append((tokens, core, logprob / lp, reverse_logprob / lp))
        beams.append((pair.target, members))
    curve = []
    for lam in sorted(grid):
        selections = []
        for target, members in beams:
            pick = min(members, key=lambda m: (-(m[2] + lam * m[3]), m[0]))
            selections.append((pick[1], target))
        curve.append((lam, oracle_corpus_bleu4(selections)))
    return curve


def oracle_word_position_frequency(
    pairs, vocab, position: int, order: str = "regular", top_k: int = 50
) -> list[tuple[str, int]]:
    """Target words at ``position`` from the start (or, reversed, the end),
    looked up one pair at a time; descending count, then the word."""
    counts: Counter[str] = Counter()
    for pair in pairs:
        target = pair.target if order == "regular" else tuple(reversed(pair.target))
        if len(target) >= position:
            counts[vocab.surface_for(target[position - 1])] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]


def oracle_wmd(
    x_words: Sequence[str],
    y_words: Sequence[str],
    vectors: dict[str, np.ndarray],
    stopwords: frozenset[str],
) -> float | None:
    """From-scratch word mover's distance; None flags a degenerate pair.

    The transport LP keeps only m+n-1 independent equalities (the last
    demand row is redundant), a deliberately different formulation from
    the library's.
    """
    from scipy.optimize import linprog

    x_kept = [w for w in x_words if w not in stopwords and w in vectors]
    y_kept = [w for w in y_words if w not in stopwords and w in vectors]
    if not x_kept or not y_kept:
        return None
    x_unique = sorted(set(x_kept))
    y_unique = sorted(set(y_kept))
    x_weights = np.array([x_kept.count(w) / len(x_kept) for w in x_unique])
    y_weights = np.array([y_kept.count(w) / len(y_kept) for w in y_unique])
    m, n = len(x_unique), len(y_unique)
    cost = np.array(
        [
            [float(np.linalg.norm(vectors[a] - vectors[b])) for b in y_unique]
            for a in x_unique
        ]
    )
    rows = []
    rhs = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        rows.append(row)
        rhs.append(x_weights[i])
    for j in range(n - 1):
        row = np.zeros(m * n)
        row[j::n] = 1.0
        rows.append(row)
        rhs.append(y_weights[j])
    result = linprog(
        cost.reshape(-1), A_eq=np.array(rows), b_eq=np.array(rhs), method="highs"
    )
    assert result.status == 0, result.message
    return float(result.fun)


def oracle_dissimilarity_bleu(y_n: Sequence, y_r: Sequence, t: int) -> float:
    if not y_n or not y_r:
        return math.inf
    return 1.0 - oracle_bleu_t(y_n, y_r, t)


def oracle_dissimilarity_wmd(
    y_n_words: Sequence[str],
    y_r_words: Sequence[str],
    vectors: dict[str, np.ndarray],
    stopwords: frozenset[str],
    t: int,
    bp_mode: str = "divide",
) -> float:
    if not y_n_words or not y_r_words:
        return math.inf
    cost = oracle_wmd(y_n_words, y_r_words, vectors, stopwords)
    if cost is None:
        return math.inf
    penalty = oracle_bp_t(len(y_n_words), t)
    return cost / penalty if bp_mode == "divide" else cost * penalty


def naive_agreement_argmin(
    regular_beam,
    reverse_beam,
    regular_scores: Sequence[float],
    dissimilarity,
    similarity=None,
) -> tuple[int, int, float]:
    """Double-loop argmin with the documented deterministic tie-break: the
    least d, then (given ``similarity``) the most similar pair, then the
    highest regular score, then the lowest i and j."""
    best = None
    best_key = None
    for i, hyp_n in enumerate(regular_beam):
        for j, hyp_r in enumerate(reverse_beam):
            d = dissimilarity(hyp_n, hyp_r)
            closeness = similarity(hyp_n, hyp_r) if similarity else 0.0
            key = (d, -closeness, -regular_scores[i], i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j, d)
    return best
