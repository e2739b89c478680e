"""Conditional language models over (source, target-prefix) contexts.

The concrete model is a smoothed n-gram trained on concatenated streams
[BOS, source..., SEP, target'..., EOS], where target' is the target as-is
for a regular-direction model and element-wise reversed for a reverse one.
Only positions after SEP are predicted; the source is context, never output.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from abc import ABC, abstractmethod
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import BOS_ID, EOS_ID, SEP_ID, SentencePair, Vocabulary, read_user_text, reverse_target
from .errors import (
    DirectionError,
    FormatError,
    ParameterError,
    VocabularyMismatchError,
)

REGULAR = "regular"
REVERSE = "reverse"

MODEL_FORMAT_VERSION = 1

DEFAULT_ORDER = 3
DEFAULT_WEIGHTS = (0.2, 0.3, 0.5)
DEFAULT_K = 0.1

# A model clears its row memo once it holds this many floats (32 MiB).
ROW_MEMO_FLOATS = 1 << 22


class LanguageModel(ABC):
    """Pure conditional scorer: next-token distributions given (source, prefix)."""

    direction: str
    vocab: Vocabulary

    @abstractmethod
    def next_token_logprobs(
        self, source: Sequence[int], prefix: Sequence[int]
    ) -> np.ndarray:
        """Length-V vector of log P(w | source, prefix); exps sum to 1."""

    def sequence_logprob(self, source: Sequence[int], target: Sequence[int]) -> float:
        """Chain-rule sum of per-step log-probabilities.

        The target must end with EOS and contain EOS exactly once.  The sum
        is accumulated left to right so that it is bit-identical to adding
        up individual next_token_logprobs lookups.
        """
        target = tuple(target)
        if not target or target[-1] != EOS_ID or target.count(EOS_ID) != 1:
            raise ParameterError("target must contain EOS exactly once, at the end")
        total = 0.0
        for t, token in enumerate(target):
            total += float(self.next_token_logprobs(source, target[:t])[token])
        return total


def _check_ids(vocab_size: int, ids: Sequence[int], what: str) -> None:
    for i in ids:
        if not 0 <= i < vocab_size:
            raise VocabularyMismatchError(
                f"{what} id {i} outside vocabulary of size {vocab_size}"
            )


# Count storage.  Order o's context at a predicted position is the last
# o - 1 stream tokens, or the whole stream so far when it is shorter.  Each
# context has an integer key: the row of its suffix among order o - 1's
# contexts, times V + 1, plus its first token + 1.  Its suffix drops that
# first token; a context shorter than o - 1 tokens starts at BOS, is its own
# suffix and adds 0.  Order 1's one context, (), has key 0.  A key thus stays
# below (order o - 1's context count) * (V + 1), which no corpus that fits in
# memory brings near 2**63 at any order, and a query finds its context's row
# order by order.


class _Counts(NamedTuple):
    """One order's counts, contexts sorted by key.

    The context in row ``i`` owns ``tokens[offsets[i]:offsets[i + 1]]``, each
    token once, with the parallel ``counts``; ``totals[i]`` is their sum (a
    float, exact below 2**53).
    """

    keys: np.ndarray
    offsets: np.ndarray
    tokens: np.ndarray
    counts: np.ndarray
    totals: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, rows: np.ndarray, tokens: np.ndarray,
              counts: np.ndarray) -> "_Counts":
        """From sorted context keys and (row, token, count) entries in row order."""
        n = len(keys)
        return cls(keys, np.searchsorted(rows, np.arange(n + 1)), tokens, counts,
                   np.bincount(rows, weights=counts, minlength=n))

    def find(self, key: int) -> int | None:
        """The row of the context with this key, or None if it is unseen."""
        keys = memoryview(self.keys)  # binary search over Python ints: no numpy call per probe
        row = bisect.bisect_left(keys, key)
        return row if row < len(keys) and keys[row] == key else None


class ConditionalNGramLM(LanguageModel):
    """Interpolated add-k n-gram model conditioned on the source sequence.

    Probabilities interpolate orders 1..n with fixed weights; add-k smoothing
    at every order guarantees strictly positive probability for all V ids.
    The counts of each order are held as sorted arrays (``_Counts``).
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        direction: str,
        weights: Sequence[float],
        k: float,
        tables: Sequence[_Counts],
    ):
        if order < 1:
            raise ParameterError("order must be >= 1")
        if direction not in (REGULAR, REVERSE):
            raise ParameterError(f"unknown direction {direction!r}")
        weights = tuple(float(w) for w in weights)
        if len(weights) != order:
            raise ParameterError("need exactly one interpolation weight per order")
        if any(w < 0 for w in weights):
            raise ParameterError("interpolation weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ParameterError("interpolation weights must sum to 1")
        if not k > 0:
            raise ParameterError("additive constant k must be positive")
        self.vocab = vocab
        self.order = order
        self.direction = direction
        self.weights = weights
        self.k = float(k)
        self._tables = tuple(tables)
        # Each order's terms of the row formula, computed once with the same
        # float operations: the flat add-k share after each context and
        # after an unseen one, and the share of each count.
        self._terms = []
        for weight, table in zip(weights, self._tables):
            denoms = table.totals + self.k * vocab.size
            self._terms.append((
                weight * (self.k / denoms),
                weight * (self.k / (0 + self.k * vocab.size)),
                weight * table.counts / np.repeat(denoms, np.diff(table.offsets)),
            ))
        # Order 1 conditions on the empty context for every query, and it is
        # the first term added, so each row starts from a copy of it.
        self._root = self._tables[0].find(0)
        self._unigram = np.zeros(vocab.size)
        self._add_order(self._unigram, 1, self._root)
        self._rows: dict[tuple[int, ...], np.ndarray] = {}

    @classmethod
    def from_counts(
        cls,
        vocab: Vocabulary,
        order: int,
        direction: str,
        weights: Sequence[float],
        k: float,
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]],
    ) -> "ConditionalNGramLM":
        """A model over ``{o: {context: {token: count}}}`` tables, one per order.

        Every context's suffix must be a context of the order below, as it is
        in every trained model and every model file that loads.
        """
        v = vocab.size
        tables = []
        rows = {(): 0}  # the contexts of the order below and their rows
        for o in range(1, order + 1):
            contexts = list(counts[o])
            keys = np.fromiter(
                (rows[ctx[1:]] * (v + 1) + ctx[0] + 1 if 0 < len(ctx) == o - 1 else rows[ctx] * (v + 1)
                 for ctx in contexts),
                np.int64, len(contexts),
            )
            by_key = np.argsort(keys)
            contexts = [contexts[i] for i in by_key.tolist()]
            rows = {ctx: row for row, ctx in enumerate(contexts)}
            buckets = [counts[o][ctx] for ctx in contexts]
            sizes = np.fromiter(map(len, buckets), np.int64, len(buckets))
            items = itertools.chain.from_iterable(bucket.items() for bucket in buckets)
            entries = np.fromiter(itertools.chain.from_iterable(items), np.int64).reshape(-1, 2)
            tables.append(_Counts.build(
                keys[by_key], np.repeat(np.arange(len(contexts)), sizes), entries[:, 0], entries[:, 1]))
        return cls(vocab, order, direction, weights, k, tables)

    @classmethod
    def train(
        cls,
        pairs: Sequence[SentencePair],
        vocab: Vocabulary,
        order: int = DEFAULT_ORDER,
        direction: str = REGULAR,
        weights: Sequence[float] = DEFAULT_WEIGHTS,
        k: float = DEFAULT_K,
    ) -> "ConditionalNGramLM":
        """Count every order's (context, token) windows over all streams at once."""
        if not pairs:
            raise ParameterError("cannot train on an empty corpus")
        streams = [
            (BOS_ID, *pair.source, SEP_ID,
             *(pair.target if direction == REGULAR else reverse_target(pair.target)), EOS_ID)
            for pair in pairs
        ]
        stream = np.fromiter(itertools.chain.from_iterable(streams), np.int64)
        v = vocab.size
        if stream.min() < 0 or stream.max() >= v:
            raise VocabularyMismatchError(f"training ids fall outside vocabulary of size {v}")
        lengths = np.fromiter(map(len, streams), np.int64, len(streams))
        # Each position's distance from its stream's BOS.  Only positions
        # after SEP are predicted.
        depth = np.arange(len(stream)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        first = np.fromiter((2 + len(pair.source) for pair in pairs), np.int64, len(pairs))
        at = np.flatnonzero(depth >= np.repeat(first, lengths))
        depth, token = depth[at], stream[at]
        tables = []
        keys = np.zeros(len(at), np.int64)
        for o in range(1, order + 1):
            if o > 1:
                keys = rows * (v + 1)
                full = depth >= o - 1
                keys[full] += stream[at[full] - (o - 1)] + 1
            contexts, rows = np.unique(keys, return_inverse=True)
            entries, counts = np.unique(rows * v + token, return_counts=True)
            tables.append(_Counts.build(contexts, entries // v, entries % v, counts))
        return cls(vocab, order, direction, weights, k, tables)

    def next_token_logprobs(
        self, source: Sequence[int], prefix: Sequence[int]
    ) -> np.ndarray:
        """Read-only log-probability row, memoised on the model.

        Every order's context is a suffix of the last ``order - 1`` stream
        tokens, so those tokens key the memo.
        """
        if EOS_ID in prefix:
            raise ParameterError("prefix must not contain EOS")
        v = self.vocab.size
        _check_ids(v, source, "source")
        _check_ids(v, prefix, "prefix")
        stream = (BOS_ID,) + tuple(source) + (SEP_ID,) + tuple(prefix)
        key = stream[max(0, len(stream) - (self.order - 1)) :]
        row = self._rows.get(key)
        if row is None:
            probs = self._unigram.copy()
            found = self._root
            for o in range(2, self.order + 1):
                # An unseen context has no seen extension at a higher order.
                if found is not None:
                    first = len(key) - (o - 1)
                    head = key[first] + 1 if first >= 0 else 0
                    found = self._tables[o - 1].find(found * (v + 1) + head)
                self._add_order(probs, o, found)
            row = np.log(probs)
            row.flags.writeable = False
            if len(self._rows) * v >= ROW_MEMO_FLOATS:
                self._rows.clear()
            self._rows[key] = row
        return row

    def _add_order(self, probs: np.ndarray, o: int, found: int | None) -> None:
        """Add order ``o``'s weighted add-k probabilities after the context in
        row ``found`` (None: an unseen context) in place."""
        shares, unseen, gains = self._terms[o - 1]
        if found is None:
            probs += unseen
            return
        probs += shares[found]
        table = self._tables[o - 1]
        start, stop = table.offsets[found], table.offsets[found + 1]
        probs[table.tokens[start:stop]] += gains[start:stop]

    def count_table(self, o: int) -> dict[tuple[int, ...], dict[int, int]]:
        """Order ``o``'s counts as a fresh ``{context: {token: count}}`` dict."""
        contexts = [()]
        for table in self._tables[:o]:
            parents, heads = np.divmod(table.keys, self.vocab.size + 1)
            contexts = [(head - 1, *contexts[parent]) if head else contexts[parent]
                        for parent, head in zip(parents.tolist(), heads.tolist())]
        table = self._tables[o - 1]
        offsets, tokens, counts = table.offsets.tolist(), table.tokens.tolist(), table.counts.tolist()
        return {ctx: dict(zip(tokens[start:stop], counts[start:stop]))
                for ctx, start, stop in zip(contexts, offsets, offsets[1:])}

    def save(self, path: str | Path) -> None:
        """Write a canonical JSON dump; counts are sorted so reruns are bit-identical."""
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "order": self.order,
            "direction": self.direction,
            "vocab_size": self.vocab.size,
            "weights": list(self.weights),
            "k": self.k,
            "counts": [
                [
                    o,
                    [
                        [list(ctx), sorted(bucket.items())]
                        for ctx, bucket in sorted(self.count_table(o).items())
                    ],
                ]
                for o in range(1, self.order + 1)
            ],
        }
        Path(path).write_text(
            json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "ConditionalNGramLM":
        """Read a model written by ``save``; any schema fault is a FormatError
        that names the file and the key."""
        try:
            payload = json.loads(read_user_text(path))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not a valid model file ({exc.msg})") from None
        if not isinstance(payload, dict) or payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported model format version")
        for key, kind, valid in _MODEL_KEYS:
            if key not in payload:
                raise FormatError(f"{path}: key {key!r} is missing")
            if not valid(payload[key]):
                raise FormatError(f"{path}: key {key!r} must be {kind}")
        if payload["vocab_size"] != vocab.size:
            raise VocabularyMismatchError(
                f"{path}: model was trained with vocabulary size "
                f"{payload['vocab_size']}, got {vocab.size}"
            )
        counts = _parse_counts(path, payload["counts"], payload["order"], vocab.size)
        try:
            return cls.from_counts(
                vocab,
                payload["order"],
                payload["direction"],
                payload["weights"],
                payload["k"],
                counts,
            )
        except ParameterError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _is_pair(value: object) -> bool:
    return isinstance(value, list) and len(value) == 2


# The keys of a model file besides format_version: name, type, check.
_MODEL_KEYS = (
    ("order", "an integer >= 1", lambda x: _is_int(x) and x >= 1),
    ("direction", "a string", lambda x: isinstance(x, str)),
    ("vocab_size", "an integer", _is_int),
    ("weights", "a list of finite numbers",
     lambda x: isinstance(x, list) and all(map(_is_finite_number, x))),
    ("k", "a finite number", _is_finite_number),
    ("counts", "a list", lambda x: isinstance(x, list)),
)


def _parse_counts(
    path: str | Path, tables: list, order: int, v: int
) -> dict[int, dict[tuple[int, ...], dict[int, int]]]:
    """The count tables of a model file: one per order 1..order, contexts of
    at most o - 1 ids whose suffixes are contexts of the order below, and
    non-negative integer counts summing below 2**53 per context, all ids
    below V."""

    def fail(message: str) -> FormatError:
        return FormatError(f"{path}: key 'counts': {message}")

    def is_id(value: object) -> bool:
        return _is_int(value) and 0 <= value < v

    counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {}
    for entry in tables:
        if not (_is_pair(entry) and _is_int(entry[0]) and isinstance(entry[1], list)
                and 1 <= entry[0] <= order and entry[0] not in counts):
            raise fail(f"each entry must be [o, table], once for each o in 1..{order}")
        o, table = entry
        counts[o] = {}
        for row in table:
            if not (_is_pair(row) and isinstance(row[0], list) and isinstance(row[1], list)):
                raise fail(f"order {o}: each row must be [context, bucket]")
            ctx, bucket = row
            if len(ctx) > o - 1:
                raise fail(f"order {o}: context {ctx} is longer than {o - 1}")
            if not all(map(is_id, ctx)):
                raise fail(f"order {o}: context {ctx} holds an id outside 0..{v - 1}")
            if tuple(ctx) in counts[o]:
                raise fail(f"order {o}: context {ctx} appears twice")
            words = counts[o][tuple(ctx)] = {}
            for item in bucket:
                if not (_is_pair(item) and is_id(item[0])):
                    raise fail(f"order {o}: context {ctx}: {item!r} is not [id, count] "
                               f"with an id in 0..{v - 1}")
                token, count = item
                if not (_is_int(count) and count >= 0):
                    raise fail(f"order {o}: context {ctx}: count {count!r} of token "
                               f"{token} is not a non-negative integer")
                if token in words:
                    raise fail(f"order {o}: context {ctx}: token {token} appears twice")
                words[token] = count
            if sum(words.values()) >= 2 ** 53:
                raise fail(f"order {o}: context {ctx}: counts sum to 2**53 or more")
    if len(counts) != order:
        raise fail(f"each entry must be [o, table], once for each o in 1..{order}")
    for o in range(2, order + 1):
        for ctx in counts[o]:
            suffix = ctx[1:] if len(ctx) == o - 1 else ctx
            if suffix not in counts[o - 1]:
                raise fail(f"order {o}: context {list(ctx)} has no suffix "
                           f"{list(suffix)} at order {o - 1}")
    return counts


def reverse_sequence_logprob(
    model: LanguageModel, source: Sequence[int], target_regular_order: Sequence[int]
) -> float:
    """Score a regular-order target under a reverse-direction model.

    The target is given without EOS; it is reversed into the model's native
    order and EOS is appended before scoring.
    """
    if model.direction != REVERSE:
        raise DirectionError("reverse_sequence_logprob requires a reverse-direction model")
    if EOS_ID in target_regular_order:
        raise ParameterError("target must be given without EOS")
    reversed_target = reverse_target(target_regular_order) + (EOS_ID,)
    return model.sequence_logprob(source, reversed_target)
