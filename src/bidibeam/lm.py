"""Conditional language models over (source, target-prefix) contexts.

The concrete model is a smoothed n-gram trained on concatenated streams
[BOS, source..., SEP, target'..., EOS], where target' is the target as-is
for a regular-direction model and element-wise reversed for a reverse one.
Only positions after SEP are predicted; the source is context, never output.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Sequence

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


class ConditionalNGramLM(LanguageModel):
    """Interpolated add-k n-gram model conditioned on the source sequence.

    Probabilities interpolate orders 1..n with fixed weights; add-k smoothing
    at every order guarantees strictly positive probability for all V ids.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        direction: str,
        weights: Sequence[float],
        k: float,
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]],
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
        self._counts = counts
        self._totals = {
            o: {ctx: sum(bucket.values()) for ctx, bucket in table.items()}
            for o, table in counts.items()
        }
        # Order 1 conditions on the empty context for every query, and it is
        # the first term added, so each row starts from a copy of it.
        self._unigram = np.zeros(vocab.size)
        self._add_order(self._unigram, 1, ())
        self._rows: dict[tuple[int, ...], np.ndarray] = {}

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
        if not pairs:
            raise ParameterError("cannot train on an empty corpus")
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {
            o: {} for o in range(1, order + 1)
        }
        for pair in pairs:
            target = pair.target if direction == REGULAR else reverse_target(pair.target)
            stream = (BOS_ID,) + tuple(pair.source) + (SEP_ID,) + tuple(target) + (EOS_ID,)
            first_predicted = 2 + len(pair.source)  # position right after SEP
            for i in range(first_predicted, len(stream)):
                token = stream[i]
                for o in range(1, order + 1):
                    ctx = stream[max(0, i - (o - 1)) : i]
                    bucket = counts[o].setdefault(ctx, {})
                    bucket[token] = bucket.get(token, 0) + 1
        return cls(vocab, order, direction, weights, k, counts)

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
            for o in range(2, self.order + 1):
                self._add_order(probs, o, key[max(0, len(key) - (o - 1)) :])
            row = np.log(probs)
            row.flags.writeable = False
            if len(self._rows) * v >= ROW_MEMO_FLOATS:
                self._rows.clear()
            self._rows[key] = row
        return row

    def _add_order(self, probs: np.ndarray, o: int, ctx: tuple[int, ...]) -> None:
        """Add order ``o``'s weighted add-k probabilities after ``ctx`` in place."""
        weight = self.weights[o - 1]
        denom = self._totals[o].get(ctx, 0) + self.k * self.vocab.size
        probs += weight * (self.k / denom)
        bucket = self._counts[o].get(ctx)
        if bucket:
            for token, count in bucket.items():
                probs[token] += weight * count / denom

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
                        for ctx, bucket in sorted(self._counts[o].items())
                    ],
                ]
                for o in sorted(self._counts)
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
            return cls(
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
    at most o - 1 ids, and non-negative integer counts, all ids below V."""

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
            words = counts[o][tuple(ctx)] = {}
            for item in bucket:
                if not (_is_pair(item) and is_id(item[0])):
                    raise fail(f"order {o}: context {ctx}: {item!r} is not [id, count] "
                               f"with an id in 0..{v - 1}")
                token, count = item
                if not (_is_int(count) and count >= 0):
                    raise fail(f"order {o}: context {ctx}: count {count!r} of token "
                               f"{token} is not a non-negative integer")
                words[token] = count
    if len(counts) != order:
        raise fail(f"each entry must be [o, table], once for each o in 1..{order}")
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
