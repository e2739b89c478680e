"""Tokenization, vocabulary construction, corpus ingestion and splitting.

Token ids 0..3 are reserved for the BOS/EOS/SEP/UNK markers in that order;
content words are assigned ids from 4 upward by descending corpus frequency.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from collections import Counter
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import BidibeamError, FormatError, ParameterError

BOS_ID = 0
EOS_ID = 1
SEP_ID = 2
UNK_ID = 3

BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"
UNK = "<unk>"

RESERVED = (BOS, EOS, SEP, UNK)
_RESERVED_SET = frozenset(RESERVED)
_MARKER_IDS = frozenset((BOS_ID, EOS_ID, SEP_ID))

# Punctuation marks split into standalone tokens.
_SPLIT_MARKS = ".!?,'"


def read_user_text(path: str | Path, error: type[BidibeamError] = FormatError) -> str:
    """Read a user-supplied file as UTF-8.

    Bytes that are not UTF-8 raise ``error`` naming the file, the line and
    the first offending byte; an unreadable file still raises ``OSError``.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path}: line {line}: not valid UTF-8 (byte {data[exc.start]:#04x})"
        ) from None


class Vocabulary:
    """Bijective surface <-> id table with reserved markers at ids 0..3.

    Lookups of unknown surfaces return the UNK id; lookups of unknown ids
    raise, since an id outside the table is always a programming error.
    """

    def __init__(self, surfaces: Sequence[str]):
        if list(surfaces[:4]) != list(RESERVED):
            raise ParameterError(
                "vocabulary must start with the reserved markers %r" % (RESERVED,)
            )
        self._id_to_surface = list(surfaces)
        self._surface_to_id = {s: i for i, s in enumerate(surfaces)}
        if len(self._surface_to_id) != len(self._id_to_surface):
            raise ParameterError("duplicate surfaces in vocabulary")

    @property
    def size(self) -> int:
        return len(self._id_to_surface)

    def __len__(self) -> int:
        return self.size

    def id_for(self, surface: str) -> int:
        return self._surface_to_id.get(surface, UNK_ID)

    def surface_for(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_surface):
            raise ParameterError(f"token id {token_id} outside vocabulary")
        return self._id_to_surface[token_id]

    def encode(self, surfaces: Iterable[str]) -> tuple[int, ...]:
        return tuple(map(self._surface_to_id.get, surfaces, repeat(UNK_ID)))

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.surface_for(i) for i in ids]

    def save(self, path: str | Path) -> None:
        lines = [f"{s}\t{i}" for i, s in enumerate(self._id_to_surface)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        surfaces: list[str] = []
        for lineno, line in enumerate(read_user_text(path).splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}: line {lineno}: expected 'surface<TAB>id'")
            surface, id_text = parts
            try:
                token_id = int(id_text)
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: bad id {id_text!r}") from None
            if token_id != len(surfaces):
                raise FormatError(
                    f"{path}: line {lineno}: ids must ascend contiguously from 0"
                )
            surfaces.append(surface)
        try:
            return cls(surfaces)
        except ParameterError as exc:
            raise FormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SentencePair:
    """A source/target pair of token ids; markers are added by consumers."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        if not self.source or not self.target:
            raise ParameterError("sentence pair sides must be non-empty")
        for side in (self.source, self.target):
            if not _MARKER_IDS.isdisjoint(side):
                raise ParameterError("sentence pairs must not contain marker ids")

    @classmethod
    def _checked_already(cls, source: tuple[int, ...], target: tuple[int, ...]) -> "SentencePair":
        """A pair whose sides the caller has checked as ``__post_init__`` would."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "source", source)
        object.__setattr__(pair, "target", target)
        return pair


@dataclass(frozen=True)
class CorpusSplit:
    """Partition of a corpus; holds whatever pair representation was split."""

    train: tuple
    validation: tuple
    test: tuple


def _spaced(text: str) -> str:
    """Lowercased text with a space on each side of every . ! ? , ' mark."""
    text = text.lower()
    for mark in _SPLIT_MARKS:
        text = text.replace(mark, f" {mark} ")
    return text


def tokenize(line: str) -> list[str]:
    """Lowercase and split on whitespace, with . ! ? , ' as standalone tokens."""
    return _spaced(line).split()


def reverse_target(target: Sequence) -> tuple:
    """Element-wise reversal; applied to target sides only, never sources."""
    return tuple(reversed(target))


def build_vocabulary(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]], min_count: int = 1
) -> Vocabulary:
    """Assign ids >= 4 to every surface with corpus frequency >= min_count.

    Ids are assigned in descending frequency order, ties broken
    lexicographically; rarer surfaces fall back to UNK at encode time.
    """
    if min_count < 1:
        raise ParameterError("min_count must be >= 1")
    if not pairs:
        raise ParameterError("cannot build a vocabulary from an empty corpus")
    freq = Counter(chain.from_iterable(chain.from_iterable(pairs)))
    kept = sorted(
        (s for s, c in freq.items() if c >= min_count),
        key=lambda s: (-freq[s], s),
    )
    return Vocabulary(list(RESERVED) + kept)


def encode_pairs(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]], vocab: Vocabulary
) -> list[SentencePair]:
    """Encode every pair, checking the whole batch as ``SentencePair`` would.

    All surfaces are looked up in one pass and each side is a slice of the
    result.  A batch with an empty side or a marker id raises the error
    ``SentencePair`` raises for its first bad pair.
    """
    surfaces = list(chain.from_iterable(pairs))  # source, target, source, ...
    ends = list(accumulate(map(len, surfaces)))
    ids = vocab.encode(chain.from_iterable(surfaces))
    sides = list(map(ids.__getitem__, map(slice, [0, *ends], ends)))
    sources, targets = sides[0::2], sides[1::2]
    if not (all(sides) and _MARKER_IDS.isdisjoint(ids)):
        list(map(SentencePair, sources, targets))  # raises at the first bad pair
    return list(map(SentencePair._checked_already, sources, targets))


def load_corpus(
    path: str | Path, fmt: str = "tsv"
) -> list[tuple[list[str], list[str]]]:
    """Read a parallel corpus file into tokenized (source, target) pairs.

    TSV: one pair per line, exactly one TAB. JSONL: one object per line with
    "source" and "target" string fields. Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``; any other whitespace only separates tokens. File order is
    preserved.  A token that spells a reserved marker (``<bos>``, ``<eos>``,
    ``<sep>``, ``<unk>``, in any case) is rejected, since the vocabulary
    reserves those surfaces.
    """
    if fmt not in ("tsv", "jsonl"):
        raise ParameterError(f"unknown corpus format {fmt!r}")
    text = read_user_text(path)
    tsv = fmt == "tsv"
    if tsv:
        # The whole file is tokenized at once; no character lowercases to a
        # TAB, a line break or a split mark, so lines and fields are the same.
        text = _spaced(text)
    # A TSV file can hold a marker only if its lowered text holds a "<".
    check_markers = not tsv or "<" in text
    pairs: list[tuple[list[str], list[str]]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        if tsv:
            fields = line.split("\t")
            if len(fields) != 2:
                raise FormatError(f"{path}: line {lineno}: expected exactly one TAB")
            source, target = fields[0].split(), fields[1].split()
        else:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: bad JSON ({exc.msg})") from None
            if not isinstance(record, dict) or not {"source", "target"} <= set(record):
                raise FormatError(
                    f"{path}: line {lineno}: expected fields 'source' and 'target'"
                )
            for field in ("source", "target"):
                if not isinstance(record[field], str):
                    raise FormatError(f"{path}: line {lineno}: field {field!r} must be a string")
            source, target = tokenize(record["source"]), tokenize(record["target"])
        if not source or not target:
            raise FormatError(f"{path}: line {lineno}: empty source or target field")
        if check_markers and not (_RESERVED_SET.isdisjoint(source) and _RESERVED_SET.isdisjoint(target)):
            marker = next(w for w in source + target if w in _RESERVED_SET)
            raise FormatError(f"{path}: line {lineno}: reserved marker {marker!r} in corpus text")
        pairs.append((source, target))
    if not pairs:
        raise FormatError(f"{path}: corpus file contains no pairs")
    return pairs


def split_corpus(
    pairs: Sequence,
    fractions: tuple[float, float, float] = (0.97, 0.01, 0.02),
    seed: int = 0,
) -> CorpusSplit:
    """Deterministically shuffle and partition pairs into train/validation/test."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ParameterError("fractions must be three non-negative reals")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError("split fractions must sum to 1")
    indices = list(range(len(pairs)))
    random.Random(seed).shuffle(indices)
    n = len(pairs)
    n_train = round(fractions[0] * n)
    n_val = round(fractions[1] * n)
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    shuffled = [pairs[i] for i in indices]
    return CorpusSplit(
        train=tuple(shuffled[:n_train]),
        validation=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
    )
