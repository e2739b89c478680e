"""Deterministic synthetic question-answer corpus and embedding generators.

The corpus is dialogue-shaped: short questions about a topic paired with
one of several plausible answers, chosen pseudo-randomly per pair.  The
one-to-many structure keeps beams diverse, which is what the sweep and
rank analyses need to show anything interesting.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

TOPICS = ["cats", "dogs", "birds", "fish", "tea", "coffee", "rain", "snow"]

# Each question form draws answers from one pool; the pools differ in how
# sentences end, so the right-to-left direction carries real information.
QUESTIONS = [
    ("do you like {topic} ?", 0),
    ("what do you think of {topic} ?", 1),
    ("tell me about {topic} .", 1),
]

ANSWER_POOLS = [
    [
        "yes i like {topic} !",
        "no i hate {topic} !",
        "{topic} is great !",
        "{topic} is nice !",
    ],
    [
        "{topic} is nice .",
        "{topic} is fine .",
        "everyone likes {topic} .",
        "{topic} is just ok i guess .",
    ],
]


def synthetic_pairs(n: int, seed: int) -> list[tuple[list[str], list[str]]]:
    """n (source, target) word-sequence pairs, reproducible from the seed."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        topic = rng.choice(TOPICS)
        question, pool = rng.choice(QUESTIONS)
        answer = rng.choice(ANSWER_POOLS[pool])
        pairs.append(
            (question.format(topic=topic).split(), answer.format(topic=topic).split())
        )
    return pairs


def corpus_words(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[str]:
    """Sorted unique words across both sides of a corpus."""
    words = set()
    for source, target in pairs:
        words.update(source)
        words.update(target)
    return sorted(words)


def write_corpus_tsv(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for source, target in pairs:
            handle.write(" ".join(source) + "\t" + " ".join(target) + "\n")


def write_embeddings(
    path: str | Path, words: Sequence[str], dim: int = 8, seed: int = 0
) -> None:
    """Write a deterministic Gaussian embedding file with a count/dim header.

    Vectors are rounded to six decimals so the text round-trip is exact.
    """
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(words)} {dim}\n")
        for word in words:
            values = [f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(dim)]
            handle.write(word + " " + " ".join(values) + "\n")
