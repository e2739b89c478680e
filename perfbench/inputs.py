"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the seed the benchmark is given, so a
seed names one exact set of corpora, test sentences and embeddings.  The
larger-vocabulary corpus reuses the question and answer templates of
``bidibeam.synth`` with generated topic words; ``synth`` itself gets no new
setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from bidibeam import synth
from bidibeam.similarity import default_stopwords

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run started with ``seed``."""
    return seed * 1000 + index


def topic_words(count: int, rng: random.Random) -> list[str]:
    """``count`` distinct pronounceable words, none a template word or stopword.

    Stopwords are excluded so that WMD never drops a topic, and template
    words so that a topic never aliases a word of the fixed sentence frame.
    """
    taken = set(synth.corpus_words(_template_frames())) | default_stopwords()
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = rng.randint(2, 3)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in taken and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _template_frames() -> list[tuple[list[str], list[str]]]:
    frames = []
    for question, pool in synth.QUESTIONS:
        for answer in synth.ANSWER_POOLS[pool]:
            frames.append((question.format(topic="").split(), answer.format(topic="").split()))
    return frames


def template_pairs(
    n: int, topics: list[str], rng: random.Random
) -> list[tuple[list[str], list[str]]]:
    """``n`` pairs drawn like ``synth.synthetic_pairs`` but over ``topics``."""
    pairs = []
    for _ in range(n):
        topic = rng.choice(topics)
        question, pool = rng.choice(synth.QUESTIONS)
        answer = rng.choice(synth.ANSWER_POOLS[pool])
        pairs.append((question.format(topic=topic).split(), answer.format(topic=topic).split()))
    return pairs


def balanced_pairs(
    n: int, topics: list[str], rng: random.Random
) -> list[tuple[list[str], list[str]]]:
    """``n`` pairs cycling through every (question, answer) template in turn,
    each with a random topic.

    Decode time depends on the question form and BLEU on the answer, so a
    test set with every form equally often varies less from seed to seed
    than one drawn like the training corpus.
    """
    combos = [(q, a) for q, pool in synth.QUESTIONS for a in synth.ANSWER_POOLS[pool]]
    pairs = []
    for i in range(n):
        question, answer = combos[i % len(combos)]
        topic = rng.choice(topics)
        pairs.append((question.format(topic=topic).split(), answer.format(topic=topic).split()))
    return pairs


@dataclass(frozen=True)
class SweepInputs:
    """A corpus and embedding file for one CLI train -> sweep -> analyze pass."""

    corpus: Path
    embeddings: Path
    split_seed: int


def sweep_inputs(workdir: Path, seed: int, n_pairs: int) -> SweepInputs:
    pairs = synth.synthetic_pairs(n_pairs, seed)
    corpus = workdir / "corpus.tsv"
    embeddings = workdir / "vectors.txt"
    synth.write_corpus_tsv(pairs, corpus)
    synth.write_embeddings(embeddings, synth.corpus_words(pairs), dim=8, seed=seed)
    return SweepInputs(corpus, embeddings, seed)


@dataclass(frozen=True)
class DecodeInputs:
    """A training corpus file and held-out test pairs."""

    corpus: Path
    test: list[tuple[list[str], list[str]]]


def decode_inputs(
    workdir: Path,
    seed: int,
    n_topics: int,
    n_train: int,
    n_test: int,
) -> DecodeInputs:
    rng = random.Random(seed)
    topics = topic_words(n_topics, rng)
    train = template_pairs(n_train, topics, rng)
    test = balanced_pairs(n_test, topics, rng)
    corpus = workdir / "corpus.tsv"
    synth.write_corpus_tsv(train, corpus)
    return DecodeInputs(corpus, test)
