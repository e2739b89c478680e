"""Corrupted user files: every failure exits 1 naming the file, none exits 2.

Each example copies a small trained run, changes a few bytes of one file
(corpus, vocabulary, model, embeddings, config or persisted beams) and runs
the command that reads it in-process.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bidibeam.cli import main
from bidibeam.synth import corpus_words, synthetic_pairs, write_corpus_tsv, write_embeddings

# Values the library checks against each other (fractions and weights that
# sum to 1, one weight per order, k > 0) come from flags, which win over the
# config file, so a corrupted config can only fail on its own lines.
FLAGS = ["--format", "tsv", "--split", "0.8,0.1,0.1", "--order", "3",
         "--weights", "0.1,0.2,0.7", "--k", "0.01"]
DECODE = ["--seed", "7", "--T", "6", "--B", "4"]
CONFIG = """# every option the train command does not read as a path
format = tsv
split = 0.8,0.1,0.1
seed = 7
order = 3
weights = 0.1,0.2,0.7
k = 0.01
min_count = 1
B = 4
T = 6
alpha = 0.6
algorithm = bidia-wmd
lambda_grid = 0.0,0.5
bp_mode = divide
nb_list = 2,4
algorithms = vbs,bidis
save_beams = true
"""

# The file each target corrupts, and the command that reads it.
TARGETS = {
    "corpus": ("corpus.tsv", ["train", "--corpus", "{root}/corpus.tsv", *FLAGS, "--out", "{root}/new"]),
    "vocabulary": ("run/vocab.txt", ["decode", "--corpus", "{root}/corpus.tsv", *FLAGS, *DECODE,
                                     "--out", "{root}/run"]),
    "model": ("run/lm_regular.json", ["decode", "--corpus", "{root}/corpus.tsv", *FLAGS, *DECODE,
                                      "--out", "{root}/run"]),
    "embeddings": ("vectors.txt", ["decode", "--corpus", "{root}/corpus.tsv", *FLAGS, *DECODE,
                                   "--algorithm", "bidia-wmd", "--embeddings", "{root}/vectors.txt",
                                   "--out", "{root}/run"]),
    "config": ("run.cfg", ["train", "--config", "{root}/run.cfg", "--corpus", "{root}/corpus.tsv",
                           *FLAGS, "--out", "{root}/new"]),
    "beams": ("run/beams_vbs_nb4.jsonl", ["analyze", "--corpus", "{root}/corpus.tsv", *FLAGS,
                                          *DECODE, "--out", "{root}/run"]),
}

# Bytes that make or break the formats: digits, signs, JSON punctuation,
# separators and a byte that is never UTF-8.
INTERESTING = b'0123456789-+.eE"[]{},:=#\t\n \xff'
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 10 ** 6),
        st.one_of(st.sampled_from(list(INTERESTING)), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pairs = synthetic_pairs(60, seed=11)
    write_corpus_tsv(pairs, root / "corpus.tsv")
    write_embeddings(root / "vectors.txt", corpus_words(pairs), dim=3, seed=2)
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    run = str(root / "run")
    assert main(["train", "--corpus", str(root / "corpus.tsv"), *FLAGS, "--out", run]) == 0
    assert main(["decode", "--corpus", str(root / "corpus.tsv"), *FLAGS, *DECODE,
                 "--save-beams", "--out", run]) == 0
    return root


def mutate(data: bytes, edits) -> bytes:
    buffer = bytearray(data)
    for kind, position, byte in edits:
        at = position % (len(buffer) + 1)
        if kind == "insert":
            buffer.insert(at, byte)
        elif at < len(buffer):
            if kind == "replace":
                buffer[at] = byte
            else:
                del buffer[at]
    return bytes(buffer)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_corrupted_file_exits_1_naming_it(pristine, target, edits):
    name, argv = TARGETS[target]
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for item in ("corpus.tsv", "vectors.txt", "run.cfg"):
            shutil.copy(pristine / item, root / item)
        shutil.copytree(pristine / "run", root / "run")
        path = root / name
        path.write_bytes(mutate(path.read_bytes(), edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(root=root) for arg in argv])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert path.name in err.getvalue(), err.getvalue()
