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
INTERESTING = [bytes((b,)) for b in b'0123456789-+.eE"[]{},:=#\t\n \xff']
# Every line break Python knows, in UTF-8.  Only \n, \r\n and \r end a line
# of a user file; the others are line text.
LINE_BREAKS = [b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
               *(c.encode("utf-8") for c in "\x85\u2028\u2029")]


def edits(pieces: st.SearchStrategy) -> st.SearchStrategy:
    """Up to four edits, each replacing, inserting or deleting at a position."""
    return st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10 ** 6), pieces),
        min_size=1,
        max_size=4,
    )


EDITS = edits(st.one_of(st.sampled_from(INTERESTING + LINE_BREAKS),
                        st.integers(0, 255).map(lambda b: bytes((b,)))))


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
    """``data`` with each (kind, position, piece) edit applied in turn; a
    replacement swaps the byte at the position for the whole piece."""
    buffer = bytearray(data)
    for kind, position, piece in edits:
        at = position % (len(buffer) + 1)
        if kind == "insert":
            buffer[at:at] = piece
        elif at < len(buffer):
            if kind == "replace":
                buffer[at : at + 1] = piece
            else:
                del buffer[at]
    return bytes(buffer)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_corrupted_file_exits_1_naming_it(pristine, target, edits):
    run_corrupted(pristine, target, edits)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=edits(st.sampled_from(LINE_BREAKS)))
def test_line_breaks_exit_0_or_1_naming_the_file(pristine, target, edits):
    run_corrupted(pristine, target, edits)


def run_corrupted(pristine: Path, target: str, edits) -> None:
    """Run the target's command on a copy whose target file has ``edits``;
    it must exit 0, or exit 1 with a message that names the file."""
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
