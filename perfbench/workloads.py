"""The two benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one thread decodes the next sentence only
when the last one is done.  A run is a series of passes; each pass makes
fresh inputs from its own seed, sets up from scratch, decodes, analyzes and
checks.  Nothing is shared between passes except the imported code.

- ``sweep-synth``: CLI ``train`` -> ``sweep`` -> ``analyze`` through
  ``bidibeam.cli.main`` on ``synth.synthetic_pairs(2000)`` (V=37, 24
  distinct sources), all four algorithms at ``--nb-list 2,4,8``.  127 of its
  840 searches are distinct.
- ``decode-wide``: library ``bidis_decode`` at B=8, T=12, lambda=0.5 over a
  V~1,030 corpus of 1,000 generated topics; nearly every source distinct.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from bidibeam import bidi, cli, corpus, evaluation, instrumentation, lm
from bidibeam.beam import SearchParams

import inputs
from tracer import arguments

clock = time.perf_counter

ORDER = 4
WEIGHTS = (0.1, 0.2, 0.3, 0.4)
MAX_LENGTH = 12


def settle() -> None:
    """Collect the garbage of earlier stages before timing the next one."""
    gc.collect()


@dataclass
class Ops:
    """Operations attempted and failed in one pass, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    decodes: int = 0
    bounds_failures: int = 0
    problems: list[str] = field(default_factory=list)

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def command(self, name: str, code: int, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            self._fail(f"cli {name} exited {code}: {stderr.strip()[:300]}")

    def decode(self, output, b: int, v: int, t: int) -> None:
        """Check one decode: it returned, its counters respect the bounds,
        its selection is in its beam and the selected score is a number."""
        self.attempted += 1
        self.decodes += 1
        if isinstance(output, BaseException):
            self._fail(f"decode raised {output!r}")
            return
        problems = []
        bounds = instrumentation.check_bounds(output.report, b, v, t)
        if not bounds:
            self.bounds_failures += 1
            problems.extend(bounds.failures)
        if output.selected not in output.beam:
            problems.append("selected hypothesis is not in the beam")
        elif math.isnan(output.scores[output.beam.index(output.selected)]):
            problems.append("selected score is NaN")
        if problems:
            self._fail("; ".join(problems))


@dataclass
class PassResult:
    setup_s: list[float]
    stage_s: float
    analyze_s: list[float]
    decode_s: dict[str, list[float]]  # decode wall times by cell
    digest: str
    bleu_pairs: list[tuple]
    distinct_source_share: float
    ops: Ops
    wall_s: float = 0.0


def _digest(records) -> str:
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps(record).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


class DecodeRecorder:
    """Times and keeps every decode the CLI makes, for checking afterwards.

    Wraps the CLI's own bindings of the three decoders, so the searches
    inside ``bidis_decode`` and ``bidia_decode`` are not counted twice.
    """

    NAMES = ("vbs_decode", "bidis_decode", "bidia_decode")

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.times: dict[str, list[float]] = {}
        self._restore: list[tuple[str, object]] = []

    def _wrap(self, name: str, fn):
        records, times = self.records, self.times

        def recorded(*args, **kwargs):
            start = clock()
            try:
                output = fn(*args, **kwargs)
            except Exception as exc:
                records.append((name, args, kwargs, exc))
                raise
            elapsed = clock() - start
            times.setdefault(_cell(name, args, kwargs), []).append(elapsed)
            records.append((name, args, kwargs, output))
            return output

        return recorded

    def __enter__(self) -> "DecodeRecorder":
        for name in self.NAMES:
            if name in vars(cli):
                self._restore.append((name, vars(cli)[name]))
                setattr(cli, name, self._wrap(name, vars(cli)[name]))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            name, original = self._restore.pop()
            setattr(cli, name, original)

    def check(self, ops: Ops) -> None:
        for name, args, kwargs, output in self.records:
            model, params = _model_and_search(name, args, kwargs)
            ops.decode(output, params.beam_size, model.vocab.size, params.max_length)


def _model_and_search(name: str, args: tuple, kwargs: dict) -> tuple:
    """The (regular) model and the search parameters of a CLI decode call."""
    if name == "vbs_decode":
        return arguments(args, kwargs, "model", "source", "params")[::2]
    model, _, _, params = arguments(args, kwargs, "regular", "reverse", "source", "params")
    return model, params.search if name == "bidis_decode" else params


def _cell(name: str, args: tuple, kwargs: dict) -> str:
    """The sweep cell a CLI decode belongs to: algorithm and beam size.

    Validation decodes of the lambda selection are vbs decodes and share
    the vbs cell of their beam size.
    """
    beam_size = _model_and_search(name, args, kwargs)[1].beam_size
    if name == "bidia_decode":
        kind = arguments(args, kwargs, "regular", "reverse", "source", "params", "measure")[4].kind
        return f"bidia-{kind}-nb{beam_size}"
    return f"{name.removesuffix('_decode')}-nb{beam_size}"


def _cli(command: str, argv: list[str]) -> tuple[float, int, str]:
    """Run one CLI command in-process; its output is kept out of ours."""
    out, err = io.StringIO(), io.StringIO()
    settle()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        code = cli.main([command, *argv])
        elapsed = clock() - start
    return elapsed, code, err.getvalue()


# Set-up and analysis take a fraction of a second, so each pass repeats
# them (they are idempotent) and the run reports the mean of all repeats.
REPEATS = 3


class SweepSynth:
    name = "sweep-synth"
    # 2,000 pairs, not 10,000: at 10,000 (4,200 searches, 168 distinct) one
    # sweep takes 13-22 s on a 2-vCPU host, a run holds only a few, and its
    # times spread by up to 0.30 between seeds, more than any bound.
    n_pairs = 2000
    split = "0.96,0.02,0.02"

    def prepare(self, workdir: Path, seed: int) -> inputs.SweepInputs:
        return inputs.sweep_inputs(workdir, seed, self.n_pairs)

    def run_pass(self, given: inputs.SweepInputs, workdir: Path) -> PassResult:
        out = workdir / "run"
        argv = [
            "--corpus", str(given.corpus), "--embeddings", str(given.embeddings),
            "--order", str(ORDER), "--weights", ",".join(map(str, WEIGHTS)),
            "--T", str(MAX_LENGTH), "--nb-list", "2,4,8",
            "--algorithms", "vbs,bidis,bidia-bleu,bidia-wmd",
            "--split", self.split, "--seed", str(given.split_seed), "--out", str(out),
        ]
        ops = Ops()
        setup, analyze = [], []
        for _ in range(REPEATS):
            elapsed, code, err = _cli("train", argv)
            setup.append(elapsed)
            ops.command("train", code, err)
        with DecodeRecorder() as recorder:
            sweep_s, code, err = _cli("sweep", argv)
        ops.command("sweep", code, err)
        recorder.check(ops)
        for _ in range(REPEATS):
            elapsed, code, err = _cli("analyze", argv)
            analyze.append(elapsed)
            ops.command("analyze", code, err)

        files = sorted(out.glob("decodes_*.csv")) + sorted(out.glob("beams_*.jsonl"))
        digest = _digest([p.name, p.read_text(encoding="utf-8")] for p in files)
        bleu_pairs, sources = [], None
        for path in sorted(out.glob("decodes_*.csv")):
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
            bleu_pairs.extend((r["output"].split(), r["reference"].split()) for r in rows)
            sources = [r["source"] for r in rows]
        share = len(set(sources)) / len(sources) if sources else 0.0
        return PassResult(setup, sweep_s, analyze, recorder.times, digest,
                          bleu_pairs, share, ops)


class DecodeWide:
    """Set up from a corpus file, decode each test sentence once, analyze.

    At V~1,030 the CLI's default k=0.1 adds ~100 pseudo-counts to every
    context and flattens the model until the empty output wins, and at
    lambda=1.0 the reverse model, which never sees the source within three
    tokens of a mid-sentence topic word, does the same; both give BLEU 0.
    k=0.001 and lambda=0.5 keep the outputs real sentences.
    """

    name = "decode-wide"
    n_topics = 1000
    n_train = 8000
    n_test = 12  # every question/answer template once
    beam_size = 8
    smoothing_k = 0.001
    reverse_weight = 0.5

    def prepare(self, workdir: Path, seed: int) -> inputs.DecodeInputs:
        return inputs.decode_inputs(workdir, seed, self.n_topics, self.n_train, self.n_test)

    def _analyze(self, decoded, pairs, vocab) -> None:
        if decoded:
            evaluation.rank_histogram([o for o, _ in decoded], self.beam_size)
            evaluation.corpus_bleu4([(o.selected.core(), p.target) for o, p in decoded])
            evaluation.corpus_bleu4(
                [(evaluation.best_hypothesis(o.beam, p.target)[0].core(), p.target)
                 for o, p in decoded])
        for order in ("regular", "reverse"):
            for position in (1, 2, 3):
                evaluation.word_position_frequency(pairs, vocab, position, order)

    def run_pass(self, given: inputs.DecodeInputs, workdir: Path) -> PassResult:
        settle()
        start = clock()
        surface = corpus.load_corpus(given.corpus, "tsv")
        vocab = corpus.build_vocabulary(surface)
        train = corpus.encode_pairs(surface, vocab)
        regular = lm.ConditionalNGramLM.train(train, vocab, ORDER, lm.REGULAR, WEIGHTS, self.smoothing_k)
        reverse = lm.ConditionalNGramLM.train(train, vocab, ORDER, lm.REVERSE, WEIGHTS, self.smoothing_k)
        test = corpus.encode_pairs(given.test, vocab)
        setup_s = clock() - start

        params = bidi.BidiSParams(SearchParams(self.beam_size, MAX_LENGTH), self.reverse_weight)
        outputs, times = [], []
        settle()
        stage_start = clock()
        for pair in test:
            start = clock()
            try:
                outputs.append(bidi.bidis_decode(regular, reverse, pair.source, params))
            except Exception as exc:  # counted as a failed operation
                outputs.append(exc)
            times.append(clock() - start)
        stage_s = clock() - stage_start

        ops = Ops()
        for output in outputs:
            ops.decode(output, self.beam_size, vocab.size, MAX_LENGTH)
        decoded = [(o, p) for o, p in zip(outputs, test) if not isinstance(o, BaseException)]

        # The library counterpart of `bidibeam analyze` on this one cell.
        analyze = []
        for _ in range(REPEATS):
            settle()
            start = clock()
            self._analyze(decoded, train + test, vocab)
            analyze.append(clock() - start)

        digest = _digest(
            [list(o.selected.tokens), o.selected_index,
             [list(h.tokens) for h in o.beam], [repr(s) for s in o.scores]]
            if not isinstance(o, BaseException) else repr(o)
            for o in outputs
        )
        bleu_pairs = [(o.selected.core(), p.target) for o, p in decoded]
        share = len({p.source for p in test}) / len(test)
        return PassResult([setup_s], stage_s, analyze, {self.name: times}, digest,
                          bleu_pairs, share, ops)


WORKLOADS = {w.name: w for w in (SweepSynth(), DecodeWide())}
