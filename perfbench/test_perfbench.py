"""Tests of the benchmark's own machinery: tracer arithmetic, patching, inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bidibeam import beam, bidi, cli, corpus, lm, synth  # noqa: E402
from bidibeam.beam import SearchParams  # noqa: E402
from bidibeam.similarity import default_stopwords  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    seconds, calls = tracer.self_times()
    assert calls == {"outer": 1, "inner": 2}
    assert tracer.parents == [-1, 0, 0]
    assert 0.04 <= seconds["inner"] < 0.06
    assert 0.01 <= seconds["outer"] < 0.02
    total = (tracer.ends[0] - tracer.starts[0]) / 1e9
    assert abs(seconds["inner"] + seconds["outer"] - total) < 0.002


def _tiny_models():
    pairs = synth.synthetic_pairs(300, seed=3)
    vocab = corpus.build_vocabulary(pairs)
    encoded = corpus.encode_pairs(pairs, vocab)
    regular = lm.ConditionalNGramLM.train(encoded, vocab, 4, lm.REGULAR, (0.1, 0.2, 0.3, 0.4))
    reverse = lm.ConditionalNGramLM.train(encoded, vocab, 4, lm.REVERSE, (0.1, 0.2, 0.3, 0.4))
    return regular, reverse, encoded


def test_tracer_patches_every_binding_and_restores_them():
    original = beam.vbs_decode
    train = lm.ConditionalNGramLM.__dict__["train"]
    with Tracer():
        assert beam.vbs_decode is bidi.vbs_decode is cli.vbs_decode
        assert beam.vbs_decode is not original
        regular, reverse, encoded = _tiny_models()
    assert beam.vbs_decode is bidi.vbs_decode is cli.vbs_decode is original
    assert lm.ConditionalNGramLM.__dict__["train"] is train
    assert cli.COMMANDS["sweep"] is cli.cmd_sweep


def test_traced_decode_is_unchanged_and_counted():
    regular, reverse, encoded = _tiny_models()
    params = bidi.BidiSParams(SearchParams(4, 12), 0.5)
    sources = [pair.source for pair in encoded[:5]]
    plain = [bidi.bidis_decode(regular, reverse, s, params) for s in sources]
    tracer = Tracer()
    with tracer:
        traced = [bidi.bidis_decode(regular, reverse, s, params) for s in sources]
    assert [o.beam for o in traced] == [o.beam for o in plain]
    assert [o.scores for o in traced] == [o.scores for o in plain]
    metrics = layer_metrics(tracer)
    assert metrics["beam.vbs_decode.calls"] == 5
    assert metrics["bidi.rescore_terms.calls"] == 5
    assert metrics["beam.expansions"] == sum(o.report.expansions for o in plain)
    assert metrics["bidi.rescoring_evals"] == 20
    assert 0 < metrics["lm.distinct_context_ratio"] <= 1
    assert metrics["beam.distinct_search_ratio"] == len(set(sources)) / 5


def test_inputs_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = inputs.decode_inputs(first, 7, n_topics=50, n_train=200, n_test=10)
    b = inputs.decode_inputs(second, 7, n_topics=50, n_train=200, n_test=10)
    assert a.test == b.test
    assert a.corpus.read_bytes() == b.corpus.read_bytes()


def test_topic_words_are_new_words():
    words = inputs.topic_words(1000, random.Random(0))
    assert len(set(words)) == 1000
    frame = set(synth.corpus_words(inputs.template_pairs(50, ["x"], random.Random(0))))
    assert not set(words) & (frame | default_stopwords())


def test_declared_per_layer_metrics_are_the_measured_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]}
    measured = set(layer_metrics(Tracer()))
    assert names == measured | {"instrumentation.bounds_failures", "trace.overhead_ratio"}
