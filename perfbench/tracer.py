"""Spans around the calls into bidibeam's layers, recorded from outside.

The tracer replaces every binding of a traced function in the loaded
``bidibeam`` modules (``vbs_decode`` is bound in ``beam``, ``bidi``, ``cli``
and the package itself, for instance) with one wrapper, and methods on
their classes.  Each call appends a span (name, start, end, parent) to
in-memory lists; nothing is written until the run ends.  Self time is a
span's duration minus the time its child spans cover, where a child covers
its own bookkeeping too, so the tracer's cost is charged to no layer.

Counters that explain the self times are taken at the same boundaries:
expansions and sort sizes from each ``ComplexityReport``, and the number
of distinct LM contexts, searches and transport problems.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from bidibeam import cli, corpus, lm
from bidibeam.corpus import BOS_ID, SEP_ID

_clock = time.perf_counter_ns

# Span name -> function name.  Each function is found by name in every
# loaded bidibeam module, so a function that moves between modules is still
# traced under the same span name, and every binding of it is patched.
_FUNCTIONS = {
    "beam.vbs_decode": "vbs_decode",
    "bidi.rescore_terms": "rescore_terms",
    "bidi.bidis_decode": "bidis_decode",
    "bidi.bidia_decode": "bidia_decode",
    "similarity.dissimilarity": "dissimilarity",
    "similarity.solve_transport": "solve_transport",
    "similarity.bleu_t": "bleu_t",
    "similarity.load_embeddings": "load_embeddings",
    "corpus.load_corpus": "load_corpus",
    "corpus.split_corpus": "split_corpus",
    "corpus.build_vocabulary": "build_vocabulary",
    "corpus.encode_pairs": "encode_pairs",
    "evaluation.corpus_bleu4": "corpus_bleu4",
    "evaluation.distinct_n": "distinct_n",
    "evaluation.best_hypothesis": "best_hypothesis",
    "evaluation.rank_histogram": "rank_histogram",
    "evaluation.word_position_frequency": "word_position_frequency",
    "instrumentation.check_bounds": "check_bounds",
    "cli.select_lambda": "select_lambda",
}
# Methods are patched on their class.
_METHODS = [
    ("lm.next_token_logprobs", lm.ConditionalNGramLM, "next_token_logprobs"),
    ("lm.train", lm.ConditionalNGramLM, "train"),
    ("lm.load", lm.ConditionalNGramLM, "load"),
    ("corpus.vocabulary_load", corpus.Vocabulary, "load"),
    ("corpus.vocabulary_save", corpus.Vocabulary, "save"),
]
_COMMANDS = ("train", "sweep", "analyze")


class Tracer:
    """Records spans while installed; ``with tracer:`` patches and restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.covers: list[int] = []
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._contexts: set = set()
        self._searches: set = set()
        self._problems: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        names, starts, ends, parents, covers = (
            self.names, self.starts, self.ends, self.parents, self.covers)
        stack = self._stack

        def traced(*args, **kwargs):
            outer = _clock()
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            covers.append(0)
            stack.append(index)
            if before is not None:
                before(args, kwargs)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                covers[index] = end - outer
            if after is not None:
                after(args, kwargs, result)
                covers[index] = _clock() - outer
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_logprobs(self, args, kwargs, _result) -> None:
        model, source, prefix = arguments(args, kwargs, "self", "source", "prefix")
        width = model.order - 1
        stream = (BOS_ID, *source, SEP_ID, *prefix)
        self._contexts.add((model.direction, stream[len(stream) - width:] if width else ()))

    def _on_search(self, args, kwargs, result) -> None:
        model, source, params = arguments(args, kwargs, "model", "source", "params")
        self._searches.add((model.direction, tuple(source), params))
        self.counts["expansions"] += result.report.expansions
        self.counts["sort_candidates"] += sum(size for _, size in result.report.sort_events)

    def _on_bidis(self, _args, _kwargs, result) -> None:
        self.counts["rescoring_evals"] += result.report.rescoring_evals

    def _before_bidia(self, _args, _kwargs) -> None:
        self._problems = set()

    def _on_bidia(self, _args, _kwargs, result) -> None:
        self.counts["pairwise_sim_evals"] += result.report.pairwise_sim_evals
        self.counts["distinct_bag_pairs"] += len(self._problems)

    def _on_dissimilarity(self, _args, _kwargs, result) -> None:
        self.counts["degenerate"] += math.isinf(result)

    def _on_transport(self, args, kwargs) -> None:
        # The supply, demand and cost arrays are fixed by the two bags of
        # words, so distinct problems within a sentence are distinct bag pairs.
        (problem,) = arguments(args, kwargs, "problem")
        self._problems.add(
            (problem.supply.tobytes(), problem.demand.tobytes(), problem.cost.tobytes()))

    # -- installation ------------------------------------------------------

    def _hooks(self, name: str) -> tuple:
        return {
            "lm.next_token_logprobs": (None, self._on_logprobs),
            "beam.vbs_decode": (None, self._on_search),
            "bidi.bidis_decode": (None, self._on_bidis),
            "bidi.bidia_decode": (self._before_bidia, self._on_bidia),
            "similarity.dissimilarity": (None, self._on_dissimilarity),
            "similarity.solve_transport": (self._on_transport, None),
        }.get(name, (None, None))

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bidibeam" or n.startswith("bidibeam."))]
        for name, function_name in _FUNCTIONS.items():
            found = {id(fn): fn for fn in (vars(m).get(function_name) for m in modules)
                     if callable(fn)}
            for fn in found.values():
                wrapper = self.wrap(name, fn, *self._hooks(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        for name, cls, attr in _METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self.wrap(name, raw, *self._hooks(name)))
        for command in _COMMANDS:
            wrapper = self.wrap(f"cli.{command}", cli.COMMANDS[command])
            self._restore.append((cli.COMMANDS, command, cli.COMMANDS[command]))
            cli.COMMANDS[command] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Seconds of self time and number of calls per span name."""
        covered = [0] * len(self.names)
        for parent, cover in zip(self.parents, self.covers):
            if parent >= 0:
                covered[parent] += cover
        seconds: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            seconds[name] += (self.ends[i] - self.starts[i] - covered[i]) / 1e9
        return seconds, Counter(self.names)

    def distinct(self) -> dict[str, int]:
        return {"contexts": len(self._contexts), "searches": len(self._searches)}

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: index, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                handle.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")


def arguments(args: tuple, kwargs: dict, *names: str) -> tuple:
    """The leading positional-or-keyword arguments ``names`` of a call."""
    return tuple(args[i] if i < len(args) else kwargs[name] for i, name in enumerate(names))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    seconds, calls = tracer.self_times()
    counts = tracer.counts
    distinct = tracer.distinct()

    def prefixed(prefix: str) -> float:
        return sum(s for name, s in seconds.items() if name.startswith(prefix))

    lm_calls = calls["lm.next_token_logprobs"]
    searches = calls["beam.vbs_decode"]
    solves = calls["similarity.solve_transport"]
    sims = calls["similarity.dissimilarity"]
    return {
        "corpus.self_s": prefixed("corpus."),
        "lm.train.self_s": seconds["lm.train"],
        "lm.load.self_s": seconds["lm.load"],
        "lm.next_token_logprobs.calls": lm_calls,
        "lm.next_token_logprobs.self_s": seconds["lm.next_token_logprobs"],
        "lm.next_token_logprobs.us_per_call": _ratio(1e6 * seconds["lm.next_token_logprobs"], lm_calls),
        "lm.distinct_context_ratio": _ratio(distinct["contexts"], lm_calls),
        "beam.vbs_decode.calls": searches,
        "beam.vbs_decode.self_s": seconds["beam.vbs_decode"],
        "beam.expansions": counts["expansions"],
        "beam.sort_candidates": counts["sort_candidates"],
        "beam.self_ns_per_expansion": _ratio(1e9 * seconds["beam.vbs_decode"], counts["expansions"]),
        "beam.distinct_search_ratio": _ratio(distinct["searches"], searches),
        "bidi.rescore_terms.calls": calls["bidi.rescore_terms"],
        "bidi.rescore_terms.self_s": seconds["bidi.rescore_terms"],
        "bidi.rescoring_evals": counts["rescoring_evals"],
        "bidi.bidis_decode.self_s": seconds["bidi.bidis_decode"],
        "bidi.bidia_decode.self_s": seconds["bidi.bidia_decode"],
        "bidi.pairwise_sim_evals": counts["pairwise_sim_evals"],
        "similarity.solve_transport.calls": solves,
        "similarity.solve_transport.self_s": seconds["similarity.solve_transport"],
        "similarity.solve_transport.us_per_call": _ratio(1e6 * seconds["similarity.solve_transport"], solves),
        "similarity.dissimilarity.calls": sims,
        "similarity.dissimilarity.self_s": seconds["similarity.dissimilarity"],
        "similarity.bleu_t.self_s": seconds["similarity.bleu_t"],
        "similarity.load_embeddings.self_s": seconds["similarity.load_embeddings"],
        "similarity.degenerate_ratio": _ratio(counts["degenerate"], sims),
        "similarity.distinct_bag_pair_ratio": _ratio(counts["distinct_bag_pairs"], solves),
        "evaluation.self_s": prefixed("evaluation."),
        "cli.train.self_s": seconds["cli.train"],
        "cli.sweep.self_s": seconds["cli.sweep"],
        "cli.analyze.self_s": seconds["cli.analyze"],
        "cli.select_lambda.calls": calls["cli.select_lambda"],
        "cli.select_lambda.self_s": seconds["cli.select_lambda"],
    }
