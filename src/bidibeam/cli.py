"""Command-line experiment harness.

Commands: train (fit both direction models), decode (one algorithm over the
test split), sweep (beam sizes x algorithms), analyze (rank histograms,
ideal re-ranking oracle, word-position statistics) and corpus-stats.  Every
run writes its fully resolved configuration next to its outputs, and a
fixed seed makes every output file bit-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from .beam import DecodeOutput, Hypothesis, SearchParams, vbs_decode
from .bidi import BidiSParams, bidia_decode, bidis_decode, select_lambda
from .corpus import (
    SentencePair,
    Vocabulary,
    build_vocabulary,
    encode_pairs,
    load_corpus,
    numbered_lines,
    read_user_text,
    split_corpus,
)
from .errors import BidibeamError, ConfigError
from .evaluation import best_hypothesis, corpus_bleu4, distinct_n, rank_histogram, word_position_frequency
from .lm import ConditionalNGramLM, REGULAR, REVERSE
from .similarity import (
    BLEU_T,
    BP_DIVIDE,
    BP_MULTIPLY,
    WMD_T,
    SimilaritySpec,
    default_stopwords,
    load_embeddings,
    load_stopwords,
)

ALGORITHMS = ("vbs", "bidis", "bidia-bleu", "bidia-wmd")

DECODES_HEADER = ("source", "reference", "output", "selected_index", "score", "expansions")
SWEEP_HEADER = ("algorithm", "beam_size", "bleu4", "distinct1", "distinct2")
RANK_HEADER = ("algorithm", "beam_size", "rank", "count")
ORACLE_HEADER = ("algorithm", "beam_size", "algorithm_bleu4", "oracle_bleu4")
WORD_POSITION_HEADER = ("order", "position", "rank", "word", "count")

_BEAMS_FILE_RE = re.compile(r"beams_(?P<alg>[a-z-]+)_nb(?P<nb>\d+)\.jsonl$")


def _number(kind: type, low: float = -math.inf, high: float = math.inf) -> Callable[[str], object]:
    """A parser for one int or finite float within [low, high]."""
    what = "an integer" if kind is int else "a finite number"
    if low > -math.inf:
        what += f" >= {low}" if high == math.inf else f" in [{low}, {high}]"

    def parse(text: str) -> object:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high or abs(value) == math.inf:
            raise ValueError(f"must be {what}, got {text!r}")
        return value

    return parse


def _list(parse: Callable[[str], object], length: int = 0) -> Callable[[str], tuple]:
    """A parser for a comma-separated list; ``length`` 0 means any but empty."""

    def parse_list(text: str) -> tuple:
        values = tuple(parse(part.strip()) for part in text.split(",") if part.strip())
        if not values or length and len(values) != length:
            raise ValueError(f"expected {length or 'one or more'} comma-separated values, got {text!r}")
        return values

    return parse_list


def _checked(parse: Callable[[str], object], ok: Callable[[object], bool], what: str) -> Callable[[str], object]:
    """``parse``, then reject a value that is not ``ok``; ``what`` says what it must be."""

    def parse_checked(text: str) -> object:
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {text!r}")
        return value

    return parse_checked


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _option(default, help: str, parse=str, choices: tuple = (), key: str | None = None):
    """A RunConfig field declaring one option; ``key`` only where it is not the name."""
    return field(
        default=default, metadata={"help": help, "parse": parse, "choices": choices, "key": key}
    )


@dataclass
class RunConfig:
    """Every knob of a run, each declared once: flags win over config-file values.

    A field's metadata holds its help text, its value parser (which also
    rejects out-of-range values), its allowed values and, where it differs
    from the field name, its config-file key.  The flag is "--" plus the key
    with "_" spelled "-".
    """

    corpus: str | None = _option(None, "parallel corpus file")
    format: str = _option("tsv", "corpus file format", choices=("tsv", "jsonl"))
    split: tuple[float, float, float] = _option(
        (0.97, 0.01, 0.02),
        "train,validation,test fractions",
        _checked(_list(_number(float, 0), 3), lambda split: abs(sum(split) - 1.0) <= 1e-9,
                 "three fractions that sum to 1"),
    )
    seed: int = _option(0, "shuffle seed", _number(int))
    order: int = _option(3, "model n-gram order", _number(int, 1))
    weights: tuple[float, ...] = _option(
        (0.2, 0.3, 0.5), "interpolation weights, low to high order", _list(_number(float))
    )
    k: float = _option(
        0.1, "additive smoothing constant", _checked(_number(float), lambda k: k > 0, "a number > 0")
    )
    min_count: int = _option(1, "vocabulary cutoff", _number(int, 1))
    beam_size: int = _option(10, "beam size", _number(int, 1), key="B")
    max_length: int = _option(20, "maximum decode length", _number(int, 1), key="T")
    alpha: float = _option(0.6, "length penalty exponent", _number(float, 0, 1))
    algorithm: str = _option("vbs", "decoding algorithm", choices=ALGORITHMS)
    lambda_grid: tuple[float, ...] = _option(
        (0.0, 0.25, 0.5, 1.0, 2.0, 4.0), "candidate reverse weights", _list(_number(float, 0))
    )
    embeddings: str | None = _option(None, "word embedding text file")
    stopwords: str | None = _option(None, "stopword list, one word per line")
    bp_mode: str = _option(
        BP_DIVIDE, "how WMD combines with the brevity penalty", choices=(BP_DIVIDE, BP_MULTIPLY)
    )
    nb_list: tuple[int, ...] = _option((2, 4, 8), "beam sizes to sweep", _list(_number(int, 1)))
    algorithms: tuple[str, ...] = _option(ALGORITHMS, "algorithms to sweep", _list(str), ALGORITHMS)
    save_beams: bool = _option(False, "persist full beams for later analysis", _parse_bool)
    out: str | None = _option(None, "output directory")


def _key(option: Field) -> str:
    return option.metadata["key"] or option.name


def _flag(option: Field) -> str:
    return "--" + _key(option).replace("_", "-")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config file; # starts a comment line."""
    values: dict[str, str] = {}
    try:
        text = read_user_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in numbered_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse(option: Field, text: str, source: str) -> object:
    """One option value from text; ``source`` names the flag or config key."""
    try:
        value = option.metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    choices = option.metadata["choices"]
    for item in value if isinstance(value, tuple) else (value,):
        if choices and item not in choices:
            raise ConfigError(f"{source}: unknown value {item!r}; pick one of {', '.join(choices)}")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values and flags; flags win."""
    path = getattr(args, "config", None)
    file_values = parse_config_file(path) if path else {}
    unknown = set(file_values) - {_key(option) for option in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    sources: dict[str, str] = {}  # where each option that was set came from
    for option in fields(RunConfig):
        if _key(option) in file_values:
            sources[option.name] = f"{path}: config key {_key(option)}"
            setattr(cfg, option.name, _parse(option, file_values[_key(option)], sources[option.name]))
        flag_value = getattr(args, option.name, None)
        if isinstance(flag_value, str):
            flag_value = _parse(option, flag_value, _flag(option))
        if flag_value is not None:
            sources[option.name] = _flag(option)
            setattr(cfg, option.name, flag_value)
    if len(cfg.weights) != cfg.order:
        named = " and ".join(sources[name] for name in ("order", "weights") if name in sources)
        raise ConfigError(
            f"{named}: need exactly one interpolation weight per order "
            f"(order {cfg.order}, {len(cfg.weights)} weights)"
        )
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for option in fields(RunConfig):
        if option.name in names and getattr(cfg, option.name) is None:
            raise ConfigError(f"missing required option {_flag(option)}")


def _write_config(out: Path, command: str, cfg: RunConfig, extra: dict | None = None) -> None:
    payload = asdict(cfg)
    payload["command"] = command
    if extra:
        payload.update(extra)
    path = out / f"config_{command}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _prepare_splits(cfg: RunConfig) -> tuple:
    try:
        surface_pairs = load_corpus(cfg.corpus, cfg.format)
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {cfg.corpus}: {exc}") from None
    return split_corpus(surface_pairs, cfg.split, cfg.seed)


def _untrained(out: str | Path) -> ConfigError:
    return ConfigError(f"no trained models under {out}; run the train command first")


def _load_vocab(cfg: RunConfig) -> Vocabulary:
    try:
        return Vocabulary.load(Path(cfg.out) / "vocab.txt")
    except OSError:
        raise _untrained(cfg.out) from None


def _load_models(cfg: RunConfig) -> tuple[Vocabulary, ConditionalNGramLM, ConditionalNGramLM]:
    out = Path(cfg.out)
    vocab = _load_vocab(cfg)
    try:
        regular = ConditionalNGramLM.load(out / "lm_regular.json", vocab)
        reverse = ConditionalNGramLM.load(out / "lm_reverse.json", vocab)
    except OSError:
        raise _untrained(out) from None
    return vocab, regular, reverse


def _build_measure(cfg: RunConfig, vocab: Vocabulary, kind: str) -> SimilaritySpec:
    if kind == BLEU_T:
        return SimilaritySpec(kind=BLEU_T, max_length=cfg.max_length, bp_mode=cfg.bp_mode)
    if cfg.embeddings is None:
        raise ConfigError("bidia-wmd requires --embeddings")
    try:
        stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else default_stopwords()
        embeddings = load_embeddings(cfg.embeddings)
    except OSError as exc:
        raise ConfigError(f"cannot read similarity resources: {exc}") from None
    return SimilaritySpec(
        kind=WMD_T,
        max_length=cfg.max_length,
        bp_mode=cfg.bp_mode,
        embeddings=embeddings,
        stopwords=stopwords,
        vocab=vocab,
    )


def _load_grid(cfg: RunConfig, algorithms: Sequence[str], beam_sizes: Sequence[int]) -> tuple:
    """Check the algorithm x beam-size grid, then load the models and the
    validation and test splits, each encoded once for every cell."""
    _require(cfg, "corpus", "out")
    if any(a.startswith("bidia") for a in algorithms):
        for nb in beam_sizes:
            if nb % 2 != 0:
                raise ConfigError(
                    f"beam size {nb} must be even: agreement decoding needs an even beam size"
                )
    models = _load_models(cfg)
    split = _prepare_splits(cfg)
    return models, (encode_pairs(split.validation, models[0]), encode_pairs(split.test, models[0]))


def _selected_score(output: DecodeOutput) -> float:
    return output.scores[output.beam.index(output.selected)]


def _write_decodes_csv(
    path: Path,
    pairs: Sequence[SentencePair],
    outputs: Sequence[DecodeOutput],
    vocab: Vocabulary,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECODES_HEADER)
        for pair, output in zip(pairs, outputs):
            writer.writerow(
                (
                    " ".join(vocab.decode(pair.source)),
                    " ".join(vocab.decode(pair.target)),
                    " ".join(vocab.decode(output.selected.core())),
                    output.selected_index,
                    repr(_selected_score(output)),
                    output.report.expansions,
                )
            )


def _write_beams_jsonl(
    path: Path,
    pairs: Sequence[SentencePair],
    outputs: Sequence[DecodeOutput],
    algorithm: str,
    beam_size: int,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, (pair, output) in enumerate(zip(pairs, outputs)):
            record = {
                "index": i,
                "algorithm": algorithm,
                "beam_size": beam_size,
                "source": list(pair.source),
                "reference": list(pair.target),
                "selected_index": output.selected_index,
                "beam": [
                    {
                        "tokens": list(h.tokens),
                        "logprob": h.logprob,
                        "finished": h.finished,
                    }
                    for h in output.beam
                ],
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _evaluate(pairs: Sequence[SentencePair], outputs: Sequence[DecodeOutput]) -> tuple[float, float, float]:
    candidates = [output.selected.core() for output in outputs]
    bleu = corpus_bleu4([(c, p.target) for c, p in zip(candidates, pairs)])
    return bleu, distinct_n(candidates, 1), distinct_n(candidates, 2)


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out")
    split = _prepare_splits(cfg)
    if not split.train:
        raise ConfigError("train split is empty; adjust --split")
    vocab = build_vocabulary(split.train, cfg.min_count)
    train_pairs = encode_pairs(split.train, vocab)
    regular = ConditionalNGramLM.train(
        train_pairs, vocab, cfg.order, REGULAR, cfg.weights, cfg.k
    )
    reverse = ConditionalNGramLM.train(
        train_pairs, vocab, cfg.order, REVERSE, cfg.weights, cfg.k
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    regular.save(out / "lm_regular.json")
    reverse.save(out / "lm_reverse.json")
    _write_config(out, "train", cfg)
    print(
        f"trained 2 models on {len(train_pairs)} pairs "
        f"(vocabulary {vocab.size}, validation {len(split.validation)}, test {len(split.test)})"
    )
    return 0


def _decode_cell(
    cfg: RunConfig,
    algorithm: str,
    beam_size: int,
    models: tuple[Vocabulary, ConditionalNGramLM, ConditionalNGramLM],
    encoded: tuple[Sequence[SentencePair], Sequence[SentencePair]],
    searches: dict,
    decodes_name: str,
    save_beams: bool,
) -> tuple[float, tuple[float, float, float]]:
    """Decode the test split as one cell of the grid and write its files.

    bidis first picks its reverse weight on the validation split.
    ``encoded`` holds the encoded validation and test splits.  The cell
    writes ``decodes_name`` and, with ``save_beams``, its beams file;
    ``searches`` is the command's search memo.  Returns the weight (0.0
    unless bidis) and the cell's BLEU-4, distinct-1 and distinct-2.
    """
    vocab, regular, reverse = models
    validation, test_pairs = encoded
    search = SearchParams(beam_size, cfg.max_length, cfg.alpha)
    lam = 0.0
    if algorithm == "vbs":
        decode = lambda pair: vbs_decode(regular, pair.source, search, searches)
    elif algorithm == "bidis":
        lam = select_lambda(regular, reverse, validation, search, cfg.lambda_grid, searches)
        params = BidiSParams(search, lam)
        decode = lambda pair: bidis_decode(regular, reverse, pair.source, params, searches)
    else:
        measure = _build_measure(cfg, vocab, BLEU_T if algorithm == "bidia-bleu" else WMD_T)
        decode = lambda pair: bidia_decode(
            regular, reverse, pair.source, search, measure, searches
        )
    if not test_pairs:
        raise ConfigError("test split is empty; adjust --split")
    outputs = [decode(pair) for pair in test_pairs]
    out = Path(cfg.out)
    _write_decodes_csv(out / decodes_name, test_pairs, outputs, vocab)
    if save_beams:
        _write_beams_jsonl(
            out / f"beams_{algorithm}_nb{beam_size}.jsonl", test_pairs, outputs, algorithm, beam_size
        )
    return lam, _evaluate(test_pairs, outputs)


def cmd_decode(cfg: RunConfig) -> int:
    models, encoded = _load_grid(cfg, (cfg.algorithm,), (cfg.beam_size,))
    lam, (bleu, d1, d2) = _decode_cell(
        cfg, cfg.algorithm, cfg.beam_size, models, encoded, {},
        f"decodes_{cfg.algorithm}.csv", cfg.save_beams,
    )
    extra = {"lambda_selected": lam} if cfg.algorithm == "bidis" else None
    _write_config(Path(cfg.out), "decode", cfg, extra)
    print(
        f"{cfg.algorithm}: decoded {len(encoded[1])} test pairs, "
        f"BLEU-4 {bleu:.3f}, distinct-1 {d1:.3f}, distinct-2 {d2:.3f}"
    )
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    models, encoded = _load_grid(cfg, cfg.algorithms, cfg.nb_list)
    out = Path(cfg.out)
    selected_lambdas: dict[str, float] = {}
    # One search memo for the whole sweep: bidis re-ranks the vbs beam,
    # both bidia measures share their half-beam searches, bidia's regular
    # half is vbs at half the beam size, and a repeated source (validation
    # or test) is searched once per beam size.
    searches: dict = {}
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_HEADER)
        for nb in cfg.nb_list:
            for algorithm in cfg.algorithms:
                lam, (bleu, d1, d2) = _decode_cell(
                    cfg, algorithm, nb, models, encoded, searches,
                    f"decodes_{algorithm}_nb{nb}.csv", True,
                )
                if algorithm == "bidis":
                    selected_lambdas[str(nb)] = lam
                writer.writerow((algorithm, nb, f"{bleu:.6f}", f"{d1:.6f}", f"{d2:.6f}"))
                print(f"swept {algorithm} at beam size {nb}: BLEU-4 {bleu:.3f}")
    _write_config(out, "sweep", cfg, {"lambda_selected": selected_lambdas})
    return 0


def _load_beam_records(path: Path, vocab_size: int) -> list[SimpleNamespace]:
    """Read a persisted beam file, checking each record as it is read."""
    ids = frozenset(range(vocab_size))
    records = []
    for lineno, line in numbered_lines(read_user_text(path, ConfigError)):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad JSON ({exc.msg})") from None
        records.append(_beam_record(record, ids, f"{path}: line {lineno}"))
    if not records:
        raise ConfigError(f"{path}: holds no beam records")
    return records


def _beam_record(record: object, ids: frozenset, where: str) -> SimpleNamespace:
    """The fields analyze reads from one persisted record, type- and range-checked.

    A token is valid when it equals one of ``ids``, the vocabulary's ids.
    """

    def check(ok: bool, key: str, kind: str) -> None:
        if not ok:
            raise ConfigError(f"{where}: key {key!r} must be {kind}")

    def id_list(value: object) -> bool:
        try:
            return type(value) is list and ids.issuperset(value)
        except TypeError:  # an unhashable element, such as a nested list
            return False

    if type(record) is not dict:
        raise ConfigError(f"{where}: expected a JSON object")
    check(type(record.get("algorithm")) is str, "algorithm", "a string")
    reference = record.get("reference")
    check(reference and id_list(reference), "reference", "a non-empty list of vocabulary ids")
    beam = record.get("beam")
    check(beam and type(beam) is list, "beam", "a non-empty list of objects")
    hypotheses = []
    for member in beam:
        check(type(member) is dict, "beam", "a non-empty list of objects")
        tokens, logprob, finished = member.get("tokens"), member.get("logprob"), member.get("finished")
        check(id_list(tokens), "tokens", "a list of vocabulary ids")
        check(type(logprob) in (int, float), "logprob", "a number")
        check(type(finished) is bool, "finished", "true or false")
        hypotheses.append(Hypothesis(tuple(tokens), logprob, finished))
    index = record.get("selected_index")
    check(type(index) is int and 1 <= index <= len(beam), "selected_index", "an integer in 1..len(beam)")
    return SimpleNamespace(
        algorithm=record["algorithm"],
        reference=tuple(reference),
        selected_index=index,
        beam=tuple(hypotheses),
    )


def cmd_analyze(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out")
    out = Path(cfg.out)
    beam_files = sorted(p for p in out.iterdir() if _BEAMS_FILE_RE.match(p.name))
    if not beam_files:
        raise ConfigError(
            f"no persisted beams under {out}; decode with --save-beams or run sweep first"
        )
    vocab = _load_vocab(cfg)
    split = _prepare_splits(cfg)
    all_pairs = encode_pairs(
        list(split.train) + list(split.validation) + list(split.test), vocab
    )

    cells = []
    for path in beam_files:
        match = _BEAMS_FILE_RE.match(path.name)
        records = _load_beam_records(path, vocab.size)
        cells.append((match.group("alg"), int(match.group("nb")), records))
    cells.sort(key=lambda cell: (cell[0], cell[1]))

    with open(out / "rank_histogram.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RANK_HEADER)
        for algorithm, nb, records in cells:
            histogram = rank_histogram(records, max(len(r.beam) for r in records))
            for rank, count in enumerate(histogram.counts, start=1):
                writer.writerow((algorithm, nb, rank, count))

    # One BLEU memo for every cell: cells share beams and references, and a
    # selected member is one its beam's oracle search has already counted.
    bleu_memo: dict = {}
    with open(out / "oracle_bleu.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ORACLE_HEADER)
        for algorithm, nb, records in cells:
            algo_pairs = []
            oracle_pairs = []
            for record in records:
                beam, reference = record.beam, record.reference
                selected = beam[0]
                if record.algorithm.startswith("bidia"):
                    selected = beam[record.selected_index - 1]
                best, _ = best_hypothesis(beam, reference, bleu_memo)
                algo_pairs.append((selected.core(), reference))
                oracle_pairs.append((best.core(), reference))
            writer.writerow(
                (
                    algorithm,
                    nb,
                    f"{corpus_bleu4(algo_pairs, bleu_memo):.6f}",
                    f"{corpus_bleu4(oracle_pairs, bleu_memo):.6f}",
                )
            )

    with open(out / "word_position.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(WORD_POSITION_HEADER)
        for order in ("regular", "reverse"):
            for position in (1, 2, 3):
                ranked = word_position_frequency(all_pairs, vocab, position, order)
                for rank, (word, count) in enumerate(ranked, start=1):
                    writer.writerow((order, position, rank, word, count))

    _write_config(out, "analyze", cfg)
    print(f"analyzed {len(cells)} decode cells into rank_histogram.csv, oracle_bleu.csv, word_position.csv")
    return 0


def cmd_corpus_stats(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    split = _prepare_splits(cfg)
    vocab = build_vocabulary(split.train, cfg.min_count) if split.train else None
    pairs = list(split.train) + list(split.validation) + list(split.test)
    source_words = sum(len(s) for s, _ in pairs)
    target_words = sum(len(t) for _, t in pairs)
    stats = [
        ("pairs", len(pairs)),
        ("train_pairs", len(split.train)),
        ("validation_pairs", len(split.validation)),
        ("test_pairs", len(split.test)),
        ("vocabulary_size", vocab.size if vocab else 0),
        ("mean_source_length", f"{source_words / len(pairs):.3f}"),
        ("mean_target_length", f"{target_words / len(pairs):.3f}"),
        ("target_distinct1", f"{distinct_n([t for _, t in pairs], 1):.6f}"),
        ("target_distinct2", f"{distinct_n([t for _, t in pairs], 2):.6f}"),
    ]
    for key, value in stats:
        print(f"{key}={value}")
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "corpus_stats.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("stat", "value"))
            writer.writerows(stats)
    return 0


COMMANDS = {
    "train": cmd_train,
    "decode": cmd_decode,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "corpus-stats": cmd_corpus_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidibeam",
        description="Train direction models and decode with beam search variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "fit regular and reverse models on the train split"),
        ("decode", "decode the test split with one algorithm"),
        ("sweep", "decode at several beam sizes with several algorithms"),
        ("analyze", "rank histograms, re-ranking oracle and word-position stats"),
        ("corpus-stats", "print corpus and split statistics"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="flat key=value config file; flags win")
        for option in fields(RunConfig):
            choices = option.metadata["choices"]
            if option.metadata["parse"] is _parse_bool:
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"metavar": "{" + ",".join(choices) + "}" if choices else None}
            command.add_argument(
                _flag(option), dest=option.name, help=option.metadata["help"], **kind
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        cfg = build_config(args)
        return COMMANDS[args.command](cfg)
    except BidibeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
