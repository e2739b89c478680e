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
import re
import sys
from dataclasses import asdict, dataclass
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


@dataclass
class RunConfig:
    """Every knob of a run; file values are overridden by command-line flags."""

    corpus: str | None = None
    format: str = "tsv"
    split: tuple[float, float, float] = (0.97, 0.01, 0.02)
    seed: int = 0
    order: int = 3
    weights: tuple[float, ...] = (0.2, 0.3, 0.5)
    k: float = 0.1
    min_count: int = 1
    beam_size: int = 10
    max_length: int = 20
    alpha: float = 0.6
    algorithm: str = "vbs"
    lambda_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    embeddings: str | None = None
    stopwords: str | None = None
    bp_mode: str = BP_DIVIDE
    nb_list: tuple[int, ...] = (2, 4, 8)
    algorithms: tuple[str, ...] = ALGORITHMS
    save_beams: bool = False
    out: str | None = None


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config file; # starts a comment line."""
    values: dict[str, str] = {}
    try:
        text = read_user_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


_CASTS: dict[str, Callable[[str], object]] = {
    "corpus": str,
    "format": str,
    "split": _parse_floats,
    "seed": int,
    "order": int,
    "weights": _parse_floats,
    "k": float,
    "min_count": int,
    "beam_size": int,
    "max_length": int,
    "alpha": float,
    "algorithm": str,
    "lambda_grid": _parse_floats,
    "embeddings": str,
    "stopwords": str,
    "bp_mode": str,
    "nb_list": _parse_ints,
    "algorithms": lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
    "save_beams": _parse_bool,
    "out": str,
}

# Config-file spellings that differ from the RunConfig field name.
_FILE_KEYS = {"beam_size": "B", "max_length": "T"}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values and flags; flags win."""
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for name, cast in _CASTS.items():
        file_key = _FILE_KEYS.get(name, name)
        if file_key in file_values:
            try:
                setattr(cfg, name, cast(file_values[file_key]))
            except ValueError as exc:
                raise ConfigError(f"config key {file_key}: {exc}") from None
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, cast(flag_value) if isinstance(flag_value, str) else flag_value)
    unknown = set(file_values) - {_FILE_KEYS.get(n, n) for n in _CASTS}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.format not in ("tsv", "jsonl"):
        raise ConfigError(f"unknown corpus format {cfg.format!r}")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}; pick one of {', '.join(ALGORITHMS)}")
    for name in cfg.algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r} in algorithms list")
    if cfg.bp_mode not in (BP_DIVIDE, BP_MULTIPLY):
        raise ConfigError(f"unknown bp-mode {cfg.bp_mode!r}")
    if cfg.beam_size < 1 or cfg.max_length < 1:
        raise ConfigError("B and T must be >= 1")
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError("alpha must lie in [0, 1]")
    if cfg.order < 1:
        raise ConfigError("order must be >= 1")
    if len(cfg.weights) != cfg.order:
        raise ConfigError("need exactly one interpolation weight per order")
    if len(cfg.split) != 3:
        raise ConfigError("split must be three comma-separated fractions")
    if any(lam < 0 for lam in cfg.lambda_grid) or not cfg.lambda_grid:
        raise ConfigError("lambda grid must be non-empty and non-negative")
    if any(nb < 1 for nb in cfg.nb_list) or not cfg.nb_list:
        raise ConfigError("beam-size list must be non-empty positive integers")


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            flag = "--" + _FILE_KEYS.get(name, name).replace("_", "-")
            raise ConfigError(f"missing required option {flag}")


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


def _load_models(cfg: RunConfig) -> tuple[Vocabulary, ConditionalNGramLM, ConditionalNGramLM]:
    out = Path(cfg.out)
    try:
        vocab = Vocabulary.load(out / "vocab.txt")
        regular = ConditionalNGramLM.load(out / "lm_regular.json", vocab)
        reverse = ConditionalNGramLM.load(out / "lm_reverse.json", vocab)
    except OSError:
        raise ConfigError(f"no trained models under {out}; run the train command first") from None
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


def _decoder(
    algorithm: str,
    regular: ConditionalNGramLM,
    reverse: ConditionalNGramLM,
    vocab: Vocabulary,
    search: SearchParams,
    cfg: RunConfig,
    lam: float,
    searches: dict,
) -> Callable[[SentencePair], DecodeOutput]:
    if algorithm == "vbs":
        return lambda pair: vbs_decode(regular, pair.source, search, searches)
    if algorithm == "bidis":
        params = BidiSParams(search, lam)
        return lambda pair: bidis_decode(regular, reverse, pair.source, params, searches)
    kind = BLEU_T if algorithm == "bidia-bleu" else WMD_T
    measure = _build_measure(cfg, vocab, kind)
    if search.beam_size % 2 != 0:
        raise ConfigError("agreement decoding needs an even beam size")
    return lambda pair: bidia_decode(regular, reverse, pair.source, search, measure, searches)


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
                    output.expansions,
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


def _decode_split(
    cfg: RunConfig,
    algorithm: str,
    beam_size: int,
    vocab: Vocabulary,
    regular: ConditionalNGramLM,
    reverse: ConditionalNGramLM,
    split,
    searches: dict,
) -> tuple[list[SentencePair], list[DecodeOutput], float]:
    """Decode the test split; ``searches`` is the command's search memo."""
    search = SearchParams(beam_size, cfg.max_length, cfg.alpha)
    lam = 0.0
    if algorithm == "bidis":
        validation = encode_pairs(split.validation, vocab)
        lam = select_lambda(regular, reverse, validation, search, cfg.lambda_grid, searches)
    decode = _decoder(algorithm, regular, reverse, vocab, search, cfg, lam, searches)
    test_pairs = encode_pairs(split.test, vocab)
    if not test_pairs:
        raise ConfigError("test split is empty; adjust --split")
    outputs = [decode(pair) for pair in test_pairs]
    return test_pairs, outputs, lam


def cmd_decode(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out")
    vocab, regular, reverse = _load_models(cfg)
    split = _prepare_splits(cfg)
    test_pairs, outputs, lam = _decode_split(
        cfg, cfg.algorithm, cfg.beam_size, vocab, regular, reverse, split, {}
    )
    out = Path(cfg.out)
    _write_decodes_csv(out / f"decodes_{cfg.algorithm}.csv", test_pairs, outputs, vocab)
    if cfg.save_beams:
        _write_beams_jsonl(
            out / f"beams_{cfg.algorithm}_nb{cfg.beam_size}.jsonl",
            test_pairs,
            outputs,
            cfg.algorithm,
            cfg.beam_size,
        )
    extra = {"lambda_selected": lam} if cfg.algorithm == "bidis" else None
    _write_config(out, "decode", cfg, extra)
    bleu, d1, d2 = _evaluate(test_pairs, outputs)
    print(
        f"{cfg.algorithm}: decoded {len(test_pairs)} test pairs, "
        f"BLEU-4 {bleu:.3f}, distinct-1 {d1:.3f}, distinct-2 {d2:.3f}"
    )
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out")
    if any(a.startswith("bidia") for a in cfg.algorithms):
        for nb in cfg.nb_list:
            if nb % 2 != 0:
                raise ConfigError(f"beam size {nb} must be even when agreement decoding is swept")
    vocab, regular, reverse = _load_models(cfg)
    split = _prepare_splits(cfg)
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
                test_pairs, outputs, lam = _decode_split(
                    cfg, algorithm, nb, vocab, regular, reverse, split, searches
                )
                if algorithm == "bidis":
                    selected_lambdas[str(nb)] = lam
                suffix = f"{algorithm}_nb{nb}"
                _write_decodes_csv(out / f"decodes_{suffix}.csv", test_pairs, outputs, vocab)
                _write_beams_jsonl(
                    out / f"beams_{suffix}.jsonl", test_pairs, outputs, algorithm, nb
                )
                bleu, d1, d2 = _evaluate(test_pairs, outputs)
                writer.writerow((algorithm, nb, f"{bleu:.6f}", f"{d1:.6f}", f"{d2:.6f}"))
                print(f"swept {algorithm} at beam size {nb}: BLEU-4 {bleu:.3f}")
    _write_config(out, "sweep", cfg, {"lambda_selected": selected_lambdas})
    return 0


def _load_beam_records(path: Path) -> list[dict]:
    records = []
    for lineno, line in enumerate(read_user_text(path, ConfigError).splitlines(), start=1):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad JSON ({exc.msg})") from None
    return records


def cmd_analyze(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out")
    out = Path(cfg.out)
    beam_files = sorted(p for p in out.iterdir() if _BEAMS_FILE_RE.match(p.name))
    if not beam_files:
        raise ConfigError(
            f"no persisted beams under {out}; decode with --save-beams or run sweep first"
        )
    vocab, _, _ = _load_models(cfg)
    split = _prepare_splits(cfg)
    all_pairs = encode_pairs(
        list(split.train) + list(split.validation) + list(split.test), vocab
    )

    cells = []
    for path in beam_files:
        match = _BEAMS_FILE_RE.match(path.name)
        cells.append((match.group("alg"), int(match.group("nb")), _load_beam_records(path)))
    cells.sort(key=lambda cell: (cell[0], cell[1]))

    with open(out / "rank_histogram.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RANK_HEADER)
        for algorithm, nb, records in cells:
            rank_space = max(len(r["beam"]) for r in records)
            runs = [SimpleNamespace(selected_index=r["selected_index"]) for r in records]
            histogram = rank_histogram(runs, rank_space)
            for rank, count in enumerate(histogram.counts, start=1):
                writer.writerow((algorithm, nb, rank, count))

    with open(out / "oracle_bleu.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ORACLE_HEADER)
        for algorithm, nb, records in cells:
            algo_pairs = []
            oracle_pairs = []
            for record in records:
                reference = tuple(record["reference"])
                beam = tuple(
                    Hypothesis(tuple(h["tokens"]), h["logprob"], h["finished"])
                    for h in record["beam"]
                )
                selected = beam[0]
                if record["algorithm"].startswith("bidia"):
                    selected = beam[record["selected_index"] - 1]
                best, _ = best_hypothesis(beam, reference)
                algo_pairs.append((selected.core(), reference))
                oracle_pairs.append((best.core(), reference))
            writer.writerow(
                (
                    algorithm,
                    nb,
                    f"{corpus_bleu4(algo_pairs):.6f}",
                    f"{corpus_bleu4(oracle_pairs):.6f}",
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
        command.add_argument("--corpus", help="parallel corpus file")
        command.add_argument("--format", choices=("tsv", "jsonl"), help="corpus file format")
        command.add_argument("--split", help="train,validation,test fractions")
        command.add_argument("--seed", type=int, help="shuffle seed")
        command.add_argument("--order", type=int, help="model n-gram order")
        command.add_argument("--weights", help="interpolation weights, low to high order")
        command.add_argument("--k", type=float, help="additive smoothing constant")
        command.add_argument("--min-count", type=int, dest="min_count", help="vocabulary cutoff")
        command.add_argument("--B", type=int, dest="beam_size", help="beam size")
        command.add_argument("--T", type=int, dest="max_length", help="maximum decode length")
        command.add_argument("--alpha", type=float, help="length penalty exponent")
        command.add_argument("--algorithm", choices=ALGORITHMS, help="decoding algorithm")
        command.add_argument("--lambda-grid", dest="lambda_grid", help="candidate reverse weights")
        command.add_argument("--embeddings", help="word embedding text file")
        command.add_argument("--stopwords", help="stopword list, one word per line")
        command.add_argument("--bp-mode", dest="bp_mode", choices=(BP_DIVIDE, BP_MULTIPLY), help="how WMD combines with the brevity penalty")
        command.add_argument("--nb-list", dest="nb_list", help="beam sizes to sweep")
        command.add_argument("--algorithms", help="algorithms to sweep")
        command.add_argument("--save-beams", dest="save_beams", action="store_true", default=None, help="persist full beams for later analysis")
        command.add_argument("--out", help="output directory")
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
