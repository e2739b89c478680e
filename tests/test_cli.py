"""End-to-end tests for the command-line interface.

Every test drives ``main`` in-process with a tiny synthetic corpus, so the
whole file stays fast while still exercising the real file formats.
"""

from __future__ import annotations

import csv
import io
import json
import re
import shutil
from collections import Counter
from types import SimpleNamespace

import pytest

from bidibeam import beam, bidi, cli
from bidibeam.cli import main
from bidibeam.corpus import Vocabulary, encode_pairs, load_corpus
from bidibeam.synth import (
    corpus_words,
    synthetic_pairs,
    write_corpus_tsv,
    write_embeddings,
)

from oracles import oracle_best_hypothesis, oracle_corpus_bleu4, oracle_word_position_frequency

# Small but non-trivial: 80 train / 10 validation / 10 test pairs.  The
# interpolation leans on the trigram so decodes produce real sentences
# instead of collapsing to the empty output.
BASE_FLAGS = [
    "--split", "0.8,0.1,0.1",
    "--seed", "7",
    "--order", "3",
    "--weights", "0.1,0.2,0.7",
    "--k", "0.01",
    "--T", "8",
    "--B", "4",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    pairs = synthetic_pairs(100, seed=11)
    corpus = root / "corpus.tsv"
    write_corpus_tsv(pairs, corpus)
    embeddings = root / "vectors.txt"
    write_embeddings(embeddings, corpus_words(pairs), dim=4, seed=2)
    return SimpleNamespace(root=root, corpus=corpus, embeddings=embeddings)


def train_into(workspace, out, *extra):
    return main(
        ["train", "--corpus", str(workspace.corpus), *BASE_FLAGS, *extra, "--out", str(out)]
    )


def decode_into(workspace, out, *extra):
    return main(
        ["decode", "--corpus", str(workspace.corpus), *BASE_FLAGS, *extra, "--out", str(out)]
    )


@pytest.fixture()
def trained(workspace, tmp_path):
    out = tmp_path / "run"
    assert train_into(workspace, out) == 0
    return out


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestTrain:
    def test_writes_model_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert train_into(workspace, out) == 0
        for name in ("vocab.txt", "lm_regular.json", "lm_reverse.json", "config_train.json"):
            assert (out / name).is_file()
        assert "trained 2 models" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert train_into(workspace, first) == 0
        assert train_into(workspace, second) == 0
        for name in ("vocab.txt", "lm_regular.json", "lm_reverse.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unreadable_corpus_fails_with_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["train", "--corpus", str(missing), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "nope.tsv" in err

    def test_empty_train_split_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--corpus", str(workspace.corpus),
                "--split", "0.0,0.5,0.5",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        assert "train split is empty" in capsys.readouterr().err

    def test_missing_out_flag_rejected(self, workspace, capsys):
        code = main(["train", "--corpus", str(workspace.corpus)])
        assert code == 1
        assert "--out" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_reach_the_run(self, workspace, tmp_path):
        out = tmp_path / "run"
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            f"corpus = {workspace.corpus}\n"
            "split = 0.8,0.1,0.1\n"
            "order = 2\n"
            "weights = 0.4,0.6\n"
            "B = 3\n"
            "T = 6\n"
            f"out = {out}\n",
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config)]) == 0
        resolved = json.loads((out / "config_train.json").read_text(encoding="utf-8"))
        assert resolved["beam_size"] == 3
        assert resolved["max_length"] == 6

    def test_flag_overrides_file_value(self, workspace, tmp_path):
        out = tmp_path / "run"
        config = tmp_path / "run.cfg"
        config.write_text(
            f"corpus = {workspace.corpus}\n"
            "split = 0.8,0.1,0.1\n"
            "order = 2\n"
            "weights = 0.4,0.6\n"
            "B = 3\n",
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config), "--B", "5", "--out", str(out)]) == 0
        resolved = json.loads((out / "config_train.json").read_text(encoding="utf-8"))
        assert resolved["beam_size"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_jobs_key_is_gone(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 2\n", encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        assert "unknown config keys: jobs" in capsys.readouterr().err

    def test_only_newlines_end_a_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes("a = b\x85c\r\nd = e\u2028f\r# g\x0bh = i\n".encode("utf-8"))
        assert cli.parse_config_file(config) == {"a": "b\x85c", "d": "e\u2028f"}
        config.write_bytes(b"seed = 1\rorder = 2\x0cx\n")
        assert main(["train", "--config", str(config)]) == 1
        assert f"{config}: config key order: must be an integer" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_invalid_alpha_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train",
                "--corpus", str(workspace.corpus),
                "--alpha", "1.5",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        assert "alpha" in capsys.readouterr().err


# The 21 flags every command takes and, for each option flag, its config-file
# key: both are public names that scripts and config files rely on.
CONFIG_KEYS = {
    "--corpus": "corpus", "--format": "format", "--split": "split", "--seed": "seed",
    "--order": "order", "--weights": "weights", "--k": "k", "--min-count": "min_count",
    "--B": "B", "--T": "T", "--alpha": "alpha", "--algorithm": "algorithm",
    "--lambda-grid": "lambda_grid", "--embeddings": "embeddings",
    "--stopwords": "stopwords", "--bp-mode": "bp_mode", "--nb-list": "nb_list",
    "--algorithms": "algorithms", "--save-beams": "save_beams", "--out": "out",
}
FLAGS = {"--config", *CONFIG_KEYS}
FLAG_OF = {key: flag for flag, key in CONFIG_KEYS.items()}

# One non-default value per option, as it would be typed.
SAMPLES = {
    "corpus": "c.tsv", "format": "jsonl", "split": "0.5, 0.25,0.25", "seed": "9",
    "order": "2", "weights": "0.4,0.6", "k": "0.5", "min_count": "3", "B": "6", "T": "7",
    "alpha": "1", "algorithm": "bidia-wmd", "lambda_grid": "0,3.5", "embeddings": "v.txt",
    "stopwords": "s.txt", "bp_mode": "multiply", "nb_list": "2,6", "algorithms": "bidis, vbs",
    "save_beams": "true", "out": "run",
}

# Values each option rejects: unparsable, non-finite, out of range or not a choice.
BAD_VALUES = [
    ("seed", "x"), ("order", "0"), ("min_count", "1.5"), ("min_count", "0"), ("B", "0"), ("T", "-3"),
    ("k", "inf"), ("k", "nan"), ("alpha", "1.5"), ("alpha", "-inf"),
    ("split", "nan,0.1,0.1"), ("split", "0.8,0.2"), ("weights", "nan,0.5,0.5"),
    ("weights", "0.2,x,0.5"), ("lambda_grid", "nan"), ("lambda_grid", "-1"),
    ("lambda_grid", ","), ("nb_list", "2,0"), ("format", "csv"), ("algorithm", "beam"),
    ("algorithms", "vbs,beam"), ("bp_mode", "add"), ("save_beams", "maybe"),
    ("k", "0"), ("split", "0.5,0.1,0.1"), ("order", "2"),
]


def config_of(argv):
    args = cli.build_parser().parse_args(["train", *argv])
    return cli.build_config(args)


class TestOptions:
    """Each option is declared once; flags and config keys keep their names."""

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_flags_are_pinned(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == FLAGS | {"--help"}

    def test_help_lists_choices(self, capsys):
        assert main(["decode", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--format {tsv,jsonl}" in out
        assert "--algorithm {vbs,bidis,bidia-bleu,bidia-wmd}" in out
        assert "--bp-mode {divide,multiply}" in out

    @pytest.mark.parametrize("flag", sorted(CONFIG_KEYS))
    def test_flag_and_config_key_give_the_same_config(self, flag, tmp_path):
        key = CONFIG_KEYS[flag]
        config = tmp_path / "run.cfg"
        # weights and order are checked against each other, so they travel together.
        pair = {"order": "weights", "weights": "order"}.get(key)
        lines = [(key, SAMPLES[key])] + ([(pair, SAMPLES[pair])] if pair else [])
        config.write_text("".join(f"{k} = {v}\n" for k, v in lines), encoding="utf-8")
        argv = []
        for k, v in lines:
            argv += [FLAG_OF[k]] if k == "save_beams" else [FLAG_OF[k], v]
        from_flag = config_of(argv)
        from_file = config_of(["--config", str(config)])
        assert from_flag == from_file
        assert from_flag != cli.RunConfig()

    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_bad_value_names_its_source(self, workspace, tmp_path, capsys, key, value):
        flag = FLAG_OF[key]
        base = ["train", "--corpus", str(workspace.corpus), "--out", str(tmp_path / "run")]
        if key != "save_beams":
            assert main([*base, f"{flag}={value}"]) == 1
            assert f"error: {flag}: " in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main([*base, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: {config}: config key {key}: " in err
        assert not (tmp_path / "run").exists()


class TestDecode:
    def test_vbs_writes_decodes_csv(self, workspace, trained, capsys):
        assert decode_into(workspace, trained, "--algorithm", "vbs") == 0
        rows = read_csv(trained / "decodes_vbs.csv")
        assert rows[0] == ["source", "reference", "output", "selected_index", "score", "expansions"]
        assert len(rows) == 11
        for row in rows[1:]:
            assert int(row[3]) >= 1
            assert float(row[4]) == float(row[4])
            assert int(row[5]) > 0
        assert "decoded 10 test pairs" in capsys.readouterr().out
        assert not (trained / "beams_vbs_nb4.jsonl").exists()

    def test_save_beams_persists_full_beams(self, workspace, trained):
        assert decode_into(workspace, trained, "--algorithm", "vbs", "--save-beams") == 0
        lines = (trained / "beams_vbs_nb4.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        record = json.loads(lines[0])
        assert record["algorithm"] == "vbs"
        assert record["beam_size"] == 4
        assert len(record["beam"]) == 4
        assert set(record["beam"][0]) == {"tokens", "logprob", "finished"}

    def test_bidis_records_selected_lambda(self, workspace, trained):
        code = decode_into(
            workspace, trained, "--algorithm", "bidis", "--lambda-grid", "0.0,0.5,1.0"
        )
        assert code == 0
        assert (trained / "decodes_bidis.csv").is_file()
        resolved = json.loads((trained / "config_decode.json").read_text(encoding="utf-8"))
        assert resolved["lambda_selected"] in (0.0, 0.5, 1.0)

    def test_bidia_wmd_needs_embeddings(self, workspace, trained, capsys):
        assert decode_into(workspace, trained, "--algorithm", "bidia-wmd") == 1
        assert "requires --embeddings" in capsys.readouterr().err

    def test_bidia_needs_even_beam(self, workspace, trained, capsys):
        code = decode_into(workspace, trained, "--algorithm", "bidia-bleu", "--B", "3")
        assert code == 1
        assert "even beam size" in capsys.readouterr().err

    def test_bidia_wmd_decodes_with_embeddings(self, workspace, trained):
        code = decode_into(
            workspace,
            trained,
            "--algorithm", "bidia-wmd",
            "--embeddings", str(workspace.embeddings),
        )
        assert code == 0
        assert (trained / "decodes_bidia-wmd.csv").is_file()

    def test_decode_without_models_fails(self, workspace, tmp_path, capsys):
        code = decode_into(workspace, tmp_path / "empty")
        assert code == 1
        assert "no trained models" in capsys.readouterr().err


class TestModelFileFaults:
    """A corrupt model file exits 1 with the file and the key named."""

    @pytest.mark.parametrize("corrupt, key", [
        (lambda payload: payload.pop("vocab_size"), "vocab_size"),
        (lambda payload: payload["counts"][0][1][0][1][0].__setitem__(1, -5), "counts"),
    ], ids=["missing-vocab_size", "negative-count"])
    def test_decode_names_file_and_key(self, workspace, trained, capsys, corrupt, key):
        path = trained / "lm_regular.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert decode_into(workspace, trained, "--algorithm", "vbs") == 1
        err = capsys.readouterr().err
        assert "lm_regular.json" in err
        assert f"key {key!r}" in err


class TestVocabularyFileFaults:
    """A vocabulary file the constructor rejects exits 1 with the file named."""

    @pytest.mark.parametrize("corrupt, problem", [
        (lambda surfaces: [], "reserved markers"),
        (lambda surfaces: [surfaces[1], surfaces[0], *surfaces[2:]], "reserved markers"),
        (lambda surfaces: [*surfaces, surfaces[-1]], "duplicate surfaces"),
    ], ids=["empty", "misordered-markers", "duplicate-surface"])
    def test_decode_names_file(self, workspace, trained, capsys, corrupt, problem):
        path = trained / "vocab.txt"
        surfaces = [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(f"{s}\t{i}\n" for i, s in enumerate(corrupt(surfaces))),
                        encoding="utf-8")
        assert decode_into(workspace, trained, "--algorithm", "vbs") == 1
        err = capsys.readouterr().err
        assert "vocab.txt: " in err and problem in err
        assert "runtime error" not in err


def spoil(path):
    """Put a byte that is never valid UTF-8 at the start of line 2."""
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff" + rest)
    return path


def bad_corpus(workspace, run, tmp_path):
    path = tmp_path / "bad_corpus.tsv"
    path.write_bytes(workspace.corpus.read_bytes())
    return ["train", "--corpus", str(spoil(path)), "--out", str(tmp_path / "other")]


def bad_run_file(name):
    def setup(workspace, run, tmp_path):
        spoil(run / name)
        return ["decode", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(run)]
    return setup


def bad_wmd_resource(flag):
    def setup(workspace, run, tmp_path):
        path = tmp_path / f"bad_{flag}.txt"
        path.write_bytes(workspace.embeddings.read_bytes() if flag == "embeddings" else b"the\nof\n")
        spoil(path)
        embeddings = path if flag == "embeddings" else workspace.embeddings
        stopwords = ["--stopwords", str(path)] if flag == "stopwords" else []
        return ["decode", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--algorithm",
                "bidia-wmd", "--embeddings", str(embeddings), *stopwords, "--out", str(run)]
    return setup


def bad_config(workspace, run, tmp_path):
    path = tmp_path / "bad_run.cfg"
    path.write_bytes(b"seed = 1\nk = 0.1\n")
    return ["train", "--config", str(spoil(path)), "--corpus", str(workspace.corpus),
            "--out", str(tmp_path / "other")]


def bad_beams(workspace, run, tmp_path):
    assert decode_into(workspace, run, "--save-beams") == 0
    spoil(run / "beams_vbs_nb4.jsonl")
    return ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(run)]


@pytest.mark.parametrize("setup, name", [
    (bad_corpus, "bad_corpus.tsv"),
    (bad_run_file("vocab.txt"), "vocab.txt"),
    (bad_run_file("lm_reverse.json"), "lm_reverse.json"),
    (bad_wmd_resource("embeddings"), "bad_embeddings.txt"),
    (bad_wmd_resource("stopwords"), "bad_stopwords.txt"),
    (bad_config, "bad_run.cfg"),
    (bad_beams, "beams_vbs_nb4.jsonl"),
], ids=["corpus", "vocabulary", "model", "embeddings", "stopwords", "config", "beams"])
def test_non_utf8_user_file_is_named(workspace, trained, tmp_path, capsys, setup, name):
    argv = setup(workspace, trained, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{name}: line 2: not valid UTF-8 (byte 0xff)" in err
    assert "runtime error" not in err


@pytest.fixture(scope="module")
def swept(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert train_into(workspace, out) == 0
    code = main(
        [
            "sweep",
            "--corpus", str(workspace.corpus),
            *BASE_FLAGS,
            "--nb-list", "2",
            "--algorithms", "vbs,bidis,bidia-bleu,bidia-wmd",
            "--lambda-grid", "0.0,0.5",
            "--embeddings", str(workspace.embeddings),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def analyzed(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyze")
    assert train_into(workspace, out) == 0
    code = main(
        [
            "sweep",
            "--corpus", str(workspace.corpus),
            *BASE_FLAGS,
            "--nb-list", "2,4",
            "--algorithms", "vbs,bidia-bleu",
            "--out", str(out),
        ]
    )
    assert code == 0
    code = main(
        ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(out)]
    )
    assert code == 0
    return out


class TestSweep:
    def test_one_row_per_cell(self, swept):
        rows = read_csv(swept / "sweep.csv")
        assert rows[0] == ["algorithm", "beam_size", "bleu4", "distinct1", "distinct2"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("vbs", "2"),
            ("bidis", "2"),
            ("bidia-bleu", "2"),
            ("bidia-wmd", "2"),
        ]
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 100.0
            assert 0.0 <= float(row[3]) <= 1.0
            assert 0.0 <= float(row[4]) <= 1.0

    def test_every_cell_persists_decodes_and_beams(self, swept):
        for algorithm in ("vbs", "bidis", "bidia-bleu", "bidia-wmd"):
            assert (swept / f"decodes_{algorithm}_nb2.csv").is_file()
            assert (swept / f"beams_{algorithm}_nb2.jsonl").is_file()

    def test_lambda_recorded_per_beam_size(self, swept):
        resolved = json.loads((swept / "config_sweep.json").read_text(encoding="utf-8"))
        assert set(resolved["lambda_selected"]) == {"2"}
        assert resolved["lambda_selected"]["2"] in (0.0, 0.5)

    def test_vbs_only_beam_size_ladder(self, workspace, tmp_path):
        out = tmp_path / "ladder"
        assert train_into(workspace, out) == 0
        code = main(
            [
                "sweep",
                "--corpus", str(workspace.corpus),
                *BASE_FLAGS,
                "--nb-list", "1,6,10,50",
                "--algorithms", "vbs",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("vbs", "1"),
            ("vbs", "6"),
            ("vbs", "10"),
            ("vbs", "50"),
        ]

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert train_into(workspace, out) == 0
            code = main(
                [
                    "sweep",
                    "--corpus", str(workspace.corpus),
                    *BASE_FLAGS,
                    "--nb-list", "2,4",
                    "--algorithms", "vbs,bidis",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out)
        first, second = outputs
        for name in ("sweep.csv", "beams_vbs_nb4.jsonl", "beams_bidis_nb2.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_odd_beam_size_with_agreement_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--corpus", str(workspace.corpus),
                *BASE_FLAGS,
                "--nb-list", "2,3",
                "--algorithms", "vbs,bidia-bleu",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        assert "must be even" in capsys.readouterr().err

    def test_cell_with_only_empty_outputs_scores_distinct_zero(self, tmp_path):
        # At k=1000 the smoothing swamps the counts and the empty output wins
        # every sentence; the sweep still finishes every cell.
        corpus = tmp_path / "corpus.tsv"
        write_corpus_tsv(synthetic_pairs(400, 3), corpus)
        flags = ["--corpus", str(corpus), "--split", "0.8,0.1,0.1", "--k", "1000",
                 "--out", str(tmp_path / "run")]
        assert main(["train", *flags]) == 0
        assert main(["sweep", *flags, "--nb-list", "2,4", "--algorithms", "vbs,bidis"]) == 0
        rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("vbs", "2"), ("bidis", "2"), ("vbs", "4"), ("bidis", "4")]
        assert all(r[3] == r[4] == "0.000000" for r in rows[1:])


class TestSearchMemo:
    """One sweep shares its searches across cells; no cell's output changes."""

    def test_sweep_runs_each_distinct_search_once(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert train_into(workspace, out) == 0
        # Every beam search builds exactly one "vbs" report in the beam module.
        built = []
        report_type = beam.ComplexityReport

        def counting_report(*args, **kwargs):
            built.append(report_type(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(beam, "ComplexityReport", counting_report)
        calls, runs = Counter(), Counter()

        def recording(decode):
            def wrapper(model, source, params, *rest):
                before = len(built)
                output = decode(model, source, params, *rest)
                key = (model, tuple(source), params)
                calls[key] += 1
                runs[key] += len(built) - before
                return output
            return wrapper

        for module in (cli, bidi):
            monkeypatch.setattr(module, "vbs_decode", recording(module.vbs_decode))
        code = main(["sweep", "--corpus", str(workspace.corpus), *BASE_FLAGS,
                     "--algorithms", ",".join(cli.ALGORITHMS), "--nb-list", "2,4,8",
                     "--embeddings", str(workspace.embeddings), "--out", str(out)])
        assert code == 0
        assert sum(calls.values()) > len(calls)
        assert set(runs.values()) == {1}

    def test_every_cell_equals_a_standalone_decode(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        assert train_into(workspace, out) == 0
        shared = [*BASE_FLAGS, "--lambda-grid", "0.0,0.5,2.0", "--embeddings",
                  str(workspace.embeddings)]
        code = main(["sweep", "--corpus", str(workspace.corpus), *shared,
                     "--algorithms", ",".join(cli.ALGORITHMS), "--nb-list", "2,4",
                     "--out", str(out)])
        assert code == 0
        for algorithm in cli.ALGORITHMS:
            for nb in (2, 4):
                alone = tmp_path / f"{algorithm}_{nb}"
                alone.mkdir()
                for name in ("vocab.txt", "lm_regular.json", "lm_reverse.json"):
                    shutil.copy(out / name, alone / name)
                code = main(["decode", "--corpus", str(workspace.corpus), *shared,
                             "--algorithm", algorithm, "--B", str(nb), "--save-beams",
                             "--out", str(alone)])
                assert code == 0
                assert ((alone / f"decodes_{algorithm}.csv").read_bytes()
                        == (out / f"decodes_{algorithm}_nb{nb}.csv").read_bytes())
                beams = f"beams_{algorithm}_nb{nb}.jsonl"
                assert (alone / beams).read_bytes() == (out / beams).read_bytes()


class TestAnalyze:
    def test_reports_exist(self, analyzed):
        for name in ("rank_histogram.csv", "oracle_bleu.csv", "word_position.csv"):
            assert (analyzed / name).is_file()

    def test_rank_histogram_vbs_mass_sits_at_rank_one(self, analyzed):
        rows = read_csv(analyzed / "rank_histogram.csv")
        assert rows[0] == ["algorithm", "beam_size", "rank", "count"]
        vbs4 = {int(r[2]): int(r[3]) for r in rows[1:] if r[0] == "vbs" and r[1] == "4"}
        assert vbs4[1] == 10
        assert sum(vbs4.values()) == 10
        assert set(vbs4) == {1, 2, 3, 4}

    def test_oracle_never_below_algorithm(self, analyzed):
        rows = read_csv(analyzed / "oracle_bleu.csv")
        assert rows[0] == ["algorithm", "beam_size", "algorithm_bleu4", "oracle_bleu4"]
        assert len(rows) == 5
        for row in rows[1:]:
            assert float(row[3]) >= float(row[2])

    def test_word_position_covers_both_orders(self, analyzed):
        rows = read_csv(analyzed / "word_position.csv")
        assert rows[0] == ["order", "position", "rank", "word", "count"]
        groups = {(r[0], r[1]) for r in rows[1:]}
        assert groups == {(o, p) for o in ("regular", "reverse") for p in ("1", "2", "3")}
        for order, position in groups:
            counts = [int(r[4]) for r in rows[1:] if (r[0], r[1]) == (order, position)]
            assert counts == sorted(counts, reverse=True)

    def test_reports_equal_an_oracle_rebuild(self, workspace, analyzed):
        """The three reports, rebuilt from the persisted beams and the corpus
        with the oracles alone, equal the files analyze wrote."""
        cells = []
        for path in analyzed.glob("beams_*.jsonl"):
            algorithm, nb = re.fullmatch(r"beams_(.+)_nb(\d+)\.jsonl", path.name).groups()
            lines = path.read_text(encoding="utf-8").splitlines()
            cells.append((algorithm, int(nb), [json.loads(line) for line in lines]))
        cells.sort(key=lambda cell: cell[:2])
        assert len(cells) == 4

        def core(member):
            return member["tokens"][:-1] if member["finished"] else member["tokens"]

        ranks = [["algorithm", "beam_size", "rank", "count"]]
        oracle = [["algorithm", "beam_size", "algorithm_bleu4", "oracle_bleu4"]]
        for algorithm, nb, records in cells:
            counts = Counter(r["selected_index"] for r in records)
            size = max(len(r["beam"]) for r in records)
            ranks += [[algorithm, nb, rank, counts[rank]] for rank in range(1, size + 1)]
            selected, best = [], []
            for r in records:
                cores = [core(member) for member in r["beam"]]
                pick = r["selected_index"] - 1 if r["algorithm"].startswith("bidia") else 0
                selected.append((cores[pick], r["reference"]))
                best.append((cores[oracle_best_hypothesis(cores, r["reference"]) - 1], r["reference"]))
            oracle.append([algorithm, nb, f"{oracle_corpus_bleu4(selected):.6f}",
                           f"{oracle_corpus_bleu4(best):.6f}"])

        vocab = Vocabulary.load(analyzed / "vocab.txt")
        pairs = encode_pairs(load_corpus(workspace.corpus), vocab)
        positions = [["order", "position", "rank", "word", "count"]]
        for order in ("regular", "reverse"):
            for position in (1, 2, 3):
                ranked = oracle_word_position_frequency(pairs, vocab, position, order)
                positions += [[order, position, rank, word, count]
                              for rank, (word, count) in enumerate(ranked, start=1)]

        for name, rows in (("rank_histogram.csv", ranks), ("oracle_bleu.csv", oracle),
                           ("word_position.csv", positions)):
            want = io.StringIO()
            csv.writer(want).writerows(rows)
            with open(analyzed / name, encoding="utf-8", newline="") as handle:
                assert handle.read() == want.getvalue(), name

    def test_without_beams_points_at_save_beams(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert train_into(workspace, out) == 0
        code = main(
            ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(out)]
        )
        assert code == 1
        assert "--save-beams" in capsys.readouterr().err

    def test_needs_only_the_vocabulary(self, workspace, trained, capsys):
        assert decode_into(workspace, trained, "--save-beams") == 0
        argv = ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(trained)]
        for name in ("lm_regular.json", "lm_reverse.json"):
            (trained / name).unlink()
        assert main(argv) == 0
        (trained / "vocab.txt").unlink()
        capsys.readouterr()
        assert main(argv) == 1
        assert "run the train command first" in capsys.readouterr().err


def corrupting(key, *value):
    """Delete ``key`` from a beam record (or its first beam member) or set it to ``value``."""
    def corrupt(record):
        target = record["beam"][0] if key in ("tokens", "logprob", "finished") else record
        if value:
            target[key] = value[0]
        else:
            del target[key]
        return record
    return corrupt


class TestBeamFileFaults:
    """A malformed persisted beam record exits 1 naming the file, line and key."""

    @pytest.mark.parametrize("corrupt, problem", [
        *((corrupting(key), f"key {key!r}") for key in (
            "selected_index", "tokens", "logprob", "finished", "beam", "reference", "algorithm")),
        (corrupting("selected_index", "1"), "key 'selected_index'"),
        (corrupting("selected_index", 0), "key 'selected_index'"),
        (corrupting("selected_index", 5), "key 'selected_index'"),
        (corrupting("selected_index", True), "key 'selected_index'"),
        (corrupting("beam", []), "key 'beam'"),
        (corrupting("beam", [3]), "key 'beam'"),
        (corrupting("reference", []), "key 'reference'"),
        (corrupting("tokens", "4 5"), "key 'tokens'"),
        (corrupting("tokens", [4, 10 ** 6]), "key 'tokens'"),
        (corrupting("tokens", [-1]), "key 'tokens'"),
        (corrupting("tokens", [[4]]), "key 'tokens'"),
        (corrupting("finished", "yes"), "key 'finished'"),
        (corrupting("logprob", "x"), "key 'logprob'"),
        (lambda record: [record], "expected a JSON object"),
    ])
    def test_analyze_names_file_line_and_key(self, workspace, trained, capsys, corrupt, problem):
        assert decode_into(workspace, trained, "--save-beams") == 0
        path = trained / "beams_vbs_nb4.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(corrupt(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        argv = ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(trained)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"beams_vbs_nb4.jsonl: line 2: {problem}" in err
        assert "runtime error" not in err

    def test_empty_beam_file_rejected(self, workspace, trained, capsys):
        (trained / "beams_vbs_nb4.jsonl").write_text("\n", encoding="utf-8")
        argv = ["analyze", "--corpus", str(workspace.corpus), *BASE_FLAGS, "--out", str(trained)]
        assert main(argv) == 1
        assert "beams_vbs_nb4.jsonl: holds no beam records" in capsys.readouterr().err


class TestCorpusStats:
    def test_prints_key_value_lines(self, workspace, capsys):
        code = main(
            [
                "corpus-stats",
                "--corpus", str(workspace.corpus),
                "--split", "0.8,0.1,0.1",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        stats = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert stats["pairs"] == "100"
        assert int(stats["train_pairs"]) + int(stats["validation_pairs"]) + int(
            stats["test_pairs"]
        ) == 100
        assert int(stats["vocabulary_size"]) > 4
        for key in ("mean_source_length", "mean_target_length", "target_distinct1", "target_distinct2"):
            assert float(stats[key]) >= 0.0

    def test_out_flag_adds_csv(self, workspace, tmp_path):
        out = tmp_path / "stats"
        code = main(
            [
                "corpus-stats",
                "--corpus", str(workspace.corpus),
                "--split", "0.8,0.1,0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "corpus_stats.csv")
        assert rows[0] == ["stat", "value"]
        assert len(rows) == 10
