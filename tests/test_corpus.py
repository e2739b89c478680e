"""Tokenization, vocabulary, corpus loading, and split behavior."""

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidibeam.corpus import (
    BOS_ID,
    EOS_ID,
    RESERVED,
    SEP_ID,
    UNK_ID,
    FormatError,
    ParameterError,
    SentencePair,
    Vocabulary,
    build_vocabulary,
    encode_pairs,
    load_corpus,
    reverse_target,
    split_corpus,
    tokenize,
)
from oracles import oracle_load_corpus, oracle_tokenize

EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))

# Pieces of corpus text: final-sigma contexts, a capital that lowercases to
# two characters, every split mark, line breaks and the whitespace that
# str.splitlines also breaks at, harmless "<" and spelled markers.
PIECES = ["a", "B", "z", "Σ", "ΑΣ", "σ", "İ", "'", ".", "!", "?", ",", " ", "\t",
          "\r", "\n", "\r\n", "\x0c", "\x1c", "\x85", "\u2028", "<", ">",
          "a<b", "<bos>", "<EOS>", "<Unk>"]
FIELD_PIECES = [p for p in PIECES if not set(p) & set("\t\r\n")]


def _field(pieces, min_size=0):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=6).map("".join)


# Mostly well-formed lines (two fields, one TAB, a line break), mixed with
# raw runs of pieces that can put a TAB, a break or a marker anywhere.
_LINE = st.one_of(
    st.builds(lambda s, t, end: f"{s}\t{t}{end}", _field(FIELD_PIECES, 1),
              _field(FIELD_PIECES, 1), st.sampled_from(["\n", "\r\n", "\r"])),
    _field(PIECES),
)
CORPUS_TEXT = st.lists(_LINE, min_size=1, max_size=8).map("".join)


def assert_loads_like_oracle(text: str, fmt: str) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"corpus.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        expected = oracle_load_corpus(text, fmt)
        if isinstance(expected, str):
            with pytest.raises(FormatError) as info:
                load_corpus(path, fmt)
            assert str(info.value) == f"{path}: {expected}"
        else:
            assert load_corpus(path, fmt) == expected


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("I like cats !") == ["i", "like", "cats", "!"]

    def test_empty_line(self):
        assert tokenize("") == []

    def test_apostrophe_and_attached_period(self):
        assert tokenize("Don't stop.") == ["don", "'", "t", "stop", "."]

    def test_punctuation_classes_become_single_tokens(self):
        assert tokenize("a,b?c!d.e'f") == [
            "a", ",", "b", "?", "c", "!", "d", ".", "e", "'", "f",
        ]

    def test_whitespace_only(self):
        assert tokenize(" \t  ") == []

    @given(st.text())
    def test_never_emits_empty_or_spaced_tokens(self, line):
        for token in tokenize(line):
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)

    @given(st.one_of(st.text(), _field(PIECES)))
    def test_matches_regex_oracle(self, line):
        assert tokenize(line) == oracle_tokenize(line)


class TestTokenizerFacts:
    """What reading a whole file at once relies on."""

    def test_regex_and_split_whitespace_are_one_set(self):
        regex = set(re.findall(r"\s", EVERY_CHARACTER))
        split = set(EVERY_CHARACTER) - set("".join(EVERY_CHARACTER.split()))
        assert regex == split
        assert len(split) == 29

    def test_lowercasing_makes_no_break_tab_mark_or_angle_bracket(self):
        structural = set("\t\n\r<" + ".!?,'")
        made = {ch for ch in EVERY_CHARACTER
                if ch not in structural and structural & set(ch.lower())}
        assert made == set()


class TestReverseTarget:
    def test_word_order_flips(self):
        assert reverse_target(["i", "like", "cats", "!"]) == (
            "!", "cats", "like", "i",
        )

    def test_empty(self):
        assert reverse_target([]) == ()

    def test_singleton(self):
        assert reverse_target(["a"]) == ("a",)

    @given(st.lists(st.integers()))
    def test_involution(self, target):
        assert list(reverse_target(reverse_target(target))) == target


class TestBuildVocabulary:
    def test_small_corpus_ids(self):
        pairs = [(["a", "b"], ["a"])]
        vocab = build_vocabulary(pairs)
        assert vocab.size == 6
        assert vocab.id_for("a") == 4
        assert vocab.id_for("b") == 5

    def test_reserved_markers_come_first(self):
        vocab = build_vocabulary([(["z"], ["z"])])
        assert tuple(vocab.decode(range(4))) == RESERVED

    def test_min_count_filters_everything(self):
        vocab = build_vocabulary([(["a", "b"], ["c"])], min_count=10)
        assert vocab.size == 4

    def test_frequency_then_lexicographic(self):
        pairs = [(["y", "x"], ["y", "x", "q", "q", "q"])]
        vocab = build_vocabulary(pairs)
        assert vocab.id_for("q") == 4
        assert vocab.id_for("x") == 5
        assert vocab.id_for("y") == 6

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ParameterError):
            build_vocabulary([(["a"], ["a"])], min_count=0)


class TestVocabulary:
    def test_unknown_surface_maps_to_unk(self):
        vocab = build_vocabulary([(["a"], ["a"])])
        assert vocab.id_for("zebra") == UNK_ID

    def test_surface_for_out_of_range(self):
        vocab = build_vocabulary([(["a"], ["a"])])
        with pytest.raises(ParameterError):
            vocab.surface_for(vocab.size)

    def test_encode_decode_round_trip(self):
        vocab = build_vocabulary([(["a", "b", "c"], ["a"])])
        words = ["c", "a", "b"]
        assert vocab.decode(vocab.encode(words)) == words

    def test_must_start_with_reserved(self):
        with pytest.raises(ParameterError):
            Vocabulary(["<eos>", "<bos>", "<sep>", "<unk>", "a"])

    def test_duplicate_surfaces_rejected(self):
        with pytest.raises(ParameterError):
            Vocabulary(list(RESERVED) + ["a", "a"])

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([(["cats", "like", "i"], ["!"])])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.decode(range(loaded.size)) == vocab.decode(range(vocab.size))
        assert path.read_text(encoding="utf-8").splitlines()[0] == "<bos>\t0"

    def test_only_newlines_end_a_line(self, tmp_path):
        vocab = Vocabulary(list(RESERVED) + ["a\x85b", "c\u2028d", "e\x0bf"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path).decode(range(7)) == vocab.decode(range(7))

    def test_load_rejects_gap_in_ids(self, tmp_path):
        path = tmp_path / "vocab.txt"
        lines = ["%s\t%d" % (s, i) for i, s in enumerate(RESERVED)]
        lines.append("a\t5")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError):
            Vocabulary.load(path)


class TestSentencePair:
    def test_rejects_empty_sides(self):
        with pytest.raises(ParameterError):
            SentencePair((), (4,))
        with pytest.raises(ParameterError):
            SentencePair((4,), ())

    def test_rejects_marker_ids(self):
        for bad in (BOS_ID, EOS_ID, SEP_ID):
            with pytest.raises(ParameterError):
                SentencePair((bad,), (4,))
            with pytest.raises(ParameterError):
                SentencePair((4,), (bad,))

    def test_unk_is_allowed(self):
        pair = SentencePair((UNK_ID,), (4,))
        assert pair.source == (UNK_ID,)


class TestEncodePairs:
    def test_out_of_vocabulary_becomes_unk(self):
        vocab = build_vocabulary([(["a"], ["b"])])
        pairs = encode_pairs([(["a", "zebra"], ["b"])], vocab)
        assert pairs[0].source == (vocab.id_for("a"), UNK_ID)

    def test_empty_side_rejected(self):
        vocab = build_vocabulary([(["a"], ["b"])])
        with pytest.raises(ParameterError):
            encode_pairs([([], ["b"])], vocab)

    def test_marker_ids_rejected_from_list_pairs(self):
        vocab = build_vocabulary([(["a"], ["b"])])
        with pytest.raises(ParameterError, match="marker ids"):
            encode_pairs([(["a"], ["b"]), (["a"], ["b", "<eos>"])], vocab)
        with pytest.raises(ParameterError, match="marker ids"):
            encode_pairs([(["<sep>"], ["b"])], vocab)

    def test_first_bad_pair_names_the_error(self):
        vocab = build_vocabulary([(["a"], ["b"])])
        with pytest.raises(ParameterError, match="marker ids"):
            encode_pairs([(["a"], ["b"]), (["a"], ["<bos>"]), ([], ["b"])], vocab)
        with pytest.raises(ParameterError, match="non-empty"):
            encode_pairs([(["a"], ["b"]), (["a"], []), (["a"], ["<bos>"])], vocab)

    @given(st.lists(st.tuples(*[st.lists(st.sampled_from(["a", "b", "zebra"]), min_size=1,
                                         max_size=4)] * 2), max_size=6))
    def test_equals_pair_by_pair_construction(self, pairs):
        vocab = build_vocabulary([(["a"], ["b"])])
        expected = [SentencePair(vocab.encode(s), vocab.encode(t)) for s, t in pairs]
        assert encode_pairs(iter(pairs), vocab) == expected

    def test_loader_rejects_blank_field_with_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\n \tb\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(path, "tsv")


class TestLoadCorpus:
    def test_tsv_pair(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("I like cats !\tMe too !\n", encoding="utf-8")
        pairs = load_corpus(path, "tsv")
        assert pairs == [(["i", "like", "cats", "!"], ["me", "too", "!"])]

    def test_tsv_preserves_line_order(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\nc\td\ne\tf\n", encoding="utf-8")
        assert [p[0] for p in load_corpus(path, "tsv")] == [["a"], ["c"], ["e"]]

    def test_tsv_wrong_tab_count_reports_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\nno tab here\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(path, "tsv")

    def test_jsonl_pair(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {"source": "Hi there", "target": "Hello !"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert load_corpus(path, "jsonl") == [(["hi", "there"], ["hello", "!"])]

    def test_jsonl_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"source": "a", "target": "b"}\n{"source": "a"}\n',
                        encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(path, "jsonl")

    def test_jsonl_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            load_corpus(path, "jsonl")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            load_corpus(path, "csv")

    @pytest.mark.parametrize("marker", RESERVED)
    def test_reserved_marker_reports_file_line_and_marker(self, tmp_path, marker):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tb\nhi\tsee you {marker.upper()} soon\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_corpus(path, "tsv")
        assert str(info.value) == (
            f"{path}: line 2: reserved marker {marker!r} in corpus text")

    def test_non_utf8_reports_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\tb\nc\t\xffd\n")
        with pytest.raises(FormatError) as info:
            load_corpus(path, "tsv")
        assert str(info.value) == f"{path}: line 2: not valid UTF-8 (byte 0xff)"

    def test_non_utf8_line_counts_carriage_returns(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\tb\rc\td\r\xff\n")
        with pytest.raises(FormatError) as info:
            load_corpus(path, "tsv")
        assert str(info.value) == f"{path}: line 3: not valid UTF-8 (byte 0xff)"


class TestLoadCorpusOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(CORPUS_TEXT)
    def test_tsv_matches_line_by_line_oracle(self, text):
        assert_loads_like_oracle(text, "tsv")

    _VALUE = st.one_of(_field(FIELD_PIECES), st.integers(), st.none(),
                       st.lists(st.just("a"), max_size=1))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.dictionaries(st.sampled_from(["source", "target", "other"]),
                                              _VALUE),
                              st.booleans(), st.sampled_from(["\n", "\r\n", "\r"])),
                    max_size=5))
    def test_jsonl_matches_line_by_line_oracle(self, records):
        text = "".join(json.dumps(record, ensure_ascii=escaped) + end
                       for record, escaped, end in records)
        assert_loads_like_oracle(text, "jsonl")

    @pytest.mark.parametrize("inside", ["\x0c", "\u2028", "\x0b", "\x85", "\x1d"])
    def test_only_newlines_end_a_line(self, tmp_path, inside):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a{inside}b\tc{inside}d\nno tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_corpus(path, "tsv")
        assert str(info.value) == f"{path}: line 2: expected exactly one TAB"
        path.write_text(f"a{inside}b\tc{inside}d\n", encoding="utf-8")
        assert load_corpus(path, "tsv") == [(["a", "b"], ["c", "d"])]

    def test_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a\tb\r\rc\td\r\ne\tf")
        assert load_corpus(path, "tsv") == [(["a"], ["b"]), (["c"], ["d"]), (["e"], ["f"])]

    # One row per error kind: format, file text, message after the file name.
    ERRORS = [
        ("tsv", "a\tb\nno tab\n", "line 2: expected exactly one TAB"),
        ("tsv", "a\tb\tc\n", "line 1: expected exactly one TAB"),
        ("tsv", "a\tb\n\n  \t \na\t.\n!\t \n", "line 5: empty source or target field"),
        ("tsv", "a\tb\nhi\tsee <Eos>\n", "line 2: reserved marker '<eos>' in corpus text"),
        ("tsv", "a<b\tc>\n<x>\ty\nd\t<sep>\n", "line 3: reserved marker '<sep>' in corpus text"),
        ("tsv", "a\t<bos>\nno tab\n", "line 1: reserved marker '<bos>' in corpus text"),
        ("tsv", "<unk>\t\n", "line 1: empty source or target field"),
        ("tsv", "\n \t \n\x0c\n", "corpus file contains no pairs"),
        ("tsv", "", "corpus file contains no pairs"),
        ("jsonl", '{"source": "a", "target": "b"}\nnot json\n', "line 2: bad JSON (Expecting value)"),
        ("jsonl", '["a", "b"]\n', "line 1: expected fields 'source' and 'target'"),
        ("jsonl", '{"source": "a"}\n', "line 1: expected fields 'source' and 'target'"),
        ("jsonl", '{"source": 5, "target": "b"}\n', "line 1: field 'source' must be a string"),
        ("jsonl", '{"source": "a", "target": ["b"]}\n', "line 1: field 'target' must be a string"),
        ("jsonl", '{"source": null, "target": null}\n', "line 1: field 'source' must be a string"),
        ("jsonl", '{"source": "a", "target": " , "}\n{"source": "", "target": "b"}\n',
         "line 2: empty source or target field"),
        ("jsonl", '{"source": "a<b", "target": "\\u003cBOS>"}\n',
         "line 1: reserved marker '<bos>' in corpus text"),
        ("jsonl", "\n\n", "corpus file contains no pairs"),
    ]

    @pytest.mark.parametrize("fmt, text, message", ERRORS)
    def test_first_bad_line_is_named(self, tmp_path, fmt, text, message):
        path = tmp_path / f"corpus.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(FormatError) as info:
            load_corpus(path, fmt)
        assert str(info.value) == f"{path}: {message}"
        assert oracle_load_corpus(text, fmt) == message


class TestSplitCorpus:
    def test_deterministic_for_a_seed(self):
        pairs = list(range(200))
        a = split_corpus(pairs, seed=3)
        b = split_corpus(pairs, seed=3)
        assert a == b

    def test_different_seeds_usually_differ(self):
        pairs = list(range(200))
        a = split_corpus(pairs, seed=1)
        b = split_corpus(pairs, seed=2)
        assert a.train != b.train

    def test_partition_is_disjoint_and_exhaustive(self):
        pairs = list(range(137))
        split = split_corpus(pairs, seed=0)
        merged = sorted(split.train + split.validation + split.test)
        assert merged == pairs
        assert len(split.train) + len(split.validation) + len(split.test) == 137

    def test_sizes_track_fractions(self):
        pairs = list(range(1000))
        split = split_corpus(pairs, fractions=(0.97, 0.01, 0.02), seed=0)
        assert abs(len(split.train) - 970) <= 1
        assert abs(len(split.validation) - 10) <= 1
        assert abs(len(split.test) - 20) <= 1

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            split_corpus([1, 2, 3], fractions=(0.5, 0.2, 0.2))
