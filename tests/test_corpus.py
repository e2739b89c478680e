"""Tokenization, vocabulary, corpus loading, and split behavior."""

import json

import pytest
from hypothesis import given
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
