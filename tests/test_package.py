"""The package's public names: ``bidibeam.__all__``, what it binds, and
what importing it loads."""

import subprocess
import sys
import textwrap
from pathlib import Path

import bidibeam

TESTS = Path(__file__).resolve().parent


def test_every_exported_name_resolves_once():
    assert len(bidibeam.__all__) == len(set(bidibeam.__all__))
    missing = [name for name in bidibeam.__all__ if not hasattr(bidibeam, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from bidibeam import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(bidibeam.__all__)
    for name in bidibeam.__all__:
        assert namespace[name] is getattr(bidibeam, name)


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that turns every warning into an
    error, as the suite does; this process has scipy loaded already."""
    path = [str(Path(bidibeam.__file__).resolve().parents[1]), str(TESTS)]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         f"import sys\nsys.path[:0] = {path!r}\n" + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_commands_without_wmd_never_load_the_lp_solver():
    run_fresh("""
        import tempfile
        from pathlib import Path

        import bidibeam, bidibeam.cli
        from bidibeam.synth import synthetic_pairs, write_corpus_tsv

        with tempfile.TemporaryDirectory() as root:
            corpus = Path(root) / "corpus.tsv"
            write_corpus_tsv(synthetic_pairs(40, seed=0), corpus)
            flags = ["--corpus", str(corpus), "--split", "0.8,0.1,0.1", "--out", str(Path(root) / "run")]
            assert bidibeam.cli.main(["train", *flags]) == 0
            assert bidibeam.cli.main(["decode", *flags, "--algorithm", "bidis", "--B", "2"]) == 0
        assert "scipy" not in sys.modules
    """)


def test_first_wmd_loads_the_solver_and_matches_the_oracle():
    # The library's own transport solver serves a bidia-wmd sweep, wmd() and
    # solve_transport(), so none of them loads scipy; only the oracle does.
    # Integer coordinates and half-unit weights make every cost and flow
    # exact; the optimum moves a to d and b to c: 0.5 * 4 + 0.5 * 5.
    run_fresh("""
        import tempfile
        from pathlib import Path

        import numpy as np
        import bidibeam.cli
        from bidibeam.similarity import EmbeddingTable, TransportProblem, solve_transport, wmd
        from bidibeam.synth import corpus_words, synthetic_pairs, write_corpus_tsv, write_embeddings
        from oracles import oracle_wmd

        with tempfile.TemporaryDirectory() as root:
            pairs = synthetic_pairs(40, seed=0)
            corpus, vectors = Path(root) / "corpus.tsv", Path(root) / "vectors.txt"
            write_corpus_tsv(pairs, corpus)
            write_embeddings(vectors, corpus_words(pairs), dim=4, seed=2)
            flags = ["--corpus", str(corpus), "--split", "0.8,0.1,0.1", "--out", str(Path(root) / "run")]
            assert bidibeam.cli.main(["train", *flags]) == 0
            assert bidibeam.cli.main(["sweep", *flags, "--algorithms", "bidia-wmd",
                                      "--nb-list", "2,4", "--embeddings", str(vectors)]) == 0
        points = {"a": np.array([0.0, 0.0]), "b": np.array([3.0, 4.0]),
                  "c": np.array([6.0, 8.0]), "d": np.array([0.0, 4.0])}
        d = wmd(["a", "b"], ["c", "d"], EmbeddingTable(points))
        half = np.array([0.5, 0.5])
        flow, total = solve_transport(TransportProblem(half, half, np.array([[10.0, 4.0], [5.0, 7.0]])))
        assert flow.tolist() == [[0.0, 0.5], [0.5, 0.0]] and total == 4.5
        assert "scipy" not in sys.modules
        assert d == oracle_wmd(["a", "b"], ["c", "d"], points, frozenset()) == 4.5, d
    """)


def test_wmd_agreement_never_loads_the_lp_solver():
    # At T = 1 each half-beam holds the two single words a model likes most:
    # w4 and w6 for the regular model, w5 and w7 for the reverse one.  Pairs
    # (w4, w5) and (w6, w7) are two distinct problems that tie at distance
    # 1, and the agreement pick still solves no LP.
    run_fresh("""
        import numpy as np
        from bidibeam.beam import SearchParams
        from bidibeam.bidi import bidia_decode
        from bidibeam.corpus import RESERVED, Vocabulary
        from bidibeam.lm import REGULAR, REVERSE, LanguageModel
        from bidibeam.similarity import WMD_T, EmbeddingTable, SimilaritySpec

        class Fixed(LanguageModel):
            def __init__(self, vocab, direction, probabilities):
                self.vocab, self.direction = vocab, direction
                self.row = np.log(probabilities)

            def next_token_logprobs(self, source, prefix):
                return self.row

        vocab = Vocabulary(list(RESERVED) + ["w4", "w5", "w6", "w7"])
        regular = Fixed(vocab, REGULAR, [0.05, 0.05, 0.05, 0.05, 0.4, 0.05, 0.3, 0.05])
        reverse = Fixed(vocab, REVERSE, [0.05, 0.05, 0.05, 0.05, 0.05, 0.4, 0.05, 0.3])
        table = EmbeddingTable({"w4": np.array([0.0, 0.0]), "w5": np.array([1.0, 0.0]),
                                "w6": np.array([5.0, 5.0]), "w7": np.array([5.0, 6.0])})
        spec = SimilaritySpec(WMD_T, max_length=1, embeddings=table, vocab=vocab)
        out = bidia_decode(regular, reverse, (4,), SearchParams(4, 1), spec)
        assert [h.tokens for h in out.beam] == [(4,), (6,)]
        assert [h.tokens for h in out.reverse_beam] == [(5,), (7,)]
        assert (out.position, out.agreement.dissimilarity, out.report.exact_sim_evals) == (0, 1.0, 2)
        assert "scipy.optimize" not in sys.modules
    """)
