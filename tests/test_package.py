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
        assert "scipy.optimize" not in sys.modules
    """)


def test_first_wmd_loads_the_solver_and_matches_the_oracle():
    # Integer coordinates and half-unit weights make every cost and flow
    # exact; the optimum moves a to d and b to c: 0.5 * 4 + 0.5 * 5.
    run_fresh("""
        import numpy as np
        from bidibeam.similarity import EmbeddingTable, wmd
        from oracles import oracle_wmd

        vectors = {"a": np.array([0.0, 0.0]), "b": np.array([3.0, 4.0]),
                   "c": np.array([6.0, 8.0]), "d": np.array([0.0, 4.0])}
        assert "scipy.optimize" not in sys.modules
        d = wmd(["a", "b"], ["c", "d"], EmbeddingTable(vectors))
        assert "scipy.optimize" in sys.modules
        assert d == oracle_wmd(["a", "b"], ["c", "d"], vectors, frozenset()) == 4.5, d
    """)
