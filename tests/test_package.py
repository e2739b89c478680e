"""The package's public names: ``bidibeam.__all__`` and what it binds."""

import bidibeam


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
