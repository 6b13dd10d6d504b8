"""Every name a buchi4 module exports resolves."""

import importlib
import pkgutil

import buchi4


def test_every_name_in_all_resolves():
    modules = [
        name for _, name, _ in pkgutil.iter_modules(buchi4.__path__, "buchi4.")
    ]
    assert {"buchi4.poly", "buchi4.families", "buchi4.search", "buchi4.cli"} <= set(modules)
    for name in ["buchi4", *modules]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, (name, missing)
        assert len(set(exported)) == len(exported), name
