"""Public names: everything a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import cachegeo

# __main__ runs the command line when imported
MODULES = ["cachegeo"] + [
    f"cachegeo.{info.name}" for info in pkgutil.iter_modules(cachegeo.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
