"""Public names: everything a module lists in ``__all__`` exists, as one object."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_is_its_defining_module_s_object(name):
    # so cachegeo.SimConfig is cachegeo.simulate.SimConfig is cachegeo.model.SimConfig
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        if attr != "__version__":
            value = getattr(module, attr)
            assert getattr(importlib.import_module(value.__module__), attr) is value, attr


def test_a_plain_import_serves_the_simulate_submodule():
    # in a fresh interpreter, the package attribute imports the submodule,
    # and with it numpy, on first use
    code = ("import sys, cachegeo\n"
            "before = 'numpy' in sys.modules\n"
            "print(before, cachegeo.simulate.__name__, 'numpy' in sys.modules,\n"
            "      cachegeo.trial_stream is sys.modules['cachegeo.simulate'].trial_stream)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    assert result.stdout.split() == ["False", "cachegeo.simulate", "True", "True"]


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulated'"):
        cachegeo.simulated
