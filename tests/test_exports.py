"""Every exported name resolves, so no __all__ entry outlives what it names."""

import importlib
import inspect
import pkgutil

import pytest

import mdalign

MODULES = sorted(info.name for info in pkgutil.iter_modules(mdalign.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"mdalign.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_names_are_public_in_their_modules():
    """Each name the package re-exports is listed in the __all__ of the module defining it."""
    for name, value in vars(mdalign).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        assert name in importlib.import_module(value.__module__).__all__, name
