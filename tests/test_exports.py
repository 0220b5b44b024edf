"""Every name a pigouq module exports in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import pigouq

MODULES = ["pigouq"] + [f"pigouq.{info.name}" for info in pkgutil.iter_modules(pigouq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
