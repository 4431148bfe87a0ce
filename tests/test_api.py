import importlib
import inspect
import types

import pytest

from opeq.errors import OpeqError

LAYERS = ("opeq.matcore", "opeq.douglas", "opeq.projpair", "opeq.oracle")


@pytest.mark.parametrize("name", LAYERS)
def test_every_all_name_resolves(name):
    # a stale entry breaks every caller that walks __all__ with getattr
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_only_layer_api():
    import opeq

    declared = set().union(*(importlib.import_module(name).__all__ for name in LAYERS))
    exported = {
        name: value
        for name, value in vars(opeq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    stray = [
        name
        for name, value in exported.items()
        if name not in declared and not (inspect.isclass(value) and issubclass(value, OpeqError))
    ]
    assert stray == []
