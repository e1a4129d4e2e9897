"""Every public name the package declares resolves to a live object.

The benchmark's span tracer looks up each ``__all__`` name with ``getattr``,
so a name left in ``__all__`` after its code is deleted breaks traced runs.
"""

import importlib
import inspect
import pkgutil

import pytest

import lpsample

MODULES = sorted(info.name for info in pkgutil.iter_modules(lpsample.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"lpsample.{name}")
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []


def test_package_reexports_only_declared_names():
    reexported = {
        attr: obj for attr, obj in vars(lpsample).items() if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert reexported
    undeclared = [
        attr for attr, obj in reexported.items() if attr not in importlib.import_module(obj.__module__).__all__
    ]
    assert undeclared == []
