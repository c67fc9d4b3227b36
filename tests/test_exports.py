"""Public surface: every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import swigc


def test_every_exported_name_resolves():
    names = ["swigc"] + [f"swigc.{m.name}" for m in pkgutil.iter_modules(swigc.__path__)]
    modules = [importlib.import_module(n) for n in names]
    unresolved = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert unresolved == []
