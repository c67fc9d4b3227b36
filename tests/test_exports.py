"""Public surface: every name a module exports in ``__all__`` exists."""

import importlib
import inspect
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


def test_package_exports_are_exported_where_they_are_defined():
    """``swigc.__all__`` is ``__version__`` followed by each module's
    ``__all__``, names nothing twice, and binds each name to its module's
    object; every class or function a module lists is defined there."""
    modules = [
        importlib.import_module(f"swigc.{m.name}")
        for m in pkgutil.iter_modules(swigc.__path__)
        if m.name != "cli"
    ]
    modules.sort(key=lambda m: swigc.__all__.index(m.__all__[0]))
    assert swigc.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(swigc.__all__)) == len(swigc.__all__)
    misplaced = []
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            defined = obj.__module__ if inspect.isclass(obj) or inspect.isfunction(obj) else module.__name__
            if getattr(swigc, name) is not obj or defined != module.__name__:
                misplaced.append(f"{name} from {module.__name__}, defined in {defined}")
    assert misplaced == []
