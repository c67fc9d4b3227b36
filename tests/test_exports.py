"""Public surface: every name a module exports in ``__all__`` exists."""

import ast
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
    """Each name of ``swigc.__all__`` but ``__version__`` is imported from
    the module that defines it, and that module's ``__all__`` lists it."""
    home = {
        alias.name: f"swigc.{node.module}"
        for node in ast.parse(inspect.getsource(swigc)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    misplaced = []
    for name in swigc.__all__:
        if name == "__version__":
            continue
        module, obj = home[name], getattr(swigc, name)
        defined = obj.__module__ if inspect.isclass(obj) or inspect.isfunction(obj) else module
        if module != defined or name not in importlib.import_module(module).__all__:
            misplaced.append(f"{name} from {module}, defined in {defined}")
    assert misplaced == []
