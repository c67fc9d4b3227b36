"""Public surface: every name a module exports in ``__all__`` exists, and
every function the benchmark's tracer wraps is where it looks for it."""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import subprocess
import sys

import swigc

from conftest import ROOT


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


# Run in a fresh interpreter: import swigc and swigc.cli as the benchmark's
# child process does, then list each traced function that the tracer's
# lookup, sys.modules["swigc.<layer>"].<name>, does not find.
_LOOKUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import swigc
import swigc.cli
traced = json.loads(sys.stdin.read())
print(json.dumps([
    f"{layer}.{name}"
    for layer, names in traced.items()
    for name in names
    if not callable(getattr(sys.modules.get(f"swigc.{layer}"), name, None))
]))
"""


def test_every_traced_function_is_defined_in_its_layer():
    """A traced run reports a per-layer metric only for a function the
    tracer finds; one it misses drops that metric from the run's result."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    done = subprocess.run(
        [sys.executable, "-c", _LOOKUP, str(ROOT / "src")],
        input=json.dumps(tracing.TRACED), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
