"""Records against frozen dataclasses.

Every ``@record`` class in swigc must build, print, compare, hash, copy,
pickle and refuse assignment as a ``dataclasses.dataclass(frozen=True)``
twin made from the same annotations, defaults and class attributes does.
This is the one test module that imports ``dataclasses``: the twins are
the reference.  Importing the CLI must load neither ``dataclasses`` nor
``inspect``.
"""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import swigc
from swigc.errors import GraphError
from swigc.formula import Event, Term
from swigc.graph import _HAS_DEFAULT_FACTORY, NodeAttrs, NodeId, _record_repr, replace
from swigc.identify import Identified
from swigc.model import Hypothetical, StudySpec

from conftest import ROOT

# The factory of every field declared with default_factory(...).
FACTORIES = {(StudySpec, "strategies"): dict}

# What @record writes on a class; the twin gets dataclass's own.
_GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
              "__match_args__", "__dict__", "__weakref__"}


def _records() -> list[type]:
    modules = [importlib.import_module(f"swigc.{m.name}") for m in pkgutil.iter_modules(swigc.__path__)]
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and obj.__repr__ is _record_repr
        and obj is not NodeId
    }
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _records()


# The twins live in a module of their own, under their record's qualname,
# so pickle can find them.
_TWINS_MODULE = sys.modules.setdefault("_record_twins", types.ModuleType("_record_twins"))


def _twin(cls: type) -> type:
    ns = {k: v for k, v in vars(cls).items() if k not in _GENERATED}
    ns["__module__"] = _TWINS_MODULE.__name__
    ns["__qualname__"] = cls.__qualname__
    for name, param in inspect.signature(cls).parameters.items():
        if param.default is _HAS_DEFAULT_FACTORY:
            ns[name] = dataclasses.field(default_factory=FACTORIES[cls, name])
    twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))
    setattr(_TWINS_MODULE, cls.__qualname__, twin)
    return twin


TWINS = {cls: _twin(cls) for cls in RECORDS}

_atoms = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.text("ab", max_size=2)
    | st.fractions(max_denominator=4)
    | st.sampled_from([NodeId("A"), NodeId("Y", (("A", "a"),)), Term("Y"), Event(Term("M"), 0)])
)
_hashable = st.recursive(_atoms, lambda c: st.tuples(c, c) | st.frozensets(c, max_size=2), max_leaves=4)
_values = (
    _hashable
    | st.lists(_hashable, max_size=2)
    | st.dictionaries(st.text("ab", max_size=1), _hashable, max_size=2)
)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return "returns", fn(*args)
    except Exception as e:
        return type(e).__name__, str(e), isinstance(e, AttributeError)


def _round_trips(obj) -> list:
    return [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]


def _required(cls: type) -> int:
    return sum(p.default is p.empty for p in inspect.signature(cls).parameters.values())


def test_every_value_class_is_a_record():
    names = {c.__qualname__ for c in RECORDS}
    assert {"CompiledEstimand", "NodeAttrs", "StudySpec", "Term", "SoundnessReport"} <= names
    classes = [obj for m in pkgutil.iter_modules(swigc.__path__)
               for obj in vars(importlib.import_module(f"swigc.{m.name}")).values()
               if isinstance(obj, type)]
    assert not [c for c in classes if hasattr(c, "__dataclass_fields__")]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls, data):
    twin = TWINS[cls]
    names = cls.__match_args__
    assert names == twin.__match_args__
    assert {k: v for k, v in vars(cls).items() if not k.startswith("__")} == {
        k: v for k, v in vars(twin).items() if not k.startswith("__")
    }

    given_count = data.draw(st.integers(_required(cls), len(names)))
    a = data.draw(st.tuples(*[_values] * given_count))
    b = data.draw(st.just(a) | st.tuples(*[_values] * given_count))
    rec, tw = cls(*a), twin(*a)
    rec_b, tw_b = cls(*b), twin(*b)

    assert repr(rec) == repr(tw)
    assert (rec == rec_b) == (tw == tw_b)
    assert (rec != rec_b) == (tw != tw_b)
    other = RECORDS[(RECORDS.index(cls) + 1) % len(RECORDS)]
    other_args = (None,) * _required(other)
    assert rec.__eq__(other(*other_args)) is NotImplemented
    assert tw.__eq__(TWINS[other](*other_args)) is NotImplemented
    assert rec.__eq__(a) is tw.__eq__(a) is NotImplemented
    assert (rec == a, rec != a) == (tw == a, tw != a)
    assert _outcome(hash, rec) == _outcome(hash, tw)

    for name in (*names, "unknown"):
        assert _outcome(setattr, rec, name, 1) == _outcome(setattr, tw, name, 1)
        assert _outcome(delattr, rec, name) == _outcome(delattr, tw, name)
    assert repr(rec) == repr(tw)

    for rec_copy, tw_copy in zip(_round_trips(rec), _round_trips(tw)):
        assert type(rec_copy) is cls and type(tw_copy) is twin
        assert repr(rec_copy) == repr(tw_copy)
        assert (rec_copy == rec) == (tw_copy == tw)

    assert repr(replace(rec)) == repr(dataclasses.replace(tw))
    if names:
        changes = {data.draw(st.sampled_from(names)): data.draw(_values)}
        assert repr(replace(rec, **changes)) == repr(dataclasses.replace(tw, **changes))


def test_class_attributes_and_defaults_stay_on_the_class():
    assert Hypothetical.kind == "hypothetical" and Hypothetical(1).kind == "hypothetical"
    assert Identified.status == "identified"
    assert NodeAttrs.role == "covariate" and NodeAttrs.values == (0, 1)
    assert not hasattr(StudySpec, "strategies")


def test_a_study_without_strategies_gets_a_fresh_dict():
    first = StudySpec("s", None, "A", (0, 1), "Y")
    second = StudySpec("s", None, "A", (0, 1), "Y")
    assert first.strategies == {} and second.strategies == {}
    assert first.strategies is not second.strategies
    given = {"M": Hypothetical(0)}
    assert StudySpec("s", None, "A", (0, 1), "Y", given).strategies is given


_NODE_TWIN = dataclasses.dataclass(frozen=True)(
    type("NodeId", (), {"__annotations__": {"base": "str", "context": "tuple", "fixed": "bool"},
                        "context": (), "fixed": False})
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.text("AMY", min_size=1, max_size=2),
    st.lists(
        st.tuples(st.sampled_from("AM"), st.sampled_from(["a", 0, 1])), min_size=1, max_size=2
    ).map(tuple),
    st.booleans(),
)
def test_a_node_prints_and_refuses_assignment_as_a_frozen_dataclass(base, context, fixed):
    context = context[:1] if fixed else context  # a fixed node carries one assignment
    node, twin = NodeId(base, context, fixed), _NODE_TWIN(base, context, fixed)
    assert repr(node) == repr(twin)
    assert NodeId.__match_args__ == _NODE_TWIN.__match_args__
    for name in ("base", "context", "fixed", "label"):
        assert _outcome(setattr, node, name, 1) == _outcome(setattr, twin, name, 1)
        assert _outcome(delattr, node, name) == _outcome(delattr, twin, name)
    assert replace(node) is node
    if len(context) == 1:
        assert replace(node, fixed=not fixed) is NodeId(base, context, not fixed)
    else:
        with pytest.raises(GraphError, match="exactly one assignment"):
            replace(node, fixed=True)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = "import swigc.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
