"""The benchmark's hold on the package: every name it reaches exists.

``perfbench/`` lives outside ``src/`` and reaches into ``repro`` two
ways: ``from repro... import name`` statements in its scripts, and the
layer tables of ``perfbench/tracer.py`` (``LAYERS`` and
``SERVICE_LAYERS``), whose attributes it wraps with span recorders.  A
refactor that renames or deletes one of those names breaks the
benchmark (``make_expected.py`` dies with ``ImportError``, a traced run
with ``KeyError``) without failing anything else under ``tests/``.
The names are read with ``ast``, so no benchmark code runs here.
"""

import ast
import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _scripts():
    return sorted(name for name in os.listdir(PERFBENCH)
                  if name.endswith(".py"))


def imported_names():
    """``(script, module, name)`` per ``from repro... import name``."""
    found = []
    for script in _scripts():
        for node in ast.walk(_parse(script)):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                found.extend((script, node.module, alias.name)
                             for alias in node.names)
    return found


def traced_attributes():
    """``(module, attribute)`` per entry of the tracer's layer tables."""
    found = []
    for node in _parse("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("LAYERS", "SERVICE_LAYERS")
                for target in node.targets):
            for _layer, module, attrs in ast.literal_eval(node.value):
                found.extend((module, attr) for attr in attrs)
    return found


def test_tables_are_found():
    assert len(imported_names()) > 10
    assert len(traced_attributes()) > 20


@pytest.mark.parametrize(
    "script,module,name", imported_names(),
    ids=lambda value: value.replace(".py", ""))
def test_perfbench_import_resolves(script, module, name):
    target = importlib.import_module(module)
    if not hasattr(target, name):
        importlib.import_module(f"{module}.{name}")     # a submodule


@pytest.mark.parametrize("module,attr", traced_attributes())
def test_traced_attribute_exists(module, attr):
    """The tracer wraps ``vars(owner)[name]``: the attribute must be
    defined on the named class or module itself, not inherited."""
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    if name == "*":
        assert any(inspect.isfunction(value) and not key.startswith("_")
                   for key, value in vars(owner).items())
    else:
        assert name in vars(owner), f"{module}:{attr}"
