"""The benchmark under otbench/ drives otkit by name: its tracer patches module
attributes, and its workloads call otkit's functions.  Each name it uses must
exist, so that a rename fails here and not only in a benchmark run.  The files
are read, never imported as a package, and nothing under otbench/ is written."""

import ast
import functools
import types
from pathlib import Path

import pytest

OTBENCH = Path(__file__).resolve().parents[1] / "otbench"


@pytest.fixture(scope="module")
def tracer():
    """otbench/tracer.py run as a fresh module, with no bytecode written; it
    imports every otkit module otbench patches."""
    path = OTBENCH / "tracer.py"
    module = types.ModuleType("otbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def dotted(node, roots):
    """`root.a.b` for an attribute chain whose first name is in roots."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in roots:
        return ".".join([roots[node.id], *reversed(attrs)])
    return None


def otkit_names(path):
    """Every otkit.<...> name a file uses: attribute chains from `otkit` or from
    a local name bound to one (`bounds = otkit.bounds`), and names imported
    `from otkit...`."""
    tree = ast.parse(path.read_text())
    roots = {"otkit": "otkit"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            chain = dotted(node.value, {"otkit": "otkit"})
            if chain:
                roots[node.targets[0].id] = chain
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("otkit"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = dotted(node, roots)
            if chain:
                names.add(chain)
    return names


def exists(name, otkit):
    try:
        functools.reduce(getattr, name.split(".")[1:], otkit)
    except AttributeError:
        return False
    return True


def test_every_tracer_patch_target_exists(tracer):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer.PATCHES
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["tracer", "workloads"])
def test_every_otkit_name_otbench_uses_exists(tracer, name):
    names = otkit_names(OTBENCH / f"{name}.py")
    assert "otkit.bench" in names
    assert [n for n in sorted(names) if not exists(n, tracer.otkit)] == []
