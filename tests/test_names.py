"""Every public name the package and its benchmark refer to resolves.

A deleted or renamed function otherwise breaks only the code that looks it
up by name: the package's re-exports and the benchmark's tracer, which
wraps functions given as (module, attribute path) in ``perfbench/tracer.py``.
Every exception class the package defines derives from ``U22Error``.  The
import of the package loads ``u22lab.points`` and builds no Halton table.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import u22lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(u22lab.__path__, "u22lab."))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_reexports_resolve_to_public_names():
    # each `from .mod import name` in the package's __init__ names a listed
    # public name of that module, and the package holds the same object
    tree = ast.parse(Path(u22lab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"u22lab.{node.module}")
        for alias in node.names:
            assert alias.name in source.__all__, f"{node.module}.{alias.name}"
            assert getattr(u22lab, alias.asname or alias.name) is getattr(source, alias.name)


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path in tracer.TARGETS:
        assert callable(resolve(module, path)), f"{module}:{path}"


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_import_scipy(module):
    # SciPy is a test oracle only; an import anywhere in a module, deferred
    # ones inside functions included, would make it a runtime dependency
    tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def test_every_error_class_is_a_u22_error():
    # the CLI maps U22Error, and no other class, to exit 2
    found = {
        name: obj
        for module in MODULES
        for name, obj in vars(importlib.import_module(module)).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module
    }
    assert {"U22Error", "InvariantViolation", "NotFactorizable", "DecompositionFailed", "NotInGroup",
            "NonFinite", "DegenerateOrbit", "QuadratureFailed"} <= set(found)
    assert [name for name, cls in found.items() if not issubclass(cls, u22lab.U22Error)] == []


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter run on ``args`` that imports this package's tree."""
    src = str(Path(u22lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_lists_points_in_importtime():
    # perfbench/run.py reads import.points_s off these lines; without one
    # its median has no data
    lines = fresh_python("-X", "importtime", "-c", "import u22lab").stderr.splitlines()
    assert any(line.rsplit("|", 1)[-1].strip() == "u22lab.points" for line in lines)


def test_import_builds_no_halton_table():
    # the table is built on first use, never at import
    code = "import u22lab; print(u22lab.points._halton.cache_info().currsize)"
    assert fresh_python("-c", code).stdout == "0\n"
