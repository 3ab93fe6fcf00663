"""Source hygiene: no module of the package imports a name it never uses
or defines a function, class or method that nothing refers to, every
name the benchmark traces exists, and ``structure.py``, which holds the
monomial images of every family, imports from no package module but
``core``.

``__init__.py`` is exempt from both checks, since its imports are the
package's exports; for the same reason a re-export there is not a
reference.  References count from the other modules of the package and
from the benchmark under ``perfbench/``, whose tracer names what it
wraps in the strings of ``tracing.LAYERS``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polydiff"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "from fractions import Fraction\nimport math\nimport os.path\n\nmath.pi\n"
    assert unused_imports(source) == ["line 1: Fraction", "line 3: os"]


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every non-dunder function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(((node.name, node.lineno) for node in ast.walk(ast.parse(source))
                   if isinstance(node, kinds) and not (node.name.startswith("__")
                                                       and node.name.endswith("__"))),
                  key=lambda pair: pair[1])


def references(source: str) -> set[str]:
    """Names read in a module, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def traced_names(tracing_source: str) -> set[str]:
    """Every part of the dotted attribute names in ``LAYERS``."""
    layers = next(ast.literal_eval(node.value) for node in ast.parse(tracing_source).body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return {part for _, _, attrs in layers for name in attrs or () for part in name.split(".")}


def unreferenced(source: str, used: set[str]) -> list[str]:
    return [f"line {line}: {name}" for name, line in definitions(source) if name not in used]


@pytest.fixture(scope="module")
def used_names():
    sources = [p.read_text() for p in MODULES + sorted(PERFBENCH.glob("*.py"))]
    return set().union(*map(references, sources)) | traced_names(
        (PERFBENCH / "tracing.py").read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, used_names):
    assert unreferenced(path.read_text(), used_names) == []


def test_checker_flags_an_unused_def():
    source = ("class Box:\n    def __init__(self):\n        self.size = 0\n\n"
              "    def grow(self):\n        self.size += 1\n\n\ndef make():\n    return Box()\n")
    assert unreferenced(source, references(source)) == ["line 5: grow", "line 9: make"]
    assert unreferenced(source, references(source) | {"make", "grow"}) == []
    assert traced_names('LAYERS = (("core.matmul", "core", ("DenseMatrix.__mul__",)),'
                        ' ("series.all", "series", None))\n') == {"DenseMatrix", "__mul__"}


def test_benchmark_traced_names_resolve(monkeypatch):
    # the benchmark's own loader purges sys.modules, so import the modules here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    mods = {name: importlib.import_module(f"polydiff.{name}") for name in workloads.MODULE_NAMES}
    assert len(tracing.layer_targets(mods)) >= len(tracing.LAYERS)


def package_imports(source: str) -> list[str]:
    """The package modules a module imports from, relative or as ``polydiff.<name>``, sorted."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "polydiff"):
            module = (node.module or "").removeprefix("polydiff").lstrip(".")
            # "from . import a, b" and "from polydiff import a, b" name the modules themselves
            out.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(alias.name.removeprefix("polydiff.") for alias in node.names
                       if alias.name.startswith("polydiff."))
    return sorted(out)


def test_structure_imports_only_core():
    assert package_imports((PACKAGE / "structure.py").read_text()) == ["core"]


def test_checker_lists_package_imports():
    source = ("from __future__ import annotations\nimport math\nfrom . import hermite, series\n"
              "from .core import Field\nfrom .degree_graded import _monomial_rows\nimport polydiff.lagrange\n"
              "from polydiff.bernstein import diff_matrix_bernstein\nfrom polydiff import verify\n"
              "from fractions import Fraction\n")
    assert package_imports(source) == ["bernstein", "core", "degree_graded", "hermite", "lagrange", "series",
                                       "verify"]
