"""Source hygiene: no module of the package imports a name it never uses,
and every name the benchmark traces exists.

``__init__.py`` is exempt from the import check, since its imports are
the package's exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polydiff"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_benchmark_traced_names_resolve(monkeypatch):
    # the benchmark's own loader purges sys.modules, so import the modules here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    mods = {name: importlib.import_module(f"polydiff.{name}") for name in workloads.MODULE_NAMES}
    assert len(tracing.layer_targets(mods)) >= len(tracing.LAYERS)
