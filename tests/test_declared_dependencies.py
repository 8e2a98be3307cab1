"""Every third-party module the package imports is declared.

A clean ``pip install -e .`` installs only what ``pyproject.toml``
lists, so an import of an undeclared package breaks ``import repro`` on
a fresh machine while every developer box with the package lying around
stays green.  This walks the source with :mod:`ast` (nothing is
imported, no network) and checks each top-level module name against the
declared dependencies.  Imports guarded by an ``except ImportError``
handler are optional by construction and exempt.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def declared_modules() -> set[str]:
    """Import names of the ``[project] dependencies`` entries."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _guards_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(n, ast.Name) and n.id in (
        "ImportError", "ModuleNotFoundError", "Exception")
        for n in names)


def required_imports(tree: ast.AST) -> set[str]:
    """Top-level absolute module names imported outside optional guards."""
    optional: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
                _guards_import_error(h) for h in node.handlers):
            optional.update(id(n) for stmt in node.body
                            for n in ast.walk(stmt))
    found = set()
    for node in ast.walk(tree):
        if id(node) in optional:
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module):
            found.add(node.module.split(".")[0])
    return found


def undeclared(package: Path, declared: set[str]) -> dict[str, list[str]]:
    """``{module: [files]}`` for undeclared third-party imports."""
    missing: dict[str, list[str]] = {}
    for path in sorted(package.rglob("*.py")):
        for module in required_imports(ast.parse(path.read_text())):
            if (module in sys.stdlib_module_names or module == "repro"
                    or module in declared):
                continue
            missing.setdefault(module, []).append(
                path.relative_to(package).as_posix())
    return missing


def test_every_third_party_import_is_declared():
    missing = undeclared(PACKAGE, declared_modules())
    assert not missing, (
        f"imported under src/repro but not in pyproject.toml "
        f"dependencies: {missing}")


def test_checker_flags_undeclared_and_spares_optional(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "import numpy as np\n"
        "from scipy import signal\n"
        "from . import sibling\n"
        "try:\n"
        "    import numba\n"
        "except ImportError:\n"
        "    numba = None\n")
    assert undeclared(tmp_path, {"numpy"}) == {"scipy": ["mod.py"]}
    assert undeclared(tmp_path, {"numpy", "scipy"}) == {}
