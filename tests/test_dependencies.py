"""numpy is the package's only runtime dependency.

Every module under src/egowarp is parsed, not imported, and each import
statement must name the standard library, numpy or the package itself.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "egowarp"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "egowarp"}


def _imported_roots(path: Path) -> list[str]:
    """Top-level names of the modules path imports; relative imports count
    as the package."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots.append("egowarp" if node.level else node.module.split(".")[0])
    return roots


MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert {"__init__.py", "warp.py", "camera.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_or_package(path):
    foreign = sorted(set(_imported_roots(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def _package_imports(path: Path) -> set[str]:
    """Names of the package modules path imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("egowarp.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "egowarp":
                    continue
                module = module.removeprefix("egowarp").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_gradcheck_does_not_import_the_solver():
    """gradcheck checks derivatives against finite differences; retract_pose
    lives in se3, so nothing ties it to the aligner."""
    assert "se3" in _package_imports(PACKAGE / "gradcheck.py")
    assert "align" not in _package_imports(PACKAGE / "gradcheck.py")


def test_camera_imports_only_exceptions_and_se3():
    """camera holds every Jacobian row formula; the warp, the losses and
    the solver build on it, never the other way round."""
    assert _package_imports(PACKAGE / "camera.py") == {"exceptions", "se3"}
