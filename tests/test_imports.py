"""Every module-level import in `src/netgalois` is read somewhere in its
module: an import nothing reads keeps dead code looking alive.  Stdlib only
(`ast`), so it runs wherever the tests do."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netgalois"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression of
    the module reads and `__all__` does not export."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .groups import fixer, normalizes\n"
        "from .lattice import FiniteLattice\n"
        "__all__ = ['FiniteLattice']\n"
        "def f(x: np.ndarray):\n"
        "    return fixer(x)\n"
    )
    assert unused_imports(source) == ["os", "normalizes"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
