"""Every name a module of ggff or of its tests imports is read in it: the
check a linter would make, on the standard library's ast alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ggff"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports, but from __future__, that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport numpy as np\nimport scipy.linalg\n"
              "from itertools import accumulate, chain\nfrom typing import Mapping\n"
              "def f(x: np.ndarray):\n    return chain(x)\n")
    assert unused_imports(source) == ["scipy", "accumulate", "Mapping"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_imported_name_is_read(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_every_name_a_test_module_imports_is_read(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []
