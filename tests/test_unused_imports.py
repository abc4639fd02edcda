"""No module of the package imports a name it never uses.

No linter ships with the project, so this is pyflakes' F401 rule alone: an
``ast`` walk over ``src/ratmat/*.py``.  A name is used when it is read
anywhere in the module, as a bare name or as the root of an attribute
chain.  An import whose line carries ``# noqa: F401`` is exempt (a name kept
for a tracer that wraps it as its module sees it), and so is the package's
``__init__.py``, whose imports are the public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ratmat"


def unused_imports(source: str) -> list:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = ("import numpy as np\n"
              "from .linalg import (eig_small,\n"
              "                     factorize)\n"
              "from .jets import FactoredPoly  # noqa: F401\n"
              "x = np.linalg.norm(eig_small(1).S)\n")
    assert unused_imports(source) == [(3, "factorize")]
