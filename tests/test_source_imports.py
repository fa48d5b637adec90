"""The package imports only numpy's public API: ``numpy._core`` and
``numpy.core`` are private, and differ between the numpy versions
``pyproject.toml`` supports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqstream"
PRIVATE = ("numpy._core", "numpy.core")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _is_private(name):
    return any(name == p or name.startswith(p + ".") for p in PRIVATE)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = sorted({name for name in _imported_modules(tree) if _is_private(name)})
    assert not private, f"{path.name} imports {private}"


@pytest.mark.parametrize(
    "source, private",
    [
        ("from numpy._core.multiarray import c_einsum", True),
        ("import numpy.core.multiarray", True),
        ("from numpy import _core", True),
        ("from numpy import core as c", True),
        ("import numpy as np", False),
        ("from numpy import corrcoef", False),
    ],
)
def test_the_check_sees_each_import_form(source, private):
    names = list(_imported_modules(ast.parse(source)))
    assert any(_is_private(n) for n in names) is private
