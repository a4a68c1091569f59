"""Source rules checked on the syntax tree of the package."""

import ast
from pathlib import Path

import pytest

from shadowcodes import errors

PACKAGE = Path(errors.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _allowed(name: str | None) -> bool:
    if name == "AssertionError":
        return True
    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, errors.ShadowcodesError)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_names_a_package_error(path):
    """Bad input surfaces as a ShadowcodesError (exit 2 in the CLI), and a
    broken invariant as AssertionError; no plain ValueError and no bare
    re-raise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and not _allowed(_raised_name(node))
    ]
    assert not bad, bad
