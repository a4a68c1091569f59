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



def _named(tree: ast.AST) -> set[str]:
    """Every name a tree reads, imports or spells as a whole string
    (bench/spans.py looks functions up by their names)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_top_level_name_is_used():
    """Each top-level function and class of the package is named outside
    its own definition, in the package (re-exports count) or in the
    benchmark; one that only tests reach is dead code."""
    bench = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    named = set()
    defined = []
    for path in MODULES + [p for p in bench if not p.name.startswith("test_")]:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(node, "name", None)
            named |= _named(node) - {own}
            if path in MODULES and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.name}:{own}")
    unused = [d for d in defined if d.split(":")[1] not in named]
    assert not unused, unused
