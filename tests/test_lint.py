"""Source rules checked on the syntax tree of the package, and the
benchmark's lookups into it."""

import ast
import importlib
from pathlib import Path

import pytest

from shadowcodes import errors

PACKAGE = Path(errors.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = PACKAGE.parents[1] / "bench"


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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statement(path):
    """python -O strips assert statements, so a check written as one
    vanishes there; an invariant raises AssertionError instead."""
    tree = _parse(path)
    bad = [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not bad, bad


# every process-lifetime memo in the package: the benchmark replays one
# seed in one process, so a memo kept across calls would show a gain
# that no single CLI call gets
CACHE_SITES = {
    "bounds._binomial_prefix_sums",
    "cli.build_parser",
    "concat._theta_inverse",
    "concat.theta_table",
    "field._default_modulus",
    "field._field_cached",
    "field.prime_factors",
}
_CACHES = {"cache", "lru_cache"}


def _cache_name(node: ast.AST) -> str | None:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in _CACHES else None


def test_process_lifetime_caches_are_the_listed_ones():
    """functools.cache and lru_cache decorate exactly CACHE_SITES, and
    appear nowhere else, so a new memo has to be listed to pass."""
    sites, uses = set(), 0
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            uses += _cache_name(node) is not None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _cache_name(dec.func if isinstance(dec, ast.Call) else dec):
                        sites.add(f"{path.stem}.{node.name}")
    assert sites == CACHE_SITES
    assert uses == len(CACHE_SITES), "a cache is used other than as a decorator"


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


def _member_reads(tree: ast.AST, members: set[int]) -> set[tuple[str, int]]:
    """(name, owner) for every name a tree spells as an attribute, a
    keyword argument or a whole string, the ways a member is read; owner
    is the id of the innermost node in members around it, or 0."""
    out = set()
    stack = [(tree, 0)]
    while stack:
        node, owner = stack.pop()
        if id(node) in members:
            owner = id(node)
        if isinstance(node, ast.Attribute):
            out.add((node.attr, owner))
        elif isinstance(node, ast.keyword) and node.arg:
            out.add((node.arg, owner))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add((node.value, owner))
        stack += [(c, owner) for c in ast.iter_child_nodes(node)]
    return out


def _readers() -> list[Path]:
    """The files whose reads keep a name alive: every package module but
    __init__.py, whose re-exports read nothing, and every non-test
    benchmark file."""
    bench = sorted(BENCH.glob("*.py"))
    return [p for p in MODULES if p.name != "__init__.py"] + [
        p for p in bench if not p.name.startswith("test_")
    ]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_name_is_used():
    """Each top-level function and class of the package is named outside
    its own definition, by a package module or by the benchmark; a
    re-export alone does not count, and one that only tests reach is
    dead code."""
    named = set()
    defined = []
    for path in _readers():
        for node in _parse(path).body:
            own = getattr(node, "name", None)
            named |= _named(node) - {own}
            if path in MODULES and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.name}:{own}")
    unused = [d for d in defined if d.split(":")[1] not in named]
    assert not unused, unused


def _members(cls: ast.ClassDef):
    """(name, node) of each method, property and annotated field."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_class_member_is_read():
    """Each method, property and record field of a package class is
    read outside its own definition, by a package module or by the
    benchmark, as an attribute, a keyword argument or a string; dunders
    are called by the language and are exempt."""
    trees = {path: _parse(path) for path in _readers()}
    defined = []
    for path, tree in trees.items():
        for cls in tree.body:
            if path in MODULES and isinstance(cls, ast.ClassDef):
                defined += [
                    (f"{cls.name}.{name}", name, node)
                    for name, node in _members(cls)
                    if not (name.startswith("__") and name.endswith("__"))
                ]
    members = {id(node) for _, _, node in defined}
    readers: dict[str, set[int]] = {}
    for tree in trees.values():
        for name, owner in _member_reads(tree, members):
            readers.setdefault(name, set()).add(owner)
    unread = [
        label for label, name, node in defined if not readers.get(name, set()) - {id(node)}
    ]
    assert not unread, unread


def test_every_traced_target_resolves():
    """A traced benchmark run rebinds each target by name, so a package
    function renamed or removed under it would fail only there."""
    (targets,) = [
        node.value for node in _parse(BENCH / "spans.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    targets = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert targets
    missing = [
        f"{mod}.{func}" for mod, func in targets
        if not hasattr(importlib.import_module(f"shadowcodes.{mod}"), func)
    ]
    assert not missing, missing


def test_every_benchmark_import_resolves():
    """Each name a benchmark file imports from the package exists."""
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shadowcodes"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{name}: from {module} import {attr}" for name, module, attr in imports
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, missing
