"""No module imports a name it never uses, and no private module-level name
of the package goes unreferenced (no linter is declared, so this is it)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qnonloc").glob("*.py"))
MODULES = sorted(
    [p for p in (ROOT / "src" / "qnonloc").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def _imported(tree):
    """Name bound by each import -> line, `from __future__` excepted."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Every name loaded, including those inside quoted annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _used(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, Sequence\n"
                     "def f(x: 'Sequence[int]') -> None:\n    return os.sep\n")
    assert set(_imported(tree)) - _used(tree) == {"Any"}


def _referenced(node):
    """Names a statement reads: loaded names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced_private(trees):
    """Module-level `_name`s (dunders aside) that no other top-level statement
    of any of the trees reads."""
    defined, reads = [], []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined.append({n for n in names if n.startswith("_") and not n.endswith("__")})
            reads.append(_referenced(stmt))
    return {name for i, names in enumerate(defined) for name in names
            if not any(name in r for j, r in enumerate(reads) if j != i)}


def test_no_unreferenced_private_names():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE]
    assert not _unreferenced_private(trees)


def test_scan_sees_an_unreferenced_private_name():
    used = ast.parse("_LIMIT = 3\ndef _twice(x):\n    return 2 * x\n")
    user = ast.parse("from m import _twice\ndef _dead(n):\n    return _dead(n - 1)\n"
                     "def f():\n    return _LIMIT\n")
    assert _unreferenced_private([used, user]) == {"_dead"}


# modules that build, read or write a modified family, or name its kind
MODIFIED_FAMILY_HOMES = {"lattice.py", "serialize.py", "cli.py"}


def _unwraps(tree, filename):
    """Lines that read `.family` (the parsed command line's `args.family`
    aside) or, outside MODIFIED_FAMILY_HOMES, name ModifiedFamily: a modified
    family is a SetFamily, so nothing needs to unwrap it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if (isinstance(node, ast.Attribute) and node.attr == "family"
                and getattr(node.value, "id", None) != "args"):
            lines.append(node.lineno)
        elif "ModifiedFamily" in names and filename not in MODIFIED_FAMILY_HOMES:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_unwraps_a_modified_family(path):
    lines = _unwraps(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert not lines, f"{path.name} unwraps a modified family at lines {lines}"


def test_scan_sees_an_unwrap():
    tree = ast.parse("from .lattice import ModifiedFamily\n"
                     "def f(fam, args):\n"
                     "    base = fam.family if isinstance(fam, ModifiedFamily) else fam\n"
                     "    return base, args.family, lattice.ModifiedFamily\n")
    assert _unwraps(tree, "verifier.py") == [1, 3, 3, 4]
    assert _unwraps(tree, "cli.py") == [3]
