"""Every size check goes through `caps.check`: no other module of the package
raises ResourceLimitError itself, so one cap and one message bound every run,
and each count checked is named in the README's table of caps."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qnonloc").glob("*.py"))
CAPS_TABLE_HEADER = "| work | count held to the cap |"


def _is_limit_error(node):
    return "ResourceLimitError" in (getattr(node, "id", None), getattr(node, "attr", None))


def _constructs_limit_error(tree):
    """Lines that call ResourceLimitError or raise the class, by bare or
    attribute name."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _is_limit_error(node.func)
                  or isinstance(node, ast.Raise) and _is_limit_error(node.exc))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_caps_raises_resource_limit_error(path):
    lines = _constructs_limit_error(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "caps.py":
        assert lines, "caps.check no longer raises ResourceLimitError"
    else:
        assert not lines, f"{path.name} constructs ResourceLimitError at lines {lines}"


def test_scan_sees_a_construction():
    tree = ast.parse("from . import errors\n"
                     "def f(n):\n    raise errors.ResourceLimitError(f'{n}')\n"
                     "def g():\n    raise ResourceLimitError\n"
                     "def h():\n    return ResourceLimitError('x')\n")
    assert _constructs_limit_error(tree) == [3, 5, 7]


def _checked_counts(tree):
    """The `what` argument of every `caps.check(count, what)` call, or None
    where it is not a string literal."""
    return [node.args[1].value if isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str) else None
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check" and getattr(node.func.value, "id", None) == "caps"
            and len(node.args) == 2]


def _readme_caps_table():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == CAPS_TABLE_HEADER)
    table = []
    for line in lines[start + 2:]:
        if not line.strip().startswith("|"):
            break
        table.append(line)
    return "\n".join(table)


def test_every_checked_count_is_in_the_readme_caps_table():
    table = _readme_caps_table()
    counts = [what for path in PACKAGE
              for what in _checked_counts(ast.parse(path.read_text(), filename=str(path)))]
    assert "residual row pairs" in counts and None not in counts
    missing = sorted({what for what in counts if what not in table})
    assert not missing, f"caps counts missing from the README caps table: {missing}"


def test_count_scan_sees_each_call():
    tree = ast.parse("from . import caps\n"
                     "caps.check(n, 'tuples in the cube')\n"
                     "caps.check(n * n, what)\n"
                     "other.check(n, 'not a cap')\n")
    assert _checked_counts(tree) == ["tuples in the cube", None]
