"""Every size check goes through `caps.check`: no other module of the package
raises ResourceLimitError itself, so one cap and one message bound every run."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qnonloc").glob("*.py"))


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
