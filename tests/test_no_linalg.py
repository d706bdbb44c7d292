"""Only the oracle's dense reference uses floating-point linear algebra: every
other module of the package decides its questions by integer bookkeeping, so
no module but `oracle.py` may name `linalg`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qnonloc").glob("*.py"))


def _linalg_lines(tree):
    """Lines that name `linalg`: as a name, an attribute or in an import."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "linalg"
                or isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")):
            lines.add(node.lineno)
        elif isinstance(node, ast.alias) and "linalg" in node.name:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_oracle_uses_linalg(path):
    lines = _linalg_lines(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "oracle.py":
        assert lines, "the dense reference no longer uses numpy.linalg"
    else:
        assert not lines, f"{path.name} names linalg at lines {lines}"


def test_scan_sees_linalg():
    tree = ast.parse("import numpy as np\n"
                     "x = np.linalg.svd(a)\n"
                     "from numpy import linalg\n"
                     "import numpy.linalg as la\n"
                     "from numpy.linalg import norm\n"
                     "y = linalg.norm(a)\n")
    assert _linalg_lines(tree) == [2, 3, 4, 5, 6]
