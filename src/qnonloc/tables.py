"""Size comparison and diagonal-home tables."""

from __future__ import annotations

import numpy as np

from . import caps
from .lattice import build_modified_family, construction_size

TABLE_N = (3, 4, 5, 6, 7, 8)
DEFAULT_TABLE_D = (4, 5, 6, 7)

# cross-checks by enumeration stay cheap enough for interactive table dumps;
# a cube is enumerated only where it also fits the enumeration cap
TABLES_CHECK_CAP = 10**5


def comparison_table(d: int) -> dict:
    """The one dict `tables --format json` writes for d: sizes of orthogonal
    genuinely entangled sets in (C^d)^N for N in TABLE_N, the published
    count d**N - (d-1)**N + 1, this construction (`construction_size`) and
    the lower bound d**(N-1) + 1.  `enumerated` is true where the cube d**N
    fits TABLES_CHECK_CAP and the cap, and a build confirmed the size (it
    raises on a mismatch)."""
    limit = min(TABLES_CHECK_CAP, caps.enum_cap())
    enumerated = [d**n <= limit for n in TABLE_N]
    for n, check in zip(TABLE_N, enumerated):
        if check:
            build_modified_family(d, n)
    return {
        "d": d,
        "n": list(TABLE_N),
        "reference": [d**n - (d - 1) ** n + 1 for n in TABLE_N],
        "this_work": [construction_size(d, n) for n in TABLE_N],
        "lower_bound": [d ** (n - 1) + 1 for n in TABLE_N],
        "enumerated": enumerated,
    }


def all_comparison_tables() -> list[dict]:
    return [comparison_table(d) for d in DEFAULT_TABLE_D]


def diagonal_table(d: int) -> np.ndarray:
    """Grid of home labels, d**2 cells held to the cap: entry (a, xi) is the
    set holding the constant xi-tuple when the arity is congruent to a mod d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    caps.check(d * d, "cells in the diagonal grid")
    a, xi = np.indices((d, d))
    return (a * xi) % d


def _grid(rows: list[list[str]], fmt: str) -> str:
    """csv joins cells with commas; any other format right-aligns each column,
    two spaces apart."""
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in rows)
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n" for r in rows)


def render_comparison(table: dict, fmt: str) -> str:
    return _grid([[f"d={table['d']}"] + [f"N={n}" for n in table["n"]],
                  ["Ref."] + [str(x) for x in table["reference"]],
                  ["This work"] + [str(x) for x in table["this_work"]]], fmt)


def render_diagonal(d: int, fmt: str) -> str:
    head = "n mod d" if fmt == "csv" else "n%d"
    rows = [[str(a)] + [str(v) for v in row] for a, row in enumerate(diagonal_table(d).tolist())]
    return _grid([[head] + [f"xi={x}" for x in range(d)]] + rows, fmt)
