"""Size comparison and diagonal-home tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import caps
from .lattice import build_modified_family, construction_size, reference_sizes

DEFAULT_TABLE_N = (3, 4, 5, 6, 7, 8)
DEFAULT_TABLE_D = (4, 5, 6, 7)

# cross-checks by enumeration stay cheap enough for interactive table dumps;
# a cube is enumerated only where it also fits the enumeration cap
TABLES_CHECK_CAP = 10**5


@dataclass(frozen=True)
class SizeTable:
    """One comparison table: published reference sizes vs this construction."""

    d: int
    n_values: tuple[int, ...]
    reference: tuple[int, ...]
    this_work: tuple[int, ...]
    lower_bound: tuple[int, ...]
    enumerated: tuple[bool, ...]       # True where an explicit build confirmed the formula


def comparison_table(d: int, n_values: tuple[int, ...] = DEFAULT_TABLE_N) -> SizeTable:
    ref, work, low, checked = [], [], [], []
    for n in n_values:
        sizes = reference_sizes(d, n)
        ref.append(sizes.li_oges)
        low.append(sizes.lower_bound)
        work.append(construction_size(d, n))
        do_check = d**n <= min(TABLES_CHECK_CAP, caps.enum_cap())
        if do_check:
            # the build compares its size with construction_size and raises on a mismatch
            build_modified_family(d, n)
        checked.append(do_check)
    return SizeTable(d=d, n_values=tuple(n_values), reference=tuple(ref),
                     this_work=tuple(work), lower_bound=tuple(low),
                     enumerated=tuple(checked))


def all_comparison_tables() -> list[SizeTable]:
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


def render_comparison(table: SizeTable, fmt: str) -> str:
    return _grid([[f"d={table.d}"] + [f"N={n}" for n in table.n_values],
                  ["Ref."] + [str(x) for x in table.reference],
                  ["This work"] + [str(x) for x in table.this_work]], fmt)


def comparison_to_json(table: SizeTable) -> dict:
    return {
        "d": table.d,
        "n": list(table.n_values),
        "reference": list(table.reference),
        "this_work": list(table.this_work),
        "lower_bound": list(table.lower_bound),
        "enumerated": list(table.enumerated),
    }


def render_diagonal(d: int, fmt: str) -> str:
    head = "n mod d" if fmt == "csv" else "n%d"
    rows = [[str(a)] + [str(v) for v in row] for a, row in enumerate(diagonal_table(d).tolist())]
    return _grid([[head] + [f"xi={x}" for x in range(d)]] + rows, fmt)
