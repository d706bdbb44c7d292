"""Size comparison and diagonal-home tables."""

from __future__ import annotations

import io
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
        size = construction_size(d, n)
        work.append(size)
        do_check = d**n <= min(TABLES_CHECK_CAP, caps.enum_cap())
        if do_check:
            built = build_modified_family(d, n)
            if built.total_size() != size:
                raise AssertionError(
                    f"enumerated size {built.total_size()} != formula {size} "
                    f"for d={d}, n={n}")
        checked.append(do_check)
    return SizeTable(d=d, n_values=tuple(n_values), reference=tuple(ref),
                     this_work=tuple(work), lower_bound=tuple(low),
                     enumerated=tuple(checked))


def all_comparison_tables(d_values: tuple[int, ...] = DEFAULT_TABLE_D,
                          n_values: tuple[int, ...] = DEFAULT_TABLE_N) -> list[SizeTable]:
    return [comparison_table(d, n_values) for d in d_values]


def diagonal_table(d: int) -> np.ndarray:
    """Grid of home labels: entry (a, xi) is the set holding the constant
    xi-tuple when the arity is congruent to a mod d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    a, xi = np.indices((d, d))
    return (a * xi) % d


def render_comparison_csv(table: SizeTable) -> str:
    buf = io.StringIO()
    buf.write(f"d={table.d}," + ",".join(f"N={n}" for n in table.n_values) + "\n")
    buf.write("Ref.," + ",".join(str(x) for x in table.reference) + "\n")
    buf.write("This work," + ",".join(str(x) for x in table.this_work) + "\n")
    return buf.getvalue()


def render_comparison_text(table: SizeTable) -> str:
    head = [f"d={table.d}"] + [f"N={n}" for n in table.n_values]
    rows = [
        ["Ref."] + [str(x) for x in table.reference],
        ["This work"] + [str(x) for x in table.this_work],
    ]
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    lines = []
    for r in [head] + rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def comparison_to_json(table: SizeTable) -> dict:
    return {
        "d": table.d,
        "n": list(table.n_values),
        "reference": list(table.reference),
        "this_work": list(table.this_work),
        "lower_bound": list(table.lower_bound),
        "enumerated": list(table.enumerated),
    }


def render_diagonal_csv(d: int) -> str:
    grid = diagonal_table(d)
    buf = io.StringIO()
    buf.write("n mod d," + ",".join(f"xi={x}" for x in range(d)) + "\n")
    for a in range(d):
        buf.write(f"{a}," + ",".join(str(int(v)) for v in grid[a]) + "\n")
    return buf.getvalue()


def render_diagonal_text(d: int) -> str:
    grid = diagonal_table(d)
    head = ["n%d"] + [f"xi={x}" for x in range(d)]
    rows = [[str(a)] + [str(int(v)) for v in grid[a]] for a in range(d)]
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in [head] + rows]
    return "\n".join(lines) + "\n"
