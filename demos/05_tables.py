"""Size comparison: this construction vs the published reference counts.

The modified families use (|odd rows| + 2) * d**(n-1) states, which beats
the d**n - (d-1)**n + 1 reference for every d >= 4 once n >= 5, while
staying well above the d**(n-1) + 1 lower bound.  Where the cube is small
enough the formula is cross-checked by explicit enumeration.
"""

from qnonloc.tables import all_comparison_tables, render_comparison, render_diagonal

tables = all_comparison_tables()
for table in tables:
    print(render_comparison(table, "text"))
    checked = [n for n, c in zip(table["n"], table["enumerated"]) if c]
    print(f"  enumeration-checked at N = {checked}")
    print(f"  lower bound d**(N-1)+1:   {table['lower_bound']}\n")

print("ratio to the reference count at N = 8:")
for table in tables:
    n_idx = table["n"].index(8)
    ratio = table["this_work"][n_idx] / table["reference"][n_idx]
    print(f"  d={table['d']}: {ratio:.3f}")

print("\ndiagonal-home grid for d = 4 (rows: n mod d, columns: xi):")
print(render_diagonal(4, "text"))
