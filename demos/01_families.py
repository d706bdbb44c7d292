"""Recursive index families: how the d**n cube splits into d sets.

Each family member at arity n is assembled from all members at arity n-1 by
prepending a compensating digit, which is the same as grouping tuples by
their digit sum mod d.
"""

import numpy as np

import qnonloc as q

d, n = 3, 3
fam = q.build_index_family(d, n)

print(f"family over Z_{d}^{n}: {len(fam)} sets, {fam.total_size()} tuples total")
for label in fam.labels:
    members = fam[label].tuples()
    digit_sums = sorted({sum(t) % d for t in members})
    print(f"  set {label}: {len(members)} tuples, digit sums mod {d} = {digit_sums}")
    print(f"    first three: {members[:3]}")

# set t is exactly the tuples with digit sum t mod d, which makes the sets a
# partition of the cube, each invariant under permuting the positions
ranks = np.sort(np.concatenate([fam[t].ranks for t in fam.labels]))
print("\nsets cover the cube once:", np.array_equal(ranks, np.arange(d**n)))
print("set t = digit sums t mod d:",
      all((fam[t].members().sum(axis=1) % d == t).all() for t in fam.labels))

print("\nwhere does the constant tuple (xi,)*n live?")
print("rows = n mod d, columns = xi, entry = set label")
grid = q.diagonal_table(d)
print(np.array2string(grid))
for xi in range(d):
    home = q.diagonal_home(xi, n, d)
    assert (xi,) * n in fam[home]
    print(f"  ({xi},)*{n} sits in set {home}")
