"""Ground truth: orthogonality-preserving operators on one cut.

For the kept party k, every pair of states constrains a Hermitian operator
acting on the other parties.  The solution space always contains the
identity; nonlocality is strongest when it contains nothing else, on every
cut.  The oracle decides this exactly by counting the classes of operator
entries the constraints leave free; a dimension above 1 comes with a
concrete traceless witness operator.  The dense SVD reference counts the
same dimension numerically and reports how far its rank threshold was from
the nearest singular value; it decides nothing.
"""

import itertools

import numpy as np

import qnonloc as q
from qnonloc.oracle import assemble_constraints, hermitian_nullspace

fam = q.build_modified_family(4, 3)
states = q.family_states(fam)

print("flagship family, all three cuts:")
for rep in q.oracle_verify(states):
    print(f"  cut {rep.k}: D={rep.D}, nullspace dim={rep.nullspace_dim} -> {rep.verdict}")

print("\ndense reference for cut 0 (complex rank of the same constraints):")
dense = hermitian_nullspace(assemble_constraints(states, 0))
print(f"  nullspace dim={dense.dim}, sv gap={dense.sv_gap:.3f}")

print("\nnegative control: product basis (distinguishable by one party)")
radix = (2, 2)
prod = q.SetFamily(radix, {i: q.TupleSet.from_tuples(radix, [t])
                           for i, t in enumerate(itertools.product((0, 1), (0, 1)))})
for rep in q.oracle_verify(q.family_states(prod), cuts=[0]):
    print(f"  cut {rep.k}: nullspace dim={rep.nullspace_dim} -> {rep.verdict}")
    print("  witness operator (traceless, real symmetric):")
    print(np.array2string(np.asarray(rep.witness), precision=3, suppress_small=True))

print("\nnegative control: drop one set from the flagship family")
sub = fam.drop(1)
for rep in q.oracle_verify(q.family_states(sub), cuts=[0]):
    print(f"  cut {rep.k}: nullspace dim={rep.nullspace_dim} -> {rep.verdict}")

print("\nagreement: wherever the combinatorial checker decides, the oracle "
      "gives the same verdict")
for name, family in [("flagship", fam), ("ablated", sub), ("product", prod)]:
    comb = q.overall_verdict(q.verify_strongest_nonlocality(family))
    orc = q.oracle_overall(q.oracle_verify(q.family_states(family)))
    print(f"  {name}: combinatorial={comb}, oracle={orc}")
