"""From index sets to orthogonal entangled states.

A support set of size s yields s states: member j of state k carries the
phase exp(2 pi i k f(j) / s).  Orthogonality within a set is a root-of-unity
cancellation that holds as soon as f is a permutation, which PhaseStateSet
checks when it is built; the Gram matrix confirms it numerically.
"""

import numpy as np

import qnonloc as q

fam = q.build_modified_family(4, 3)
print(f"modified family: d=4, n=3, case {fam.case}, xi'={fam.xi}")
print(f"removed diagonal tuples: {fam.removed}")
print(f"labels: {fam.labels}, total support size {fam.total_size()}")

state_sets = q.family_states(fam.family)
print("\nper-set state counts:")
for ss in state_sets:
    print(f"  set {ss.label!r}: {ss.s} states on {len(ss.support)} tuples, "
          f"Gram ok: {q.gram_check([ss]).ok}")

report = q.gram_check(state_sets)
print(f"\nGram check of the whole family: ok={report.ok}, "
      f"max off-diagonal {report.max_offdiag:.2e}")

print("\nevery state is entangled across every bipartition:")
cuts = q.iter_bipartitions(3)
ranks = np.vstack([q.schmidt_ranks(ss, cuts) for ss in state_sets])
print(f"  {ranks.shape[0]} states x {ranks.shape[1]} cuts, "
      f"Schmidt ranks range [{ranks.min()}, {ranks.max()}]")
assert ranks.min() >= 2

print("\ncontrast: a product state has rank 1 on its separating cut")
single = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 1)]), "p")
print("  rank:", q.schmidt_ranks(single, [q.Bipartition((0,), 2)])[0, 0])
