"""From index sets to orthogonal entangled states.

A support set of size s yields s states: member j of state k carries the
phase exp(2 pi i k f(j) / s).  Orthogonality within a set is a root-of-unity
cancellation that holds as soon as f is a permutation, which PhaseStateSet
checks when it is built, and across sets it holds because the supports are
disjoint.  Genuine entanglement is decided from the supports too: a state
set fails only if, across some split of the parties, a support is a product
set S_A x S_B.
"""

import qnonloc as q

fam = q.build_modified_family(4, 3)
print(f"modified family: d=4, n=3, case {fam.case}, xi'={fam.xi}")
print(f"removed diagonal tuples: {fam.removed}")
print(f"labels: {fam.labels}, total support size {fam.total_size()}")

state_sets = q.family_states(fam)
print("\nper-set state counts:")
for ss in state_sets:
    print(f"  set {ss.label!r}: {ss.s} states on {len(ss.support)} tuples")

report = q.gram_check(state_sets)
print(f"\northogonality of the whole family: ok={report.ok}, "
      f"overlapping supports: {report.structural_overlap}")

n = len(fam.radix)
entangled = q.genuine_entanglement_check(state_sets)
print(f"\ngenuinely entangled: {entangled} "
      f"({len(state_sets)} sets x {2 ** (n - 1) - 1} splits of {n} parties, "
      "no support a product set)")
assert entangled

print("\ncontrast: a product support {0,1} x {0,1} on the split 0|1")
product = q.TupleSet.from_tuples((2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
print("  genuinely entangled:", q.genuine_entanglement_check([q.PhaseStateSet(product)]))
