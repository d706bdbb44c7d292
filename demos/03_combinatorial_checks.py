"""The combinatorial route to strongest nonlocality.

For each kept party k every tuple splits into its digit at k and the rank of
its other digits, and a table records which set holds each (digit, rank).
From that table each set is resolved if it can be: a singleton class, a
tightly covered class, or a cover built from already-resolved sets.  Pair
covering and connectivity of the sets' footprints finish the argument.
Both "trivial" and "nontrivial" are proofs: a failed global condition
leaves an operator free for every choice of phases.  "inconclusive" means
both global conditions hold and some set is unresolved.
`verify_strongest_nonlocality` runs all of it and returns one report per
cut; `cuts=[k]` asks for one.
"""

import qnonloc as q
from qnonloc.verifier import Condition

fam = q.build_modified_family(4, 3)

print("how each set is resolved at cut k=0:")
[cut0] = q.verify_strongest_nonlocality(fam, cuts=[0])
for label, verdict in cut0.conditions.items():
    line = f"  set {label!r}: {verdict.condition.value}"
    if verdict.condition is not Condition.UNRESOLVED:
        line += f" via its digit-{verdict.target_digit} class"
    if verdict.common_digit is not None:
        line += (f", covered at common digit {verdict.common_digit} by "
                 f"{verdict.contributor_labels}, tight via {verdict.tight_label!r}")
    print(line)

print("\nfull verdicts per cut:")
for rep in q.verify_strongest_nonlocality(fam):
    conds = {str(l): v.condition.value for l, v in rep.conditions.items()}
    print(f"  cut {rep.k}: {conds}")
    print(f"    pair_covering={rep.pair_covering} connectivity={rep.connectivity} "
          f"-> {rep.overall}")

print("\nwhat breaks when a set is removed?")
for label in fam.labels:
    sub = fam.drop(label)
    reports = q.verify_strongest_nonlocality(sub)
    overalls = {r.overall for r in reports}
    print(f"  without {label!r}: cut verdicts {sorted(overalls)}")

print("\nan orthogonal product basis fails connectivity, not pair covering:")
import itertools
radix = (2, 2)
prod = q.SetFamily(radix, {i: q.TupleSet.from_tuples(radix, [t])
                           for i, t in enumerate(itertools.product((0, 1), (0, 1)))})
for rep in q.verify_strongest_nonlocality(prod):
    print(f"  cut {rep.k}: pair_covering={rep.pair_covering} "
          f"connectivity={rep.connectivity} -> {rep.overall}")
