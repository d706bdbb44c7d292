"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with -s to see the lines as they complete; each test also asserts, so a
plain pytest run reports the same outcomes.
"""

import itertools
import time

import numpy as np

import qnonloc as q
from qnonloc.tables import comparison_table

FROZEN_THIS_WORK = {
    4: (48, 192, 768, 3072, 12288, 49152),
    5: (75, 375, 1875, 9375, 46875, 234375),
    6: (108, 648, 3888, 23328, 139968, 839808),
    7: (147, 1029, 7203, 50421, 352947, 2470629),
}
FROZEN_REFERENCE = {
    4: (38, 176, 782, 3368, 14198, 58976),
    5: (62, 370, 2102, 11530, 61742, 325090),
    6: (92, 672, 4652, 31032, 201812, 1288992),
    7: (128, 1106, 9032, 70994, 543608, 4085186),
}


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_size_tables_exact():
    t0 = time.perf_counter()
    ok = True
    for d in (4, 5, 6, 7):
        table = comparison_table(d)
        ok &= tuple(table["this_work"]) == FROZEN_THIS_WORK[d]
        ok &= tuple(table["reference"]) == FROZEN_REFERENCE[d]
        ok &= table["lower_bound"] == [d ** (n - 1) + 1 for n in table["n"]]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, f"size tables exact in {elapsed:.2f}s", ok)


def _digit_sum_rule(fam, d):
    """Set t holds exactly the tuples whose digit sum is t mod d.  That rule
    partitions the cube, is invariant under permuting positions, and gives
    the one-level recursion set t = U_j {(t - j) mod d} x (set j at n - 1)."""
    ranks = np.concatenate([fam[t].ranks for t in range(d)])
    return (fam.labels == list(range(d))
            and np.array_equal(np.sort(ranks), np.arange(d ** len(fam.radix)))
            and all((fam[t].members().sum(axis=1) % d == t).all() for t in range(d)))


def test_acceptance_2_partition_and_invariance():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 7):
        for n in range(1, 6):
            ok &= _digit_sum_rule(q.build_index_family(d, n), d)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, f"digit-sum partition in {elapsed:.1f}s", ok)


def test_acceptance_3_oracle_trivial_on_flagship():
    t0 = time.perf_counter()
    ok = True
    fam = q.build_modified_family(4, 3)
    states = q.family_states(fam.family)
    reports = q.oracle_verify(states)
    ok &= len(reports) == 3
    for rep in reports:
        ok &= rep.nullspace_dim == 1 and rep.verdict == "trivial"
    bell = q.family_states(q.build_index_family(2, 2))
    for rep in q.oracle_verify(bell):
        ok &= rep.nullspace_dim == 1 and rep.verdict == "trivial"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(3, f"oracle trivial on flagship + Bell in {elapsed:.1f}s", ok)


def test_acceptance_4_negative_controls():
    ok = True
    # orthogonal product basis: locally distinguishable, oracle must object
    radix = (2, 2)
    prod = q.SetFamily(radix, {
        i: q.TupleSet.from_tuples(radix, [t])
        for i, t in enumerate(itertools.product(range(2), range(2)))})
    for rep in q.oracle_verify(q.family_states(prod)):
        ok &= rep.verdict == "nontrivial" and rep.nullspace_dim == 2
    comb = q.verify_strongest_nonlocality(prod)
    ok &= all(r.overall == "nontrivial" for r in comb)

    # ablations: removing any one set of the flagship family must change
    # some cut verdict or per-label condition, and must never produce a
    # combinatorially-trivial cut that the oracle rejects
    fam = q.build_modified_family(4, 3).family
    base = q.verify_strongest_nonlocality(fam)
    base_sig = [(r.overall, {l: v.condition for l, v in r.conditions.items()})
                for r in base]
    for label in fam.labels:
        sub = fam.drop(label)
        comb = q.verify_strongest_nonlocality(sub)
        sig = [(r.overall, {l: v.condition for l, v in r.conditions.items()})
               for r in comb]
        changed = any(
            s[0] != b[0] or s[1] != {l: c for l, c in b[1].items() if l != label}
            for s, b in zip(sig, base_sig))
        ok &= changed
        orc = q.oracle_verify(q.family_states(sub))
        for c, o in zip(comb, orc):
            ok &= not (c.overall == "trivial" and o.verdict != "trivial")
    _report(4, "negative controls and ablations", ok)


def test_acceptance_5_checker_oracle_agreement():
    battery: list[q.SetFamily] = [
        q.build_modified_family(4, 3).family,
        q.build_modified_family(4, 3, xi=3).family,
        q.build_modified_family(3, 3).family,
    ]
    for d in (2, 3):
        for n in (2, 3):
            battery.append(q.build_index_family(d, n))
    radix = (2, 2)
    battery.append(q.SetFamily(radix, {
        i: q.TupleSet.from_tuples(radix, [t])
        for i, t in enumerate(itertools.product(range(2), range(2)))}))

    ok = True
    for fam in battery:
        comb = q.verify_strongest_nonlocality(fam)
        orc = q.oracle_verify(q.family_states(fam))
        for c, o in zip(comb, orc):
            ok &= not (c.overall == "trivial" and o.verdict != "trivial")
    _report(5, "combinatorial verdicts never contradict the oracle", ok)


def _dense_gram_ok(ss):
    """The dense Gram of the set's states is s times the identity, within 1e-12 * s."""
    V = ss.dense_all()
    return float(np.abs(V @ V.conj().T - ss.s * np.eye(ss.s)).max()) <= 1e-12 * ss.s


def _min_schmidt_rank(ss):
    """Smallest Schmidt rank of any state on any split (party 0 on the left),
    one matrix_rank each."""
    n = len(ss.radix)
    tensors = ss.dense_all().reshape((ss.s,) + ss.radix)
    ranks = []
    for r in range(n - 1):
        for extra in itertools.combinations(range(1, n), r):
            left = [0, *extra]
            right = [p for p in range(1, n) if p not in extra]
            rows = int(np.prod([ss.radix[p] for p in left]))
            for tensor in tensors:
                mat = np.transpose(tensor, left + right).reshape(rows, -1)
                ranks.append(np.linalg.matrix_rank(mat, tol=1e-9 * np.linalg.norm(mat, 2)))
    return min(ranks)


def test_acceptance_6_orthogonality_and_entanglement():
    ok = True
    for d in range(2, 8):
        families = [q.build_index_family(d, n) for n in range(1, 5)]
        families += [q.build_modified_family(d, n).family for n in (3, 4)]
        for fam in families:
            states = q.family_states(fam)
            ok &= q.gram_check(states).ok
            ok &= all(_dense_gram_ok(ss) for ss in states)

    # every state of the flagship family is entangled across every split
    states = q.family_states(q.build_modified_family(4, 3).family)
    ok &= q.genuine_entanglement_check(states)
    ok &= min(_min_schmidt_rank(ss) for ss in states) >= 2
    _report(6, "orthogonality (exact + dense Gram) + genuine entanglement", ok)


def test_acceptance_7_diagonal_home_formula():
    ok = True
    for d in range(2, 8):
        for n in range(1, 9):
            fam = q.build_index_family(d, n)
            for xi in range(d):
                t = (xi,) * n
                home = q.diagonal_home(xi, n, d)
                ok &= t in fam[home]
                ok &= all(t not in fam[i] for i in range(d) if i != home)
    grid = q.diagonal_table(4)
    ok &= np.array_equal(grid, np.array([[0, 0, 0, 0], [0, 1, 2, 3],
                                         [0, 2, 0, 2], [0, 3, 2, 1]]))
    _report(7, "constant-tuple home matches enumeration", ok)


def test_acceptance_8_size_formulas_enumerate():
    ok = True
    for d in range(4, 8):
        for n in (3, 4):
            fam = q.build_modified_family(d, n)
            ok &= fam.total_size() == q.construction_size(d, n)
    ok &= q.build_modified_family(3, 3).total_size() == 18
    ok &= comparison_table(3)["reference"][0] == 3**3 - 2**3 + 1 == 20
    for d in range(4, 8):
        table = comparison_table(d)
        ok &= all(w > lb for w, lb in zip(table["this_work"], table["lower_bound"]))
    _report(8, "size formulas match enumeration and bounds", ok)
