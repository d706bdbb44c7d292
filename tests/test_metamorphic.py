"""Metamorphic checks of both routes on part of the `built_slice` battery.

Cut k asks whether every orthogonality-preserving measurement that all
parties but k make jointly is trivial.  The definition asks it of every
bipartition; the n all-but-one cuts suffice because a measurement on fewer
parties is one on more (E_B (x) I).  Merging adjacent parties j and j+1 into
one party of d_j * d_{j+1} digits keeps every rank, so every state: the
merged cut leaves parties j and j+1 out of the joint measurement, so it is
trivial wherever cut j or cut j+1 is, and each other cut keeps its layout
and verdict.  A digit permutation at each party, and reversing the parties,
relabel the states by a local unitary when each set's bijection is carried
along, so neither changes a verdict.
"""

import math

import numpy as np
import pytest

import qnonloc as q
from qnonloc.lattice import _decode, _encode


@pytest.fixture(scope="module")
def battery(built_slice):
    """The 490 families of the battery with at most 256 tuples in the cube
    (both tests take about 2.5 s of CPU; the whole battery, about 16 s)."""
    return [(name, fam) for name, fam in built_slice if math.prod(fam.radix) <= 256]


def _merged(fam, j):
    """Parties j and j+1 as one party of d_j * d_{j+1} digits, every rank kept."""
    r = fam.radix
    radix = r[:j] + (r[j] * r[j + 1],) + r[j + 2:]
    return q.SetFamily(radix, {l: q.TupleSet(radix, ts.ranks) for l, ts in fam.items()})


def _relabelled(states, radix, digit_map):
    """The states with each member's digits mapped (a (members, n') digit
    matrix from a (members, n) one) onto the given radix, each set's
    bijection carried to the member's new place in canonical order."""
    out = []
    for ss in states:
        ranks = _encode(digit_map(_decode(ss.support.ranks, ss.radix)), radix)
        order = np.argsort(ranks)
        out.append(q.PhaseStateSet(q.TupleSet(radix, ranks), label=ss.label,
                                   bijection=ss.bijection[order]))
    return out


def _checker(fam):
    return [(r.overall, r.pair_covering, r.connectivity, r.conditions)
            for r in q.verify_strongest_nonlocality(fam)]


def _dims(states):
    return [r.nullspace_dim for r in q.oracle_verify(states)]


def test_merging_parties_keeps_or_trivialises_each_cut(battery):
    merges, seen = 0, set()
    for name, fam in battery:
        n = len(fam.radix)
        if n < 3:
            continue
        dims, checks = _dims(q.family_states(fam)), _checker(fam)
        for j in range(n - 1):
            merged = _merged(fam, j)
            m_dims, m_checks = _dims(q.family_states(merged)), _checker(merged)
            # a trivial cut j or j+1 makes the merged cut trivial; so a
            # nontrivial merged cut has both cuts j and j+1 nontrivial
            assert m_dims[j] == 1 or min(dims[j], dims[j + 1]) > 1, (name, j)
            seen.add((min(dims[j], dims[j + 1]) == 1, m_dims[j] == 1))
            # every other cut keeps its layout, so both routes keep their reports
            others = [i for i in range(n) if i not in (j, j + 1)]
            kept = [i if i < j else i - 1 for i in others]
            assert [m_dims[i] for i in kept] == [dims[i] for i in others], (name, j)
            assert [m_checks[i] for i in kept] == [checks[i] for i in others], (name, j)
            # merged families mix d_k: each cut the checker decides, the oracle agrees
            for i, (overall, *_) in enumerate(m_checks):
                if overall != "inconclusive":
                    want = "trivial" if m_dims[i] == 1 else "nontrivial"
                    assert overall == want, (name, j, i)
            merges += 1
    # premise and conclusion both hold and fail somewhere
    assert merges == 855 and seen == {(True, True), (False, True), (False, False)}


def test_digit_permutations_and_party_reversal_change_no_verdict(battery):
    rng = np.random.default_rng(20261020)
    for name, fam in battery:
        radix, n = fam.radix, len(fam.radix)
        states = [q.PhaseStateSet(ts, label=l, bijection=rng.permutation(len(ts)))
                  for l, ts in fam.items()]
        dims = _dims(states)
        overall = [r[0] for r in _checker(fam)]

        perms = [rng.permutation(d) for d in radix]
        permuted = _relabelled(states, radix, lambda digits: np.stack(
            [perms[p][digits[:, p]] for p in range(n)], axis=1))
        assert _dims(permuted) == dims, name
        perm_fam = q.SetFamily(radix, {ss.label: ss.support for ss in permuted})
        assert [r[0] for r in _checker(perm_fam)] == overall, name

        # reversed, party p is party n-1-p, and so is cut k
        reversed_ = _relabelled(states, radix[::-1], lambda digits: digits[:, ::-1])
        assert _dims(reversed_) == dims[::-1], name
        rev_fam = q.SetFamily(radix[::-1], {ss.label: ss.support for ss in reversed_})
        assert [r[0] for r in _checker(rev_fam)] == overall[::-1], name
