import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnonloc as q


def test_bell_states_frozen():
    fam = q.build_index_family(2, 2)
    ss = q.PhaseStateSet(fam[0])
    # support {(0,0), (1,1)} in lexicographic order
    v0, v1 = ss.dense_all()
    assert np.allclose(v0, [1, 0, 0, 1])
    assert np.allclose(v1, [1, 0, 0, -1])
    assert abs(np.vdot(v0, v1)) < 1e-14


def test_phase_values_d3():
    fam = q.build_index_family(3, 2)
    ss = q.PhaseStateSet(fam[1])  # support {(0,1),(1,0),(2,2)}
    w = np.exp(2j * np.pi / 3)
    V = ss.dense_all()
    assert np.allclose(V[:, [1, 3, 8]], [[1, 1, 1], [1, w, w**2], [1, w**2, w**4]])
    assert not np.delete(V, [1, 3, 8], axis=1).any()


def test_norm_squared_is_support_size():
    for d, n in [(2, 3), (3, 2), (4, 3)]:
        for ss in q.family_states(q.build_index_family(d, n)):
            norms = np.linalg.norm(ss.dense_all(), axis=1)
            assert np.allclose(norms**2, ss.s, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 24), st.randoms(use_true_random=False))
def test_shuffled_bijection_states_orthogonal(s, rng):
    support = q.TupleSet.from_tuples((s,), [(i,) for i in range(s)])
    perm = list(range(s))
    rng.shuffle(perm)
    ss = q.PhaseStateSet(support, bijection=perm)
    assert ss.bijection.tolist() == perm
    assert q.gram_check([ss]).ok


def test_bijection_is_read_only():
    perm = np.array([2, 0, 3, 1])
    ss = q.PhaseStateSet(q.TupleSet.from_tuples((4,), [(i,) for i in range(4)]), bijection=perm)
    with pytest.raises(AttributeError):
        ss.bijection = np.array([0, 1, 1, 3])
    with pytest.raises(ValueError):
        ss.bijection[1] = 1
    # the set holds its own copy, so the caller's array stays writable
    perm[0] = 0
    assert ss.bijection.tolist() == [2, 0, 3, 1]
    default = q.PhaseStateSet(q.TupleSet.from_tuples((2,), [(0,), (1,)]))
    with pytest.raises(ValueError):
        default.bijection[0] = 1


def test_gram_dense_and_symbolic_agree(ex1_family):
    # each set is orthogonal by its permutation (PhaseStateSet); the dense Gram agrees
    rep = q.gram_check(q.family_states(ex1_family.family))
    assert rep.ok and not rep.structural_overlap
    assert rep.max_offdiag < rep.tol


@pytest.mark.parametrize("supports", [
    [[(0, 0), (1, 1)], [(1, 1), (0, 1)]],
    [[(0, 0), (1, 1)], [(0, 1)], [(1, 0), (1, 1)]],
], ids=["two_sets", "sets_0_and_2_of_3"])
def test_gram_structural_overlap_detected(supports):
    states = [q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), s)) for s in supports]
    rep = q.gram_check(states)
    assert not rep.ok and rep.structural_overlap
    assert rep.max_offdiag is None  # numerics never ran


def test_gram_radix_mismatch():
    a = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 0)]))
    b = q.PhaseStateSet(q.TupleSet.from_tuples((3, 3), [(0, 0)]))
    with pytest.raises(ValueError):
        q.gram_check([a, b])


def test_bad_bijection_rejected():
    support = q.TupleSet.from_tuples((2, 2), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        q.PhaseStateSet(support, bijection=[0, 0])
    with pytest.raises(ValueError):
        q.PhaseStateSet(support, bijection=[0, 1, 2])


# ------------------------------------------------------------ bipartitions

def test_iter_bipartitions_counts():
    assert len(q.iter_bipartitions(2)) == 1
    assert len(q.iter_bipartitions(3)) == 3
    assert len(q.iter_bipartitions(4)) == 7
    for cut in q.iter_bipartitions(4):
        assert 0 in cut.left and cut.right


def test_bipartition_validation():
    with pytest.raises(ValueError):
        q.Bipartition(frozenset(), 2)
    with pytest.raises(ValueError):
        q.Bipartition(frozenset({0, 1}), 2)
    with pytest.raises(ValueError):
        q.Bipartition(frozenset({3}), 2)
    # any iterable of party indices is accepted for the left side
    cut = q.Bipartition((0,), 3)
    assert cut.left == frozenset({0}) and cut.right == frozenset({1, 2})


# ------------------------------------------------------------ schmidt rank

def _reference_ranks(ss, cuts):
    """One np.linalg.matrix_rank per state and cut, relative threshold 1e-9."""
    tensors = ss.dense_all().reshape((ss.s,) + ss.radix)
    out = np.empty((ss.s, len(cuts)), dtype=np.int64)
    for j, tensor in enumerate(tensors):
        for i, cut in enumerate(cuts):
            left, right = sorted(cut.left), sorted(cut.right)
            mat = np.transpose(tensor, left + right).reshape(
                math.prod(ss.radix[p] for p in left), -1)
            sv_max = np.linalg.norm(mat, 2)
            out[j, i] = np.linalg.matrix_rank(mat, tol=1e-9 * sv_max)
    return out


def test_schmidt_rank_product_and_bell():
    prod = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 1)]))
    cut = q.Bipartition(frozenset({0}), 2)
    assert q.schmidt_ranks(prod, [cut]).tolist() == [[1]]
    bell = q.PhaseStateSet(q.build_index_family(2, 2)[0])
    assert q.schmidt_ranks(bell, [cut]).tolist() == [[2], [2]]


def test_schmidt_rank_ghz_like():
    # equal-weight states on {(0,0,0), (1,1,1)}: rank 2 on every cut
    supp = q.TupleSet.from_tuples((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
    ranks = q.schmidt_ranks(q.PhaseStateSet(supp), q.iter_bipartitions(3))
    assert ranks.shape == (2, 3) and (ranks == 2).all()


def test_schmidt_ranks_reject_wrong_arity():
    ss = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2, 2), [(0, 0, 0), (1, 1, 1)]))
    with pytest.raises(ValueError):
        q.schmidt_ranks(ss, [q.Bipartition(frozenset({0}), 2)])


def test_genuine_entanglement_small():
    assert q.genuine_entanglement_check(q.family_states(q.build_index_family(2, 2)))
    singles = [q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [t]))
               for t in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert not q.genuine_entanglement_check(singles)


def test_genuine_entanglement_matches_per_state_ranks():
    # the batched ranks against one matrix_rank per state and bipartition
    flagship = q.build_modified_family(4, 3).family
    families = [q.build_index_family(2, 2), q.build_index_family(3, 3), flagship]
    families += [flagship.drop(l) for l in flagship.labels]
    radix = (2, 3, 2)
    families.append(q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 0, 0), (1, 1, 1), (1, 2, 0)]),
        1: q.TupleSet.from_tuples(radix, [(0, 1, 0), (0, 1, 1)]),
    }))
    for fam in families:
        states = q.family_states(fam)
        cuts = q.iter_bipartitions(len(fam.radix))
        expected = True
        for ss in states:
            ranks = _reference_ranks(ss, cuts)
            assert np.array_equal(q.schmidt_ranks(ss, cuts), ranks)
            expected &= bool((ranks >= 2).all())
        assert q.genuine_entanglement_check(states) == expected


def test_genuine_entanglement_d3_minimal(d3_minimal_family):
    assert q.genuine_entanglement_check(q.family_states(d3_minimal_family.family))
