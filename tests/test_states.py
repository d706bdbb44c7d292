import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnonloc as q


def _gram_offset(V, norms):
    """Largest |G - diag(norms)| of the dense Gram G of the rows of V."""
    return float(np.abs(V @ V.conj().T - np.diag(norms)).max())


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
    assert _gram_offset(ss.dense_all(), [s] * s) <= 1e-12 * s


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
    # each set is orthogonal by its permutation (PhaseStateSet) and the sets are
    # disjoint; the dense Gram of every state of the family agrees
    states = q.family_states(ex1_family.family)
    rep = q.gram_check(states)
    assert rep.ok and not rep.structural_overlap
    V = np.vstack([ss.dense_all() for ss in states])
    norms = [ss.s for ss in states for _ in range(ss.s)]
    assert _gram_offset(V, norms) <= 1e-12 * max(norms)


@pytest.mark.parametrize("supports", [
    [[(0, 0), (1, 1)], [(1, 1), (0, 1)]],
    [[(0, 0), (1, 1)], [(0, 1)], [(1, 0), (1, 1)]],
], ids=["two_sets", "sets_0_and_2_of_3"])
def test_gram_structural_overlap_detected(supports):
    states = [q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), s)) for s in supports]
    rep = q.gram_check(states)
    assert not rep.ok and rep.structural_overlap
    # a shared tuple never cancels: some cross-set inner product is nonzero
    V = np.vstack([ss.dense_all() for ss in states])
    norms = [ss.s for ss in states for _ in range(ss.s)]
    assert _gram_offset(V, norms) > 0.5


def test_gram_radix_mismatch():
    a = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 0)]))
    b = q.PhaseStateSet(q.TupleSet.from_tuples((3, 3), [(0, 0)]))
    with pytest.raises(ValueError):
        q.gram_check([a, b])


@pytest.mark.parametrize("check", [
    q.gram_check, q.genuine_entanglement_check, lambda sets: q.oracle_verify(sets, cuts=[0])[0],
], ids=["gram", "entanglement", "oracle"])
def test_state_set_input_checked_once(check):
    a = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 0)]))
    b = q.PhaseStateSet(q.TupleSet.from_tuples((3, 3), [(0, 0)]))
    with pytest.raises(ValueError, match="share one radix"):
        check([a, b])
    with pytest.raises(ValueError, match="at least one state set"):
        check([])


def test_bad_bijection_rejected():
    # non-integers and arrays that are not 1-d are refused, not truncated,
    # parsed, flattened or read as digits
    support = q.TupleSet.from_tuples((2, 2), [(0, 0), (1, 1)])
    for bijection in ([0, 0], [0, 1, 2], [0, 1.7], [0.0, 1.0], ["0", "1"], [False, True],
                      np.array([1, 0], dtype=np.float64), 0, np.int64(1), [[0, 1]], [[1], [0]]):
        with pytest.raises(ValueError, match="permutation of 0..s-1"):
            q.PhaseStateSet(support, bijection=bijection)


# ------------------------------------------------------------ schmidt rank

def _splits(n):
    """Every bipartition of n parties once, party 0 on the left."""
    return [([0, *extra], [p for p in range(1, n) if p not in extra])
            for r in range(n - 1) for extra in itertools.combinations(range(1, n), r)]


def _reference_ranks(ss, splits):
    """Schmidt rank of each state on each split: its singular values above
    1e-9 of the largest, from one batched SVD of the s states per split."""
    tensors = ss.dense_all().reshape((ss.s,) + ss.radix)
    out = np.empty((ss.s, len(splits)), dtype=np.int64)
    for i, (left, right) in enumerate(splits):
        mats = np.transpose(tensors, [0] + [p + 1 for p in left + right]).reshape(
            ss.s, math.prod(ss.radix[p] for p in left), -1)
        sv = np.linalg.svd(mats, compute_uv=False)
        out[:, i] = (sv > 1e-9 * sv[:, :1]).sum(axis=1)
    return out


def _reference_entangled(states):
    splits = _splits(len(states[0].radix))
    return all((_reference_ranks(ss, splits) >= 2).all() for ss in states)


def test_splits_count():
    assert [len(_splits(n)) for n in (2, 3, 4, 5)] == [1, 3, 7, 15]
    assert _splits(3) == [([0], [1, 2]), ([0, 1], [2]), ([0, 2], [1])]


def test_schmidt_rank_product_and_bell():
    prod = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 1)]))
    assert _reference_ranks(prod, _splits(2)).tolist() == [[1]]
    assert not q.genuine_entanglement_check([prod])
    bell = q.PhaseStateSet(q.build_index_family(2, 2)[0])
    assert _reference_ranks(bell, _splits(2)).tolist() == [[2], [2]]
    assert q.genuine_entanglement_check([bell])


def test_schmidt_rank_ghz_like():
    # equal-weight states on {(0,0,0), (1,1,1)}: rank 2 on every split
    ss = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2, 2), [(0, 0, 0), (1, 1, 1)]))
    ranks = _reference_ranks(ss, _splits(3))
    assert ranks.shape == (2, 3) and (ranks == 2).all()
    assert q.genuine_entanglement_check([ss])


def test_genuine_entanglement_small():
    assert q.genuine_entanglement_check(q.family_states(q.build_index_family(2, 2)))
    singles = [q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [t]))
               for t in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert not q.genuine_entanglement_check(singles)
    with pytest.raises(ValueError, match="two parties"):
        q.genuine_entanglement_check(q.family_states(q.build_index_family(3, 1)))


def test_genuine_entanglement_held_to_cap(monkeypatch):
    # a GHZ pair is genuinely entangled, so no split stops the check early:
    # its (2**(n-1) - 1) * 2 member splits are held to the cap before any work
    def ghz(n):
        return [q.PhaseStateSet(q.TupleSet((2,) * n, [0, 2 ** n - 1]))]

    monkeypatch.setenv("QNONLOC_CAP", "14")
    assert q.genuine_entanglement_check(ghz(4))
    monkeypatch.setenv("QNONLOC_CAP", "13")
    with pytest.raises(q.ResourceLimitError, match="14 member splits"):
        q.genuine_entanglement_check(ghz(4))
    monkeypatch.setenv("QNONLOC_CAP", "100000")
    with pytest.raises(q.ResourceLimitError, match="1048574 member splits"):
        q.genuine_entanglement_check(ghz(20))

def test_genuine_entanglement_matches_per_state_ranks():
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
        assert q.genuine_entanglement_check(states) == _reference_entangled(states)


def _random_support(rng, radix, kind):
    """A support of the given kind: a product set across a random split, a
    singleton, a GHZ-like pair, or a random subset of the cube."""
    n, total = len(radix), math.prod(radix)
    if kind == "singleton":
        return [tuple(int(rng.integers(d)) for d in radix)]
    if kind == "ghz":
        a = [int(rng.integers(d)) for d in radix]
        return [tuple(a), tuple((x + 1 + int(rng.integers(d - 1))) % d
                                for x, d in zip(a, radix))]
    if kind == "product":
        left = [0, *(p for p in range(1, n) if rng.random() < 0.5)]
        if len(left) == n:
            left.pop()
        right = [p for p in range(n) if p not in left]
        sides = []
        for side in (left, right):
            cube = list(itertools.product(*(range(radix[p]) for p in side)))
            pick = rng.choice(len(cube), size=int(rng.integers(1, min(len(cube), 3) + 1)),
                              replace=False)
            sides.append([cube[i] for i in pick])
        out = []
        for a, b in itertools.product(*sides):
            t = [0] * n
            for p, x in zip(left + right, a + b):
                t[p] = x
            out.append(tuple(t))
        return out
    ranks = rng.choice(total, size=int(rng.integers(2, min(total, 10) + 1)), replace=False)
    return [tuple(int(x) for x in np.unravel_index(r, radix)) for r in ranks]


def test_genuine_entanglement_matches_reference_on_random_supports():
    rng = np.random.default_rng(20241018)
    kinds = ["product", "singleton", "ghz", "random", "random", "random"]
    seen = {kind: [0, 0] for kind in kinds}
    for i in range(300):
        n = int(rng.integers(2, 5))
        radix = tuple(int(x) for x in rng.integers(2, 4, size=n))
        kind = kinds[i % len(kinds)]
        support = q.TupleSet.from_tuples(radix, _random_support(rng, radix, kind))
        ss = q.PhaseStateSet(support, bijection=rng.permutation(len(support)))
        expected = _reference_entangled([ss])
        assert q.genuine_entanglement_check([ss]) == expected, (radix, support.tuples())
        seen[kind][expected] += 1
    # products and singletons never pass, GHZ-like pairs always do, and the
    # random subsets land on both sides
    assert seen["product"][1] == seen["singleton"][1] == seen["ghz"][0] == 0
    assert min(seen["random"]) > 0


@pytest.mark.parametrize("d,n", [(4, 6), (3, 7)])
def test_genuine_entanglement_large_modified(d, n):
    states = q.family_states(q.build_modified_family(d, n).family)
    t0 = time.perf_counter()
    assert q.genuine_entanglement_check(states)
    assert time.perf_counter() - t0 < 1.0


def test_genuine_entanglement_d3_minimal(d3_minimal_family):
    assert q.genuine_entanglement_check(q.family_states(d3_minimal_family.family))


def test_genuine_entanglement_matches_reference_on_built_families(built_slice):
    """The built slice up to d**n = 256, where the per-state SVDs stay cheap;
    both answers occur."""
    seen = set()
    for name, fam in built_slice:
        if math.prod(fam.radix) <= 256:
            states = q.family_states(fam)
            expected = _reference_entangled(states)
            assert q.genuine_entanglement_check(states) == expected, name
            seen.add(expected)
    assert seen == {True, False}


def _product_split_reference(states):
    """False iff, on some split, some support is the product of the digit
    strings it shows on each side; each split and set on its own."""
    n = len(states[0].radix)
    for left, right in _splits(n):
        for ss in states:
            members = ss.support.members()
            sides = [len(np.unique(members[:, side], axis=0)) for side in (left, right)]
            if sides[0] * sides[1] == ss.s:
                return False
    return True


def test_genuine_entanglement_in_blocks_matches_product_split_reference():
    # modified (4,7) has 12288 members, so each of its 63 splits is a block
    states = q.family_states(q.build_modified_family(4, 7).family)
    assert q.genuine_entanglement_check(states) is _product_split_reference(states) is True
    # {0000, 1111} x {000, 111} is a product set on split {0, 1, 2, 3} | {4, 5, 6}
    # alone, which a later block reaches
    radix = (4,) * 7
    late = q.PhaseStateSet(q.TupleSet.from_tuples(
        radix, [(a,) * 4 + (b,) * 3 for a in (0, 1) for b in (0, 1)]))
    assert _product_split_reference([late]) is False
    assert q.genuine_entanglement_check(states + [late]) is False


def test_genuine_entanglement_ranks_past_int64_keys():
    # 5 sets times the 2**61 digit strings of party 1 would pass int64 as
    # one number set * 2**61 + rank; wrapped numbers would sort the last set
    # first and read set 0's party-1 strings from its two members with the
    # string 9
    radix = (2, 2**61)
    supports = [[(0, 1), (1, 2)], [(0, 3), (1, 4)], [(0, 5), (1, 6)], [(0, 7), (1, 8)],
                [(0, 9), (1, 9), (0, 10), (1, 11)]]
    states = [q.PhaseStateSet(q.TupleSet(radix, np.array([a * 2**61 + b for a, b in t])))
              for t in supports]
    assert _product_split_reference(states) is True
    assert q.genuine_entanglement_check(states) is True
