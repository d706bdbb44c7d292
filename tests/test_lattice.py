import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnonloc as q
from qnonloc.errors import InadmissibleXiError, InternalConsistencyError, ResourceLimitError
from qnonloc.lattice import (_components, _decode, _encode, cut_table, has_repeat, member_cube,
                             sorted_unique)


def digit_sum_class(d, n, i):
    """Independent oracle: the recursion sorts tuples by digit sum mod d."""
    return {t for t in itertools.product(range(d), repeat=n) if sum(t) % d == i}


# ---------------------------------------------------------------- TupleSet

def test_tupleset_roundtrip_and_membership():
    ts = q.TupleSet.from_tuples((3, 3), [(0, 1), (2, 2), (0, 1)])
    assert len(ts) == 2
    assert (0, 1) in ts and (2, 2) in ts and (1, 1) not in ts
    assert ts.tuples() == [(0, 1), (2, 2)]  # lexicographic order
    assert (0, 1, 0) not in ts
    # an entry that is not an integer is in no set, unconverted; a bool is a
    # digit, as in the reader
    assert (np.int64(2), 2) in ts and (False, True) in ts
    for item in [(0.7, 1.2), ("0", 1), (0, 1.0), (np.float64(2), 2), (None, 1)]:
        assert item not in ts


def test_tupleset_rejects_out_of_range():
    with pytest.raises(ValueError):
        q.TupleSet.from_tuples((2, 2), [(0, 2)])
    with pytest.raises(ValueError):
        q.TupleSet.from_tuples((2, 2), [(0,)])


def test_tupleset_refuses_one_digit_parties_and_no_tuples(ex1_family):
    # modified (4,3) has the flagship's states with an empty set beside them,
    # which once made the checker call every cut nontrivial
    for empty in (lambda: q.TupleSet((4, 4, 4), []),
                  lambda: q.TupleSet.from_tuples((4, 4, 4), [])):
        with pytest.raises(ValueError, match="ranks must be a nonempty 1-d array"):
            q.SetFamily((4, 4, 4), {**dict(ex1_family.items()), "empty": empty()})
    for radix in [(1,), (1, 2), (2, 1, 3), (3, 0)]:
        with pytest.raises(ValueError, match=r"radix entries must be >= 2"):
            q.TupleSet(radix, [0])
        with pytest.raises(ValueError, match=r"radix entries must be >= 2"):
            q.TupleSet.from_tuples(radix, [(0,) * len(radix)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=30))
def test_sort_helpers_match_numpy_unique_on_integers(values):
    a = np.array(values, dtype=np.int64)
    uniq = sorted_unique(a)
    assert uniq.dtype == a.dtype
    assert np.array_equal(uniq, np.unique(a))
    assert has_repeat(a) == (len(np.unique(a)) != len(a))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.lists(st.lists(st.booleans(), min_size=20, max_size=20),
                                    max_size=12))
def test_sort_helpers_match_numpy_unique_on_packed_rows(width, rows):
    # the row view _pair_covering deduplicates: packed bits as one void per row
    bits = np.array(rows, dtype=bool).reshape(len(rows), 20)[:, :width]
    packed = np.packbits(bits, axis=1)
    view = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    assert sorted_unique(view).tolist() == np.unique(view).tolist()
    assert has_repeat(view) == (len(np.unique(view)) != len(view))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=5), st.data())
def test_cut_table_matches_digit_deletion(radix, data):
    total = math.prod(radix)
    ranks = np.array(sorted(data.draw(st.sets(st.integers(0, total - 1), min_size=1,
                                              max_size=40))),
                     dtype=np.int64)
    digits = _decode(ranks, radix)
    cube = member_cube(tuple(radix), [q.TupleSet(radix, ranks)])
    assert cube.shape == tuple(radix)
    for k in range(len(radix)):
        table = cut_table(cube, k)
        reduced = tuple(radix[:k] + radix[k + 1:])
        assert table.shape == (radix[k], math.prod(reduced))
        # member i sits at [its digit at k, rank of its other digits]
        resid = _encode(np.delete(digits, k, axis=1), reduced)
        assert table[digits[:, k], resid].tolist() == list(range(len(ranks)))
        empty = np.ones(table.shape, dtype=bool)
        empty[digits[:, k], resid] = False
        assert (table[empty] == -1).all()


def test_member_cube_refuses_overlap_and_held_to_cap(monkeypatch):
    radix = (2, 3)
    a = q.TupleSet.from_tuples(radix, [(0, 0), (1, 2)])
    b = q.TupleSet.from_tuples(radix, [(0, 1)])
    assert member_cube(radix, [a, b]).tolist() == [[0, 2, -1], [-1, -1, 1]]
    with pytest.raises(InternalConsistencyError):
        member_cube(radix, [a, b, a])
    monkeypatch.setenv("QNONLOC_CAP", "5")
    with pytest.raises(ResourceLimitError):
        member_cube(radix, [a, b])


def bfs_components(n_nodes, a, b):
    """Smallest node of each node's component, by a plain breadth-first search."""
    adj = [[] for _ in range(n_nodes)]
    for x, y in zip(a.tolist(), b.tolist()):
        adj[x].append(y)
        adj[y].append(x)
    out = [-1] * n_nodes
    for root in range(n_nodes):  # ascending, so each component's first node is its smallest
        if out[root] >= 0:
            continue
        out[root], queue = root, [root]
        for x in queue:  # the queue grows while it is read
            for y in adj[x]:
                if out[y] < 0:
                    out[y] = root
                    queue.append(y)
    return out


def test_components_match_bfs():
    # the shared labelling of the checker's connectivity and the oracle's
    # entry classes, on seeded random graphs: every eighth has no edges; in
    # the others every fifth edge is a self-loop and the first third repeat
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 60))
        n_edges = 0 if seed % 8 == 0 else int(rng.integers(3, 2 * n_nodes + 3))
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        b[::5] = a[::5]
        a, b = np.concatenate([a, a[:n_edges // 3]]), np.concatenate([b, b[:n_edges // 3]])
        assert _components(n_nodes, a, b).tolist() == bfs_components(n_nodes, a, b), seed


# ------------------------------------------------------- recursive families

def test_frozen_d3_n2_family():
    fam = q.build_index_family(3, 2)
    assert fam[0].tuples() == [(0, 0), (1, 2), (2, 1)]
    assert fam[1].tuples() == [(0, 1), (1, 0), (2, 2)]
    assert fam[2].tuples() == [(0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 3), (5, 2), (6, 3)])
def test_family_matches_digit_sum_oracle(d, n):
    fam = q.build_index_family(d, n)
    for i in range(d):
        assert set(fam[i]) == digit_sum_class(d, n, i)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 4), (7, 3)])
def test_partition_and_permutation(d, n):
    # the digit-sum classes partition the cube, and a digit sum does not
    # change when positions are permuted
    fam = q.build_index_family(d, n)
    assert fam.labels == list(range(d))
    for i in range(d):
        assert set(fam[i]) == digit_sum_class(d, n, i)


def test_shift_relation():
    # set i at arity n is the union over j of {(i - j) mod d} x set j at arity n-1
    for d, n in [(2, 2), (3, 3), (4, 2), (5, 3)]:
        fam, prev = q.build_index_family(d, n), q.build_index_family(d, n - 1)
        for i in range(d):
            built = {((i - j) % d, *t) for j in range(d) for t in prev[j]}
            assert set(fam[i]) == built == digit_sum_class(d, n, i)


def test_family_cap():
    with pytest.raises(ResourceLimitError):
        q.build_index_family(10, 9)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4))
def test_family_properties_random(d, n):
    fam = q.build_index_family(d, n)
    assert fam.labels == list(range(d))
    for i in range(d):
        assert set(fam[i]) == digit_sum_class(d, n, i)


# -------------------------------------------------- labels, homes, choices

@pytest.mark.parametrize("d", list(range(2, 65)))
def test_select_rows_distance_cover(d):
    # the kept rows' pairwise cyclic distances cover 1..floor(d/2)
    kept = q.kept_labels(d)
    assert kept == sorted(set(kept)) and kept[0] == 0 and kept[-1] == d // 2
    assert all(t % 2 == 1 for t in kept[1:-1])
    dists = {min(abs(a - b), d - abs(a - b)) for a in kept for b in kept if a != b}
    assert dists == set(range(1, d // 2 + 1))


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("n", range(1, 6))
def test_diagonal_home_brute_force(d, n):
    fam = q.build_index_family(d, n)
    for xi in range(d):
        diag = (xi,) * n
        holder = [i for i in range(d) if diag in fam[i]]
        assert holder == [q.diagonal_home(xi, n, d)]


def test_diagonal_home_grid_d4():
    grid = [[q.diagonal_home(xi, 4 + a, 4) for xi in range(4)] for a in range(4)]
    assert grid == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]


def test_choose_xi_strategies():
    # d=4, n=3: digit 1 homes to 3 (not kept), digit 2 homes to 2
    assert q.choose_xi(4, 3) == 2
    assert q.choose_xi(4, 3, "structured") == 2
    assert q.choose_xi(4, 3, 2) == 2
    with pytest.raises(InadmissibleXiError):
        q.choose_xi(4, 3, 1)
    # n = 0 mod d: every nonzero digit homes to 0
    assert q.choose_xi(4, 4) == 1
    assert q.choose_xi(4, 4, "structured") == 1
    # n = 2 mod 4: a=2 shares a factor with d, xi = d/gcd = 2
    assert q.choose_xi(4, 6, "structured") == 2
    # gcd(a,d) > 1 with a not dividing d: d=6, n=4 -> only xi=3 lands on home 0
    assert q.choose_xi(6, 4, "structured") == 3
    # xi = 3 homes to label 1 at d=4, n=3: also admissible
    assert q.choose_xi(4, 3, 3) == 3
    # xi is a nonzero digit: 0 is refused for its range, not for its home
    for xi in (0, 4):
        with pytest.raises(InadmissibleXiError, match=rf"^xi={xi} outside 1\.\.3$"):
            q.choose_xi(4, 3, xi)
    with pytest.raises(ValueError):
        q.choose_xi(4, 3, "fancy")


def test_numpy_integer_xi_is_the_int_it_holds():
    # stored as an int, so the family writes as the one built from xi=2,
    # where json would refuse a numpy integer; a bool is no digit
    assert type(q.choose_xi(4, 3, np.int64(2))) is int
    with pytest.raises(InadmissibleXiError, match="^xi=1 maps to label 3"):
        q.choose_xi(4, 3, np.uint8(1))
    fam = q.ModifiedFamily(4, 3, np.int64(2))
    assert type(fam.xi) is int
    assert q.dumps_family(fam) == q.dumps_family(q.ModifiedFamily(4, 3, 2))
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="unknown strategy"):
            q.choose_xi(4, 3, bad)


# -------------------------------------------------- modified construction

def test_modified_family_structure(ex1_family):
    fam = ex1_family
    assert fam.labels == [0, 1, 2, "extra"]
    assert fam.case == "II" and fam.xi == 2
    assert fam.removed == [(0, (0, 0, 0)), (2, (2, 2, 2))]
    assert (0, 0, 0) not in fam[0] and (2, 2, 2) not in fam[2]
    assert fam["extra"].tuples() == [(0, 0, 0), (2, 2, 2)]
    assert fam.total_size() == 48
    base = q.build_index_family(4, 3)
    assert fam[1] == base[1]  # label 1 untouched for this xi


def test_modified_family_alt_xi(ex2_family):
    fam = ex2_family
    assert fam.xi == 3 and fam.case == "II"
    assert fam.removed == [(0, (0, 0, 0)), (1, (3, 3, 3))]
    assert fam["extra"].tuples() == [(0, 0, 0), (3, 3, 3)]


def test_modified_family_case_tags():
    assert q.build_modified_family(4, 4).case == "I"      # a = 0
    assert q.build_modified_family(4, 3).case == "II"     # gcd(3,4) = 1
    assert q.build_modified_family(4, 6).case == "III"    # gcd(2,4) = 2
    assert q.build_modified_family(6, 4).case == "III"    # a=4 does not divide 6


def test_modified_family_home_zero_removes_both_from_zero():
    fam = q.build_modified_family(4, 4)  # a=0: xi=1 homes to 0
    assert fam.removed == [(0, (0, 0, 0, 0)), (0, (1, 1, 1, 1))]
    assert (1, 1, 1, 1) not in fam[0]
    assert fam.total_size() == q.construction_size(4, 4)


def test_modified_family_small_d_flagged():
    fam = q.build_modified_family(2, 3)
    assert fam.beyond_guarantee
    assert fam.labels == [0, 1, "extra"]
    assert fam.total_size() == q.construction_size(2, 3) == 8
    d3 = q.build_modified_family(3, 3)
    assert d3.total_size() == 18


def test_modified_family_validation():
    with pytest.raises(ValueError):
        q.build_modified_family(4, 2)
    with pytest.raises(ResourceLimitError):
        q.build_modified_family(7, 9)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("n", (3, 4))
def test_modified_family_is_disjoint_partition_piece(d, n):
    kept = q.kept_labels(d)
    admissible = [x for x in range(1, d) if q.diagonal_home(x, n, d) in kept]
    assert admissible
    for xi in admissible:
        fam = q.build_modified_family(d, n, xi=xi)
        assert fam.removed == [(0, (0,) * n), (q.diagonal_home(xi, n, d), (xi,) * n)]
        assert fam.beyond_guarantee == (d < 4)
        assert [l for l in fam.labels if l != q.EXTRA_LABEL] == kept
        ranks = np.concatenate([fam[l].ranks for l in fam.labels])
        assert len(np.unique(ranks)) == len(ranks)
        assert len(ranks) == q.construction_size(d, n)
        # each kept set is its digit-sum class less the constant tuples
        # removed from it, so it stays permutation invariant; the constant
        # tuples go to the extra set
        for l in (l for l in fam.labels if l != q.EXTRA_LABEL):
            removed = {t for home, t in fam.removed if home == l}
            assert set(fam[l]) == digit_sum_class(d, n, l) - removed
        assert set(fam[q.EXTRA_LABEL]) == {(0,) * n, (xi,) * n}


def test_set_family_refuses_labels_not_int_or_str():
    # a label is an int or a str: a numpy integer sorts with neither, and a
    # bool would be written as "True" and read back as a string
    a = q.TupleSet.from_tuples((2, 2), [(0, 0)])
    b = q.TupleSet.from_tuples((2, 2), [(1, 1)])
    for bad in (np.int64(0), True, 1.0, (0,), None):
        with pytest.raises(ValueError, match=f"set label {re.escape(repr(bad))} "):
            q.SetFamily((2, 2), {bad: a, 1: b})
        with pytest.raises(ValueError, match="neither an int nor a str"):
            q.SetFamily((2, 2), {bad: a})
    assert q.SetFamily((2, 2), {0: a, "x": b}).labels == [0, "x"]


def test_modified_family_is_a_set_family(ex1_family):
    fam, plain = ex1_family, ex1_family.family
    assert isinstance(fam, q.SetFamily) and type(plain) is q.SetFamily
    assert fam == plain and len(fam) == 4 and fam.radix == (4, 4, 4)
    assert [l for l, _ in fam.items()] == fam.labels == plain.labels
    assert q.verify_strongest_nonlocality(fam) == q.verify_strongest_nonlocality(plain)
    states = q.family_states(fam)
    assert [ss.label for ss in states] == fam.labels and q.gram_check(states).ok
    assert type(fam.drop(1)) is q.SetFamily and fam.drop(1) == plain.drop(1)
    # the constructor takes d, n and xi, and builds the construction's sets
    assert q.ModifiedFamily(4, 3) == fam and q.ModifiedFamily(4, 3, 2) == fam
    assert q.ModifiedFamily(4, 3, "structured").xi == 2


def test_modified_family_refuses_inadmissible_xi():
    # at d=4, n=3 digit 1 homes to label 3, which is not kept
    with pytest.raises(InadmissibleXiError, match="not kept"):
        q.ModifiedFamily(4, 3, 1)
    with pytest.raises(InadmissibleXiError, match="outside"):
        q.ModifiedFamily(4, 3, 4)


def test_modified_family_derives_its_meta(ex1_family):
    # xi = 3 (home 1) removes other tuples than xi = 2; case and the
    # guarantee flag follow from d and n alone
    fam = q.ModifiedFamily(4, 3, 3)
    assert (fam.case, fam.beyond_guarantee) == (ex1_family.case, False) == ("II", False)
    assert fam.removed == [(0, (0, 0, 0)), (1, (3, 3, 3))]
    for name in ("case", "removed", "beyond_guarantee"):
        with pytest.raises(AttributeError):
            setattr(fam, name, None)


def test_modified_family_xi_is_read_only(ex1_family):
    # `removed` and the written meta follow xi, so it cannot change alone
    with pytest.raises(AttributeError):
        ex1_family.xi = 1
    assert ex1_family.xi == 2
    assert ex1_family.removed == [(0, (0, 0, 0)), (2, (2, 2, 2))]


# -------------------------------------------------------------- size rows

def test_construction_size_frozen_rows():
    rows = {
        4: [48, 192, 768, 3072, 12288, 49152],
        5: [75, 375, 1875, 9375, 46875, 234375],
        6: [108, 648, 3888, 23328, 139968, 839808],
        7: [147, 1029, 7203, 50421, 352947, 2470629],
    }
    for d, expect in rows.items():
        assert [q.construction_size(d, n) for n in range(3, 9)] == expect
