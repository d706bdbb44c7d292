import itertools

import pytest

import qnonloc as q
from qnonloc.verifier import Condition


def test_block_decompose_frozen_d3():
    fam = q.build_index_family(3, 2)
    dec = q.block_decompose(fam[0], 0)
    assert sorted(dec.classes) == [0, 1, 2]
    assert dec.classes[0].tuples() == [(0,)]
    assert dec.classes[2].tuples() == [(1,)]
    assert dec.classes[1].tuples() == [(2,)]


def test_block_decompose_d4_counts():
    fam = q.build_index_family(4, 3)
    dec = q.block_decompose(fam[0], 2)
    assert sorted(dec.classes) == [0, 1, 2, 3]
    assert all(len(c) == 4 for c in dec.classes.values())


def test_block_decompose_extra_set(ex1_family):
    dec = q.block_decompose(ex1_family["extra"], 1)
    assert {g: c.tuples() for g, c in dec.classes.items()} == {
        0: [(0, 0)], 2: [(2, 2)]}


def test_block_decompose_bad_cut():
    ts = q.TupleSet.from_tuples((2, 2), [(0, 0)])
    with pytest.raises(ValueError):
        q.block_decompose(ts, 2)


# ------------------------------------------------------------- block cover

def test_cover_on_unmodified_d3():
    fam = q.build_index_family(3, 2)
    cover = q.find_block_cover(fam, (0, 0), 0)
    assert cover is not None
    assert cover.common_digit != 0
    assert cover.tight  # singleton residuals intersect in exactly one tuple
    assert set(cover.contributor_labels) <= {1, 2}


def test_cover_absent_for_single_label():
    fam = q.build_index_family(3, 2)
    solo = q.SetFamily((3, 3), {0: fam[0]})
    assert q.find_block_cover(solo, (0, 0), 0) is None


def test_cover_spec_shape_d4_n5():
    """At arity 5 (n = 1 mod 4, structured xi = 2) label 1 is untouched and its
    digit-1 class is covered tightly at common digit 0: the punctured zero
    set plus the all-zeros tuple sitting in the extra set."""
    fam = q.build_modified_family(4, 5, xi="structured")
    assert fam.xi == 2
    cover = q.find_block_cover(fam.family, (1, 1), 0, require_tight=True)
    assert cover is not None
    assert cover.common_digit == 0
    assert cover.tight and cover.tight_label == "extra"
    assert {0, "extra"} <= set(cover.contributor_labels)
    assert 1 not in cover.contributor_labels


def test_cover_respects_allowed_labels(ex1_family):
    fam = ex1_family.family
    cover = q.find_block_cover(fam, (0, 0), 0, allowed_labels={1})
    full = q.find_block_cover(fam, (0, 0), 0)
    assert full is not None
    if cover is not None:
        assert set(cover.contributor_labels) <= {1}


def test_cover_unknown_target():
    fam = q.build_index_family(3, 2)
    with pytest.raises(KeyError):
        q.find_block_cover(fam, (7, 0), 0)
    with pytest.raises(KeyError):
        q.find_block_cover(fam, (0, 9), 0)


# ----------------------------------------------------------- classification

def test_classify_example_family(ex1_family):
    for k in range(3):
        verdicts = q.classify_block_triviality(ex1_family.family, k)
        assert list(verdicts) == [0, 1, 2, "extra"]  # canonical order
        assert verdicts["extra"].condition is Condition.SINGLETON
        assert all(v.condition.resolved() for v in verdicts.values())
        assert any(v.condition is Condition.TIGHT_COVER for v in verdicts.values())


def test_classify_d3_minimal(d3_minimal_family):
    verdicts = q.classify_block_triviality(d3_minimal_family.family, 0)
    assert verdicts["extra"].condition is Condition.SINGLETON
    assert verdicts[1].condition is Condition.TIGHT_COVER
    assert verdicts[0].condition is Condition.CHAINED_COVER


def test_classify_unresolved_full_family():
    fam = q.build_index_family(2, 3)
    verdicts = q.classify_block_triviality(fam, 0)
    assert all(v.condition is Condition.UNRESOLVED for v in verdicts.values())


def test_classify_singletons(product_family):
    verdicts = q.classify_block_triviality(product_family, 0)
    assert all(v.condition is Condition.SINGLETON for v in verdicts.values())


# ------------------------------------------------- pair covering and graph

def test_pair_covering_holds(ex1_family, product_family):
    for k in range(3):
        assert q.check_pair_covering(ex1_family.family, k)
    for k in range(2):
        assert q.check_pair_covering(product_family, k)


def test_pair_covering_fails_for_split_supports():
    radix = (2, 2)
    fam = q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 0)]),
        1: q.TupleSet.from_tuples(radix, [(1, 1)]),
    })
    assert not q.check_pair_covering(fam, 0)


def test_pair_covering_fails_after_ablation(ex1_family):
    sub = ex1_family.family.drop(1)
    for k in range(3):
        assert not q.check_pair_covering(sub, k)


def test_pair_covering_wide_digit_range():
    # more than 64 digits at the cut: one extension bit per digit still decides
    assert q.check_pair_covering(q.build_index_family(64, 2), 0)
    radix = (70, 2)
    fam = q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 0)]),
        1: q.TupleSet.from_tuples(radix, [(1, 1)]),
    })
    assert not q.check_pair_covering(fam, 0)


def test_connectivity(ex1_family, product_family):
    for k in range(3):
        assert q.check_connectivity(ex1_family.family, k)
    for k in range(2):
        assert not q.check_connectivity(product_family, k)
    solo = q.SetFamily((3, 3), {0: q.build_index_family(3, 2)[0]})
    assert q.check_connectivity(solo, 0)


# ------------------------------------------------------------ full verdicts

def test_verify_example_families(ex1_family, ex2_family, d3_minimal_family):
    for fam in (ex1_family, ex2_family, d3_minimal_family):
        reports = q.verify_strongest_nonlocality(fam)
        assert len(reports) == 3
        assert all(r.overall == "trivial" for r in reports)
        assert all(r.symmetric for r in reports)
        assert q.overall_verdict(reports) == "trivial"


def test_verify_product_basis(product_family):
    reports = q.verify_strongest_nonlocality(product_family)
    for r in reports:
        assert r.all_resolved
        assert r.pair_covering and not r.connectivity
        assert r.overall == "nontrivial"
        assert r.symmetric is False  # singleton supports are not symmetric
    assert q.overall_verdict(reports) == "nontrivial"


def test_verify_full_recursive_inconclusive():
    reports = q.verify_strongest_nonlocality(q.build_index_family(2, 3))
    assert all(r.overall == "inconclusive" for r in reports)
    assert q.overall_verdict(reports) == "inconclusive"


def test_verify_selected_cuts(ex1_family):
    reports = q.verify_strongest_nonlocality(ex1_family, cuts=[2])
    assert [r.k for r in reports] == [2]
    with pytest.raises(ValueError):
        q.verify_strongest_nonlocality(ex1_family, cuts=[5])


def test_verify_mixed_radix_family():
    radix = (2, 3)
    sets = {i: q.TupleSet.from_tuples(radix, [t])
            for i, t in enumerate(itertools.product(range(2), range(3)))}
    fam = q.SetFamily(radix, sets)
    reports = q.verify_strongest_nonlocality(fam)
    assert len(reports) == 2
    assert all(r.symmetric is False for r in reports)
    assert all(r.all_resolved for r in reports)


def test_verify_rejects_single_party():
    fam = q.SetFamily((3,), {0: q.TupleSet.from_tuples((3,), [(0,)])})
    with pytest.raises(ValueError):
        q.verify_strongest_nonlocality(fam)
