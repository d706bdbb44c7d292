import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qnonloc as q
from qnonloc.errors import InternalConsistencyError
from qnonloc.lattice import cut_table, member_cube
from qnonloc.verifier import Condition, LabelVerdict


def cut(fam, k):
    """The checker's report on cut k alone."""
    return q.verify_strongest_nonlocality(fam, cuts=[k])[0]


# ------------------------------------------------------------- block cover

def test_cover_spec_shape_d4_n5():
    """At arity 5 (n = 1 mod 4, structured xi = 2) label 1 is untouched and its
    digit-1 class is covered tightly at common digit 0: the punctured zero
    set plus the all-zeros tuple sitting in the extra set."""
    fam = q.build_modified_family(4, 5, xi="structured")
    assert fam.xi == 2
    verdict = cut(fam, 0).conditions[1]
    assert verdict.condition is Condition.TIGHT_COVER
    assert verdict.target_digit == 1
    assert verdict.common_digit == 0
    assert verdict.tight_label == "extra"
    assert {0, "extra"} <= set(verdict.contributor_labels)
    assert 1 not in verdict.contributor_labels


# ----------------------------------------------------------- classification

def test_classify_example_family(ex1_family):
    for k in range(3):
        verdicts = cut(ex1_family, k).conditions
        assert list(verdicts) == [0, 1, 2, "extra"]  # canonical order
        assert verdicts["extra"].condition is Condition.SINGLETON
        assert all(v.condition.resolved() for v in verdicts.values())
        assert any(v.condition is Condition.TIGHT_COVER for v in verdicts.values())


def test_classify_d3_minimal(d3_minimal_family):
    verdicts = cut(d3_minimal_family, 0).conditions
    assert verdicts["extra"].condition is Condition.SINGLETON
    assert verdicts[1].condition is Condition.TIGHT_COVER
    assert verdicts[0].condition is Condition.CHAINED_COVER


def test_classify_unresolved_full_family():
    fam = q.build_index_family(2, 3)
    verdicts = cut(fam, 0).conditions
    assert all(v.condition is Condition.UNRESOLVED for v in verdicts.values())


def test_classify_singletons(product_family):
    verdicts = cut(product_family, 0).conditions
    assert all(v.condition is Condition.SINGLETON for v in verdicts.values())


def test_classify_chained_cover_in_second_pass():
    # at k = 0 label 1 is covered by the singleton label 2 in the first
    # chained round, and label 0 needs label 1, so the second round decides it
    radix = (3, 4)
    fam = q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 2), (0, 3)]),
        1: q.TupleSet.from_tuples(radix, [(0, 0), (0, 1), (1, 2), (1, 3)]),
        2: q.TupleSet.from_tuples(radix, [(1, 0), (1, 1), (2, 0)]),
    })
    verdicts = cut(fam, 0).conditions
    assert [v.condition for v in verdicts.values()] == [
        Condition.CHAINED_COVER, Condition.CHAINED_COVER, Condition.SINGLETON]
    assert verdicts[0] == LabelVerdict(Condition.CHAINED_COVER, 0, 1, (1, 2), None)
    assert verdicts[1] == LabelVerdict(Condition.CHAINED_COVER, 0, 1, (2,), None)


# ------------------------------------------------- pair covering and graph

def test_pair_covering_holds(ex1_family, product_family):
    for k in range(3):
        assert cut(ex1_family, k).pair_covering
    for k in range(2):
        assert cut(product_family, k).pair_covering


def test_pair_covering_fails_for_split_supports():
    radix = (2, 2)
    fam = q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 0)]),
        1: q.TupleSet.from_tuples(radix, [(1, 1)]),
    })
    assert not cut(fam, 0).pair_covering


def test_pair_covering_fails_after_ablation(ex1_family):
    sub = ex1_family.family.drop(1)
    for k in range(3):
        assert not cut(sub, k).pair_covering


def test_pair_covering_wide_digit_range():
    # more than 64 digits at the cut: one extension bit per digit still decides
    assert cut(q.build_index_family(64, 2), 0).pair_covering
    radix = (70, 2)
    fam = q.SetFamily(radix, {
        0: q.TupleSet.from_tuples(radix, [(0, 0)]),
        1: q.TupleSet.from_tuples(radix, [(1, 1)]),
    })
    assert not cut(fam, 0).pair_covering


def test_connectivity(ex1_family, product_family):
    for k in range(3):
        assert cut(ex1_family, k).connectivity
    for k in range(2):
        assert not cut(product_family, k).connectivity
    solo = q.SetFamily((3, 3), {0: q.build_index_family(3, 2)[0]})
    assert cut(solo, 0).connectivity


@pytest.mark.parametrize("k", [-1, 3])
def test_checks_reject_cut_out_of_range(k):
    fam = q.build_modified_family(4, 3)
    with pytest.raises(ValueError, match=f"cut {k} out of range for arity 3"):
        cut(fam, k)
    with pytest.raises(ValueError, match=f"cut {k} out of range for arity 3"):
        q.oracle_verify(q.family_states(fam), cuts=[0, k])


def test_requested_cuts_are_nonempty_lists_of_integers():
    fam = q.build_modified_family(4, 3)
    states = q.family_states(fam)
    for route in (lambda c: q.verify_strongest_nonlocality(fam, cuts=c),
                  lambda c: q.oracle_verify(states, cuts=c)):
        # no cut would read as a trivial family
        with pytest.raises(ValueError, match="no cut requested"):
            route([])
        # a request that is not a list of cuts is refused before any work
        for bad in (0, np.int64(1), 1.5):
            with pytest.raises(ValueError, match=f"cuts {re.escape(repr(bad))} is not a list"):
                route(bad)
        for bad in (True, 1.0, "1", np.float64(1)):
            with pytest.raises(ValueError, match=f"cut {re.escape(repr(bad))} is not an integer"):
                route([0, bad])
        # numpy integers are read as the ints they hold
        reports = route([np.int64(1), np.uint8(2)])
        assert [r.k for r in reports] == [1, 2] and all(type(r.k) is int for r in reports)
    report = q.oracle_verify(states, cuts=[np.int64(1)])[0]
    assert json.loads(q.dumps_canonical(q.oracle_report_to_json(report)))["k"] == 1


def test_checks_reject_overlapping_sets():
    # set 3 repeats set 0, as the oracle and the Gram check would both notice
    f = q.build_index_family(3, 2)
    sets = {0: f[0], 1: f[1], 2: f[2], 3: f[0]}
    states = [q.PhaseStateSet(ts, label=l) for l, ts in sets.items()]
    assert q.gram_check(states).structural_overlap
    with pytest.raises(InternalConsistencyError):
        q.oracle_verify(states)
    # no family holds them, so the checker never meets them
    with pytest.raises(ValueError, match="disjoint"):
        q.SetFamily((3, 3), sets)


# ------------------------------------------------- plain-Python reference

def reference_checks(fam, k):
    """Conditions, pair covering and connectivity from per-label dicts of
    digit -> set of residual tuples, scanned as the verifier documents."""
    order = fam.labels
    d_k = fam.radix[k]
    classes = {}
    for l, ts in fam.items():
        classes[l] = {}
        for t in ts:
            classes[l].setdefault(t[k], set()).add(t[:k] + t[k + 1:])

    def find_cover(l, tau, allowed, require_tight):
        target = classes[l][tau]
        for g in range(d_k):
            if g == tau:
                continue
            contrib = [v for v in order if v != l and g in classes[v]
                       and (allowed is None or v in allowed)]
            if not contrib or not target <= set().union(*(classes[v][g] for v in contrib)):
                continue
            tight = next((v for v in contrib if len(classes[v][g] & target) == 1), None)
            if require_tight and tight is None:
                continue
            return g, tuple(contrib), tight
        return None

    verdicts, resolved = {}, set()
    for l in order:
        single = [g for g in sorted(classes[l]) if len(classes[l][g]) == 1]
        if single:
            verdicts[l] = LabelVerdict(Condition.SINGLETON, single[0])
            resolved.add(l)

    def resolve(condition, allowed, require_tight):
        grew = False
        for l in order:
            if l in resolved:
                continue
            for tau in sorted(classes[l]):
                cover = find_cover(l, tau, allowed, require_tight)
                if cover is not None:
                    verdicts[l] = LabelVerdict(condition, tau, *cover)
                    resolved.add(l)
                    grew = True
                    break
        return grew

    resolve(Condition.TIGHT_COVER, None, True)
    # each chained round admits exactly the labels resolved before it
    while resolve(Condition.CHAINED_COVER, frozenset(resolved), False):
        pass
    conditions = {l: verdicts.get(l, LabelVerdict(Condition.UNRESOLVED)) for l in order}

    union = set().union(*(set(ts) for ts in fam.sets()))
    reduced = fam.radix[:k] + fam.radix[k + 1:]
    ext = [{g for g in range(d_k) if r[:k] + (g,) + r[k:] in union}
           for r in itertools.product(*map(range, reduced))]
    pair = all(a & b for a, b in itertools.product(set(map(frozenset, ext)), repeat=2))

    footprints = [set().union(*classes[l].values()) for l in order]
    seen, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for other in range(len(order)):
            if other not in seen and footprints[cur] & footprints[other]:
                seen.add(other)
                frontier.append(other)
    return conditions, pair, len(seen) == len(order)


@st.composite
def small_families(draw):
    """Random labelings of a small mixed-radix cube of two to four parties
    (the checker refuses one), each label holding at least one tuple.  Half
    of them label by a weighted digit sum, then move a few tuples to the last
    label and drop a few more, as the modified construction does; that gives
    covers."""
    radix = draw(st.lists(st.sampled_from([2, 3, 4, 9, 10]), min_size=2, max_size=4)
                 .filter(lambda r: math.prod(r) <= 200))
    labels = draw(st.lists(st.one_of(st.integers(0, 6), st.sampled_from(["extra", "a"])),
                           min_size=1, max_size=5, unique=True))
    cube = list(itertools.product(*map(range, radix)))
    L = len(labels)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 3), min_size=len(radix), max_size=len(radix)))
        owner = [sum(w * x for w, x in zip(weights, t)) % max(L - 1, 1) for t in cube]
        for r in draw(st.sets(st.integers(0, len(cube) - 1), min_size=1, max_size=3)):
            owner[r] = L - 1
        for r in draw(st.sets(st.integers(0, len(cube) - 1), max_size=1)):
            owner[r] = -1
    else:
        owner = draw(st.lists(st.integers(-1, L - 1),
                              min_size=len(cube), max_size=len(cube)))
    members = {l: [t for t, o in zip(cube, owner) if o == i] for i, l in enumerate(labels)}
    assume(any(members.values()))
    return q.SetFamily(radix, {l: q.TupleSet.from_tuples(radix, ts)
                               for l, ts in members.items() if ts})


@settings(max_examples=150, deadline=None)
@given(small_families(), st.data())
def test_checks_match_reference(fam, data):
    k = data.draw(st.integers(0, len(fam.radix) - 1))
    conditions, pair, conn = reference_checks(fam, k)
    report = cut(fam, k)
    assert list(report.conditions) == list(conditions)
    assert report.conditions == conditions
    assert report.pair_covering == pair
    assert report.connectivity == conn


# ------------------------------------------------------------ full verdicts

def test_verify_example_families(ex1_family, ex2_family, d3_minimal_family):
    for fam in (ex1_family, ex2_family, d3_minimal_family):
        reports = q.verify_strongest_nonlocality(fam)
        assert len(reports) == 3
        assert all(r.overall == "trivial" for r in reports)
        assert q.overall_verdict(reports) == "trivial"


def test_verify_product_basis(product_family):
    reports = q.verify_strongest_nonlocality(product_family)
    for r in reports:
        assert r.pair_covering and not r.connectivity
        assert r.overall == "nontrivial"
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
    assert all(r.overall != "inconclusive" for r in reports)


def test_cover_count_leaves_out_singleton_labels(monkeypatch):
    # a product basis of Z_2^8 has 256 singleton sets and nothing to count,
    # where a count with every label as a target would be 2**2 * 256 * 257
    radix = (2,) * 8
    fam = q.SetFamily(radix, {r: q.TupleSet(radix, np.array([r])) for r in range(256)})
    monkeypatch.setenv("QNONLOC_CAP", "100000")
    reports = q.verify_strongest_nonlocality(fam)
    assert all(r.overall == "nontrivial" for r in reports)


def test_connectivity_of_many_labels_stays_small():
    # a product basis of Z_2^12: 4096 singleton sets whose footprints never
    # meet at cut 0, labelled by the union-find in memory linear in the table
    radix = (2,) * 12
    fam = q.SetFamily(radix, {r: q.TupleSet(radix, np.array([r])) for r in range(4096)})
    tracemalloc.start()
    try:
        report = cut(fam, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pair_covering and not report.connectivity
    assert report.overall == "nontrivial"
    assert peak < 16 * 2**20


def test_family_laid_out_once_per_call(ex1_family, monkeypatch):
    # on both routes every cut's table is a transposed copy of one member cube
    from qnonloc import oracle, verifier
    calls = []

    def counting(radix, sets, *, limit=None):
        calls.append(radix)
        return member_cube(radix, sets, limit=limit)

    monkeypatch.setattr(verifier, "member_cube", counting)
    monkeypatch.setattr(oracle, "member_cube", counting)
    reports = q.verify_strongest_nonlocality(ex1_family)
    assert [r.overall for r in reports] == ["trivial"] * 3
    assert calls == [(4, 4, 4)]
    calls.clear()
    reports = q.oracle_verify(q.family_states(ex1_family))
    assert [r.verdict for r in reports] == ["trivial"] * 3
    assert calls == [(4, 4, 4)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_lays_the_family_out_once_per_route(fmt, monkeypatch, capsys):
    # `qnonloc verify` makes one checker call and one oracle call for every
    # cut, so the golden file's member cube is laid out exactly twice
    from qnonloc import oracle, verifier
    from qnonloc.cli import main
    calls = []

    def counting(radix, sets, *, limit=None):
        calls.append(radix)
        return member_cube(radix, sets, limit=limit)

    monkeypatch.setattr(verifier, "member_cube", counting)
    monkeypatch.setattr(oracle, "member_cube", counting)
    golden = Path(__file__).parent / "data" / "modified_4_3_xi2.json"
    assert main(["verify", str(golden), "--format", fmt]) == 0
    assert calls == [(4, 4, 4)] * 2
    capsys.readouterr()


def test_cap_read_once_per_call(ex1_family, monkeypatch):
    # each route reads QNONLOC_CAP once a call and hands it to every check
    from qnonloc import caps
    reads = []

    def counting():
        reads.append(None)
        return caps.DEFAULT_ENUM_CAP

    monkeypatch.setattr(caps, "enum_cap", counting)
    states = q.family_states(ex1_family)
    for call in (lambda: q.verify_strongest_nonlocality(ex1_family),
                 lambda: q.oracle_verify(states, cuts=[1]),
                 lambda: q.oracle_verify(states)):
        reads.clear()
        call()
        assert len(reads) == 1


def test_verify_rejects_single_party():
    fam = q.SetFamily((3,), {0: q.TupleSet.from_tuples((3,), [(0,)])})
    with pytest.raises(ValueError, match="a cut needs at least two parties"):
        q.verify_strongest_nonlocality(fam)
    with pytest.raises(ValueError, match="a cut needs at least two parties"):
        q.oracle_verify(q.family_states(fam))


def test_checks_match_reference_on_built_families(built_slice):
    """The built families, their ablations and seeded sub-families, on every
    cut; between them they reach all four conditions."""
    seen = set()
    for name, fam in built_slice:
        for k in range(len(fam.radix)):
            conditions, pair, conn = reference_checks(fam, k)
            report = cut(fam, k)
            assert list(report.conditions) == list(conditions)
            for l, v in report.conditions.items():
                assert v == conditions[l], (name, k, l)
            assert report.pair_covering == pair, (name, k)
            assert report.connectivity == conn, (name, k)
            seen.update(v.condition for v in conditions.values())
    assert seen == set(Condition)


def test_failed_global_condition_is_nontrivial(built_slice):
    """A cut failing pair covering or connectivity is nontrivial whatever its
    labels resolve to, and the oracle leaves it at least two free classes."""
    failed = 0
    for name, fam in built_slice:
        reports = q.verify_strongest_nonlocality(fam)
        ks = [r.k for r in reports if not (r.pair_covering and r.connectivity)]
        assert all(reports[k].overall == "nontrivial" for k in ks), name
        if ks:
            dims = [r.nullspace_dim for r in q.oracle_verify(q.family_states(fam), cuts=ks)]
            assert min(dims) >= 2, (name, ks, dims)
        failed += len(ks)
    assert failed > len(built_slice)


def test_decided_cuts_hold_under_every_bijection(built_slice):
    """The checker reads supports only, so a cut it decides is decided the
    same way by the oracle under any bijection: two seeded random ones per
    family with d**n <= 256."""
    rng = np.random.default_rng(20261020)
    checked = 0
    for name, fam in built_slice:
        if math.prod(fam.radix) > 256:
            continue
        decided = {r.k: r.overall for r in q.verify_strongest_nonlocality(fam)
                   if r.overall != "inconclusive"}
        if not decided:
            continue
        for _ in range(2):
            states = [q.PhaseStateSet(ts, label=l, bijection=rng.permutation(len(ts)))
                      for l, ts in fam.items()]
            for r in q.oracle_verify(states, cuts=list(decided)):
                assert r.verdict == decided[r.k], (name, r.k)
            checked += len(decided)
    assert checked >= 2500


# ------------------------------------------------------------ stacked cuts

@pytest.fixture(scope="module")
def stacking_battery(built_bases):
    """(name, family): the built bases and mixed-radix cubes split by digit
    sum mod 2, 3 and 5, each with its one-set ablations, and a seeded 80%
    sub-family of every one."""
    rng = np.random.default_rng(20261019)
    bases = list(built_bases)
    for radix in [(2, 3, 2), (3, 2, 2), (2, 3, 4), (4, 2, 3, 2)]:
        cube = np.array(list(itertools.product(*map(range, radix))))
        for m in (2, 3, 5):
            owner = cube.sum(axis=1) % m
            bases.append((f"{radix}%{m}", q.SetFamily(radix, {
                i: q.TupleSet.from_digits(radix, cube[owner == i]) for i in range(m)})))
    out = []
    for name, fam in bases:
        ablations = [(f"{name}-{l}", fam.drop(l)) for l in fam.labels if len(fam) > 1]
        for var_name, var in [(name, fam), *ablations]:
            sets = {}
            for l, ts in var.items():
                keep = rng.choice(len(ts), size=max(1, round(0.8 * len(ts))), replace=False)
                sets[l] = q.TupleSet(var.radix, ts.ranks[keep])
            out += [(var_name, var), (var_name + "~", q.SetFamily(var.radix, sets))]
    return out


def test_stacked_cuts_match_single_cuts(stacking_battery):
    """Every cut of a block reports what it reports alone, whatever the
    other cuts stacked with it resolve."""
    seen = set()
    for name, fam in stacking_battery:
        reports = q.verify_strongest_nonlocality(fam)
        assert reports == [cut(fam, k) for k in range(len(fam.radix))], name
        seen.update(v.condition for r in reports for v in r.conditions.values())
    assert seen == set(Condition)


def test_requested_cuts_keep_their_order(stacking_battery):
    fam = dict(stacking_battery)["(4, 2, 3, 2)%3"]
    reports = q.verify_strongest_nonlocality(fam, cuts=[3, 0, 3, 2, 1])
    assert [r.k for r in reports] == [3, 0, 3, 2, 1]
    assert reports == [cut(fam, k) for k in (3, 0, 3, 2, 1)]


def test_chained_covers_admit_the_labels_resolved_before_them():
    # sets Z_i hold row 0 at columns 2i, 2i + 1 and row 1 at 2i + 2, 2i + 3,
    # so Z_i's row-0 class is covered at digit 1 by Z_(i-1) alone; Z_0's
    # cover, by the singletons 4 and 5, is tight.  Numbered along the chain
    # or against it, it resolves one link a round.
    radix = (2, 10)

    def chain(names):
        sets = {names[i]: q.TupleSet.from_tuples(radix, [(0, 2 * i), (0, 2 * i + 1),
                                                         (1, 2 * i + 2), (1, 2 * i + 3)])
                for i in range(4)}
        sets |= {4: q.TupleSet.from_tuples(radix, [(1, 0)]),
                 5: q.TupleSet.from_tuples(radix, [(1, 1)])}
        return cut(q.SetFamily(radix, sets), 0).conditions

    for names in ([0, 1, 2, 3], [3, 2, 1, 0]):
        verdicts = chain(names)
        assert verdicts[names[0]].condition is Condition.TIGHT_COVER
        for i in (1, 2, 3):
            expected = tuple(sorted(names[:i])) + (4, 5)
            assert verdicts[names[i]] == LabelVerdict(Condition.CHAINED_COVER, 0, 1, expected)


def test_verdicts_do_not_depend_on_label_numbering(built_slice):
    """Reversing the integer labels of a family renames its verdicts and
    changes nothing else: each label keeps its condition, target digit,
    common digit and contributors, and its tight label, which the smallest
    label index picks, is still a contributor meeting the class in one
    column."""
    for name, fam in built_slice:
        top = max((l for l in fam.labels if isinstance(l, int)), default=0)
        old = {(top - l if isinstance(l, int) else l): l for l in fam.labels}
        renamed = q.SetFamily(fam.radix, {new: fam[l] for new, l in old.items()})
        reports = zip(q.verify_strongest_nonlocality(fam), q.verify_strongest_nonlocality(renamed))
        for report, other in reports:
            k = report.k

            def cls(l, g):
                return {tuple(np.delete(t, k)) for t in fam[l].members() if t[k] == g}

            for new, v in other.conditions.items():
                l = old[new]
                want = report.conditions[l]
                where = (name, k, l)
                assert (v.condition, v.target_digit, v.common_digit) == (
                    want.condition, want.target_digit, want.common_digit), where
                assert {old[x] for x in v.contributor_labels} == set(want.contributor_labels), where
                assert (v.tight_label is None) == (want.tight_label is None), where
                if v.tight_label is not None:
                    tight = old[v.tight_label]
                    assert tight in want.contributor_labels, where
                    meet = cls(tight, v.common_digit) & cls(l, v.target_digit)
                    assert len(meet) == 1, where


@pytest.mark.parametrize("build, blocks", [
    (lambda: q.build_index_family(6, 4), [(4, 6, 216)]),
    (lambda: q.build_index_family(3, 7), [(3, 3, 729)] * 2 + [(1, 3, 729)]),
    (lambda: q.build_modified_family(4, 7), [(1, 4, 10)] * 7),
    (lambda: q.SetFamily((4, 2, 3, 2), {0: q.TupleSet((4, 2, 3, 2), np.arange(48))}),
     [(1, 4, 12), (2, 2, 24), (1, 3, 16)]),
], ids=["index(6,4)", "index(3,7)", "modified(4,7)", "mixed"])
def test_cuts_stack_by_digit_count_in_blocks(monkeypatch, build, blocks):
    # a block holds cuts of one d_k and at most 8192 table entries; a cut of
    # more than 4096 entries is a block of its own, checked on its distinct
    # columns, each kept at most twice
    from qnonloc import verifier
    seen = []

    def recording(tables, labels, limit):
        seen.append(tables.shape)
        return classify(tables, labels, limit)

    classify = verifier._classify
    monkeypatch.setattr(verifier, "_classify", recording)
    q.verify_strongest_nonlocality(build())
    assert seen == blocks


def _cut_tables(fam):
    """Each cut's full (d_k, D) label table, as the checker lays it out."""
    sizes = [len(ts) for ts in fam.sets()]
    label = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    cube = np.append(label, np.int32(-1))[member_cube(fam.radix, fam.sets())]
    return [cut_table(cube, k) for k in range(len(fam.radix))]


@pytest.mark.parametrize("d, n", [(4, 6), (4, 7), (4, 8), (4, 9), (3, 8)])
def test_modified_cuts_have_d_plus_2_distinct_columns(d, n):
    # a column's labels follow its residual's digit sum mod d, except at the
    # two constant residuals, whose tuples moved to "extra": so the checker's
    # work on a merged cut does not grow with D
    from qnonloc.verifier import _distinct_columns
    for table in _cut_tables(q.build_modified_family(d, n)):
        columns = _distinct_columns(table)
        assert columns.shape == (1, d, 2 * d + 2)
        _, copies = np.unique(columns[0].T, axis=0, return_counts=True)
        assert len(copies) == d + 2 and copies.max() == 2
        # every kept column is one of the table's
        assert {*map(tuple, columns[0].T)} == {*map(tuple, table.T)}


@st.composite
def repeating_tables(draw):
    """A (d_k, D) label table over 1 to 5 labels, with some empty entries
    (-1): up to 8 random columns, each repeated 1 to 5 times, in a random
    order, so at most 40 columns."""
    d_k, L = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    column = st.lists(st.integers(-1, L - 1), min_size=d_k, max_size=d_k)
    columns = draw(st.lists(st.tuples(column, st.integers(1, 5)), min_size=1, max_size=8))
    table = draw(st.permutations([c for c, times in columns for _ in range(times)]))
    return np.array(table, dtype=np.int32).T, L


@settings(max_examples=300, deadline=None)
@given(repeating_tables())
def test_checks_on_columns_kept_at_most_twice_match_the_full_table(table_labels):
    """Every count the checks read is read only as 0, 1 or more, so a table
    with each distinct column kept at most twice gives the full table's
    verdicts, pair covering and connectivity."""
    from qnonloc.verifier import _classify, _connectivity, _distinct_columns, _pair_covering
    table, L = table_labels
    kept = _distinct_columns(table)
    columns, copies = np.unique(kept[0].T, axis=0, return_counts=True)
    all_columns, all_copies = np.unique(table.T, axis=0, return_counts=True)
    assert np.array_equal(columns, all_columns)
    assert np.array_equal(copies, np.minimum(all_copies, 2))
    full, labels = table[None], list(range(L))
    assert _classify(kept, labels, 10**7) == _classify(full, labels, 10**7)
    assert _pair_covering(kept, 10**7) == _pair_covering(full, 10**7)
    assert _connectivity(kept, L) == _connectivity(full, L)


def _random_labeling(radix, n_labels, seed):
    """Each tuple of the cube in one of `n_labels` sets or, one in ten, in
    none, so that most columns of a cut differ."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, n_labels, math.prod(radix))
    owner[rng.random(len(owner)) < 0.1] = -1
    return q.SetFamily(radix, {l: q.TupleSet(radix, np.flatnonzero(owner == l))
                               for l in range(n_labels) if (owner == l).any()})


@pytest.fixture(scope="module")
def merged_battery():
    """(name, family): families each of whose cuts has more than 4096
    entries, so every cut is checked on its distinct columns; between them
    they reach every condition, verdict and failed global condition."""
    return [("modified(4,7)", q.build_modified_family(4, 7)),
            ("modified(3,8)", q.build_modified_family(3, 8)),
            ("modified(4,7,2) without 0", q.build_modified_family(4, 7, 2).drop(0)),
            ("modified(3,9,1) without 1", q.build_modified_family(3, 9, 1).drop(1)),
            ("modified(5,6)", q.build_modified_family(5, 6)),
            ("index(2,13)", q.build_index_family(2, 13)),
            ("index(4,7)", q.build_index_family(4, 7)),
            ("random Z_5^6", _random_labeling((5,) * 6, 7, 20261020)),
            ("random Z_4^7", _random_labeling((4,) * 7, 60, 20261021)),
            ("random Z_2^13", _random_labeling((2,) * 13, 500, 20261022))]


def test_merged_cuts_match_the_full_tables(merged_battery):
    """The checks on a cut's distinct columns report what they report on its
    full table: every label verdict, pair covering, connectivity, overall."""
    from qnonloc.verifier import (CutReport, _classify, _connectivity, _cut_overall,
                                  _distinct_columns, _pair_covering)
    seen, distinct = set(), []
    for name, fam in merged_battery:
        reports = q.verify_strongest_nonlocality(fam)
        for k, table in enumerate(_cut_tables(fam)):
            assert table.size > 4096, name
            full = table[None]
            conditions = _classify(full, fam.labels, 10**7)[0]
            pair = _pair_covering(full, 10**7)[0]
            conn = _connectivity(full, len(fam))[0]
            want = CutReport(k, conditions, pair, conn, _cut_overall(conditions, pair, conn))
            assert reports[k] == want, (name, k)
            seen.update(v.condition for v in conditions.values())
            seen.update([("pair", pair), ("conn", conn)])
            distinct.append(_distinct_columns(table).shape[2] / table.shape[1])
        seen.add(q.overall_verdict(reports))
    assert seen == {*Condition, "trivial", "inconclusive", "nontrivial",
                    ("pair", True), ("pair", False), ("conn", True), ("conn", False)}
    assert max(distinct) > 0.9  # the random labelings leave few columns alike


def test_merged_cuts_refuse_the_full_tables_counts(monkeypatch):
    """A merged cut holds to the cap the co-occurrence count and row pairs
    of its full table, so one below either is refused with that count."""
    from qnonloc.errors import ResourceLimitError
    # 300 sets of about 50 tuples: no singleton class, so all 300 are targets
    many = _random_labeling((4,) * 7, 300, 7)
    # one set of half the (16, 16, 16, 2) cube: cut 0 has one target and
    # close to 512 distinct extension rows
    rng = np.random.default_rng(8)
    one = q.SetFamily((16, 16, 16, 2), {0: q.TupleSet((16, 16, 16, 2),
                                                      np.flatnonzero(rng.random(8192) < 0.5))})
    for fam, what in [(many, "co-occurrence counts"), (one, "residual row pairs")]:
        table = _cut_tables(fam)[0]
        d_k, L = table.shape[0], len(fam)
        sizes = np.stack([np.bincount(row[row >= 0], minlength=L) for row in table])
        U = int((~(sizes == 1).any(axis=0)).sum())
        rows = np.unique(table >= 0, axis=1).shape[1]
        count = d_k * d_k * U * (L + 1) if what == "co-occurrence counts" else rows * rows
        assert count > math.prod(fam.radix)
        monkeypatch.setenv("QNONLOC_CAP", str(count - 1))
        with pytest.raises(ResourceLimitError) as exc:
            q.verify_strongest_nonlocality(fam, cuts=[0])
        assert str(exc.value) == (f"{count} {what} exceed enumeration cap {count - 1} "
                                  "(set QNONLOC_CAP to raise it)")
        monkeypatch.setenv("QNONLOC_CAP", str(count))
        q.verify_strongest_nonlocality(fam, cuts=[0])
