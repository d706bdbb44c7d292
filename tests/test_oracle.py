import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnonloc as q
from qnonloc.errors import InternalConsistencyError, ResourceLimitError
from qnonloc.oracle import assemble_constraints, hermitian_nullspace


def test_assemble_shapes(bell_family):
    states = q.family_states(bell_family)
    sys = assemble_constraints(states, 0)
    assert sys.A.shape == (4, 2, 2) and sys.D == 2
    assert sys.n_params == 4
    assert np.allclose(np.linalg.norm(sys.A, axis=(1, 2)), 1.0)
    # 4 states -> 12 ordered pairs -> 12 complex rows, 3 for each state
    batches = list(sys.iter_row_batches())
    assert [b.shape for b in batches] == [(3, 4)] * 4


def test_assemble_rejects_mixed_radix():
    a = q.PhaseStateSet(q.TupleSet.from_tuples((2, 2), [(0, 0), (1, 1)]), 0)
    b = q.PhaseStateSet(q.TupleSet.from_tuples((2, 3), [(0, 0), (1, 1)]), 1)
    with pytest.raises(ValueError):
        assemble_constraints([a, b], 0)
    with pytest.raises(ValueError):
        assemble_constraints([a], 2)


def test_exact_route_held_to_cap(bell_family, ex1_family, monkeypatch):
    # a Bell cut broadcasts d_k * D**2 = 2 * 2**2 = 8 slots
    states = q.family_states(bell_family)
    monkeypatch.setenv("QNONLOC_CAP", "8")
    assert q.oracle_verify(states, cuts=[0])[0].nullspace_dim == 1

    # the product basis of (2, 3) has 3 * 2**2 = 12 slots at cut 1 and
    # 2 * 3**2 = 18 at cut 0: both fit a cap of 18
    product = q.family_states(q.SetFamily((2, 3), {
        i: q.TupleSet((2, 3), [i]) for i in range(6)}))
    monkeypatch.setenv("QNONLOC_CAP", "18")
    assert [r.nullspace_dim for r in q.oracle_verify(product, cuts=[1, 0])] == [2, 3]

    def no_layout(*args):
        raise AssertionError("family laid out past the cap")

    monkeypatch.setattr("qnonloc.oracle.member_cube", no_layout)
    monkeypatch.setattr("qnonloc.oracle.cut_table", no_layout)
    monkeypatch.setenv("QNONLOC_CAP", "7")
    with pytest.raises(ResourceLimitError):
        q.oracle_verify(states, cuts=[0])
    # every requested cut is checked before the first is laid out
    monkeypatch.setenv("QNONLOC_CAP", "17")
    with pytest.raises(ResourceLimitError, match="18 same-digit pair slots"):
        q.oracle_verify(product, cuts=[1, 0])
    monkeypatch.undo()
    # modified (4,3): the checker's cube of 64 and its 240 co-occurrence
    # counts fit a cap of 240, the oracle's 4 * 16**2 = 1024 slots do not
    monkeypatch.setenv("QNONLOC_CAP", "240")
    assert [r.overall for r in q.verify_strongest_nonlocality(ex1_family)] == ["trivial"] * 3
    with pytest.raises(ResourceLimitError):
        q.oracle_verify(q.family_states(ex1_family.family), cuts=[0])


def test_exact_route_memory_stays_small():
    # index (2,9), cut 1: the pair masks are boolean over 2 * 256**2 slots;
    # the class nodes and entries are integers at the within-set pairs only
    states = q.family_states(q.build_index_family(2, 9))
    tracemalloc.start()
    try:
        report = q.oracle_verify(states, cuts=[1])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.nullspace_dim, report.verdict) == (2, "nontrivial")
    assert peak < 14 * 2**20


def test_bell_cut_is_trivial(bell_family):
    states = q.family_states(bell_family)
    for k in (0, 1):
        sys = assemble_constraints(states, k)
        res = hermitian_nullspace(sys)
        assert res.dim == 1
        assert res.rows_total == res.rows_kept == 12
        assert res.identity_residual <= 1e-12
        rep = q.oracle_verify(states, cuts=[k])[0]
        assert (rep.nullspace_dim, rep.verdict, rep.witness) == (1, "trivial", None)


def test_single_state_all_operators_allowed():
    ts = q.TupleSet.from_tuples((2, 2), [(0, 0)])
    states = [q.PhaseStateSet(ts, 0)]
    sys = assemble_constraints(states, 0)
    res = hermitian_nullspace(sys)
    assert res.rows_total == 0
    assert res.dim == 4  # no constraints at all


def test_product_basis_witness(product_family):
    states = q.family_states(product_family)
    assert hermitian_nullspace(assemble_constraints(states, 0)).dim == 2
    rep = q.oracle_verify(states, cuts=[0])[0]
    assert (rep.k, rep.D, rep.nullspace_dim, rep.verdict) == (0, 2, 2, "nontrivial")
    _assert_witness(rep.witness, states, 0)


def test_non_orthogonal_input_rejected():
    ts = q.TupleSet.from_tuples((2, 2), [(0, 0), (0, 1)])
    s0 = q.PhaseStateSet(ts, 0)
    # identical support with identical phases: states 0 coincide
    s1 = q.PhaseStateSet(ts, 1)
    sys = assemble_constraints([s0, s1], 0)
    with pytest.raises(InternalConsistencyError):
        hermitian_nullspace(sys)


def test_row_matrix_held_to_enumeration_cap(bell_family, monkeypatch):
    # 12 rows of 4 entries: 48 fits a cap of 48 and not one of 47
    sys = assemble_constraints(q.family_states(bell_family), 0)
    monkeypatch.setenv("QNONLOC_CAP", "48")
    assert hermitian_nullspace(sys).dim == 1

    def no_rows():
        raise AssertionError("rows built past the cap")

    monkeypatch.setattr(sys, "iter_row_batches", no_rows)
    monkeypatch.setenv("QNONLOC_CAP", "47")
    with pytest.raises(ResourceLimitError):
        hermitian_nullspace(sys)


def test_dense_amplitudes_held_to_cap(monkeypatch):
    # modified (4,4) has 192 states at D = 64: its row matrix is refused
    # before a single amplitude is built
    states = q.family_states(q.build_modified_family(4, 4))
    count = 192 * 191 * 64 ** 2

    def no_amplitudes(self):
        raise AssertionError("amplitudes built past the cap")

    monkeypatch.setattr(q.PhaseStateSet, "dense_all", no_amplitudes)
    monkeypatch.setenv("QNONLOC_CAP", str(count - 1))
    with pytest.raises(ResourceLimitError, match=f"{count} entries in the row matrix"):
        assemble_constraints(states, 0)


def test_oracle_reports_compare_by_value():
    states = q.family_states(q.build_index_family(3, 3))
    reports = q.oracle_verify(states)
    assert [r.free_class is None for r in reports] == [True, False, True]
    assert reports == q.oracle_verify(states)
    changed = dataclasses.replace(reports[1], free_class=reports[1].free_class.copy())
    changed.free_class[0] += 1
    assert changed != reports[1]
    assert dataclasses.replace(reports[1], free_class=None) != reports[1]
    assert reports[1] != dataclasses.replace(reports[1], free_class=None)

def test_oracle_verify_example(ex1_family):
    states = q.family_states(ex1_family.family)
    reports = q.oracle_verify(states, cuts=[0])
    (rep,) = reports
    assert rep.k == 0 and rep.D == 16
    assert rep.nullspace_dim == 1 and rep.verdict == "trivial"
    assert rep.witness is None
    assert q.oracle_overall(reports) == "trivial"
    # the dense reference finds the same dimension with a clear margin,
    # from N (N - 1) complex rows for the N = 48 states
    dense = hermitian_nullspace(assemble_constraints(states, 0))
    assert dense.dim == 1 and dense.rows_total == 2256
    assert dense.sv_gap > 0.1


def test_bijection_invariance_of_verdict(d3_minimal_family):
    fam = d3_minimal_family.family
    rng = np.random.default_rng(3)
    states = []
    for label in fam.labels:
        sup = fam[label]
        bij = rng.permutation(len(sup))
        states.append(q.PhaseStateSet(sup, label, bijection=bij))
    for k in range(3):
        rep = q.oracle_verify(states, cuts=[k])[0]
        assert (rep.nullspace_dim, rep.verdict, rep.witness) == (1, "trivial", None)


# ---- exact route against the dense reference ------------------------------

def _mixed_radix_family(radix, modulus):
    """Sets of a mixed-radix cube grouped by digit sum mod `modulus`."""
    cube = list(itertools.product(*(range(r) for r in radix)))
    return q.SetFamily(radix, {
        i: q.TupleSet.from_tuples(radix, [t for t in cube if sum(t) % modulus == i])
        for i in range(modulus)})


def _single_state_family():
    return q.SetFamily((2, 2), {0: q.TupleSet.from_tuples((2, 2), [(0, 0)])})


def _product_basis(radix=(2, 2)):
    cube = itertools.product(*(range(r) for r in radix))
    return q.SetFamily(radix, {i: q.TupleSet.from_tuples(radix, [t])
                               for i, t in enumerate(cube)})


def _ablations(d, n):
    fam = q.build_modified_family(d, n).family
    return [(f"modified({d},{n})-{label}", lambda label=label: fam.drop(label))
            for label in fam.labels]


BATTERY = (
    [(f"modified({d},3)", lambda d=d: q.build_modified_family(d, 3).family)
     for d in (2, 3, 4)]
    + [(f"index({d},3)", lambda d=d: q.build_index_family(d, 3)) for d in (2, 3, 4)]
    + [("modified(2,4)", lambda: q.build_modified_family(2, 4).family),
       ("index(2,4)", lambda: q.build_index_family(2, 4))]
    + _ablations(4, 3)
    + [("bell", lambda: q.build_index_family(2, 2)),
       ("product(2,2)", _product_basis),
       ("single-state", _single_state_family),
       ("mixed(2,3,2)%3", lambda: _mixed_radix_family((2, 3, 2), 3)),
       ("mixed(3,2,2)%2", lambda: _mixed_radix_family((3, 2, 2), 2))]
)


def _assert_witness(W, states, k, tol=1e-9):
    """Real symmetric (float64, as the exact route builds it), traceless, unit
    norm, and <a|I_k (x) W|b> = 0 for a != b."""
    D = W.shape[0]
    assert W.shape == (D, D) and W.dtype == np.float64
    assert np.abs(W - W.conj().T).max() <= tol
    assert abs(np.trace(W)) <= tol
    assert abs(np.linalg.norm(W) - 1.0) <= tol
    A = assemble_constraints(states, k).A
    G = np.einsum("agx,xy,bgy->ab", A.conj(), W, A, optimize=True)
    np.fill_diagonal(G, 0.0)
    assert np.abs(G).max(initial=0.0) <= tol


def _assert_exact_matches_dense(states):
    for k in range(len(states[0].radix)):
        exact = q.oracle_verify(states, cuts=[k])[0]
        system = assemble_constraints(states, k)
        dense = hermitian_nullspace(system)
        assert (exact.k, exact.D) == (k, system.D)
        assert exact.nullspace_dim == dense.dim, f"cut {k}"
        assert dense.sv_gap >= 0.1, f"cut {k}"
        assert exact.verdict == ("trivial" if dense.dim == 1 else "nontrivial")
        if exact.nullspace_dim == 1:
            assert exact.witness is None
        else:
            _assert_witness(exact.witness, states, k)


@pytest.mark.parametrize("build", [b for _, b in BATTERY], ids=[n for n, _ in BATTERY])
def test_exact_route_matches_dense(build):
    _assert_exact_matches_dense(q.family_states(build()))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["index", "modified"]), st.randoms(use_true_random=False))
def test_exact_route_random_bijections(kind, rng):
    fam = (q.build_index_family(3, 3) if kind == "index"
           else q.build_modified_family(3, 3).family)
    states = []
    for label in fam.labels:
        perm = list(range(len(fam[label])))
        rng.shuffle(perm)
        states.append(q.PhaseStateSet(fam[label], label, bijection=perm))
    _assert_exact_matches_dense(states)


def test_index_3_3_dims_pinned():
    """Lexicographic phase order breaks the party symmetry of the supports."""
    states = q.family_states(q.build_index_family(3, 3))
    assert [rep.nullspace_dim for rep in q.oracle_verify(states)] == [1, 3, 1]


def test_index_4_5_dims_past_d64():
    """D = 256: the exact route needs only its 4 * 256**2 slots under the cap."""
    states = q.family_states(q.build_index_family(4, 5))
    assert [rep.nullspace_dim for rep in q.oracle_verify(states)] == [1, 4, 16, 64, 1]


def test_exact_route_rejects_non_orthogonal_input():
    ts = q.TupleSet.from_tuples((2, 2), [(0, 0), (0, 1)])
    with pytest.raises(InternalConsistencyError):
        q.oracle_verify([q.PhaseStateSet(ts, 0), q.PhaseStateSet(ts, 1)])
    other = q.TupleSet.from_tuples((2, 2), [(0, 1), (1, 1)])
    with pytest.raises(InternalConsistencyError):
        q.oracle_verify([q.PhaseStateSet(ts, 0), q.PhaseStateSet(other, 1)])


PINNED_REPORTS = Path(__file__).parent / "data" / "oracle_reports.json"


def _report_digests(bases):
    """[nullspace_dim, free-class digest] of each cut, by family and bijection.

    The families are the bases with d**n <= 256 and each of their one-set
    ablations; each runs under the canonical bijection and the reversed one.
    The digest is the first 16 hex digits of the SHA-256 of `free_class` as
    little-endian int64, or None on a trivial cut.
    """
    out = {}
    for name, fam in bases:
        if math.prod(fam.radix) > 256:
            continue
        for tag, var in [("", fam)] + [(f"-{l}", fam.drop(l)) for l in fam.labels]:
            reversed_ = [q.PhaseStateSet(ts, l, bijection=np.arange(len(ts))[::-1])
                         for l, ts in var.items()]
            for order, states in (("canonical", q.family_states(var)), ("reversed", reversed_)):
                out[f"{name}{tag} {order}"] = [
                    [r.nullspace_dim, None if r.free_class is None else
                     hashlib.sha256(r.free_class.astype("<i8").tobytes()).hexdigest()[:16]]
                    for r in q.oracle_verify(states)]
    return out


def test_oracle_reports_pinned(built_bases):
    """Each cut's dimension and free class, and so its witness, as
    tests/data/oracle_reports.json pins them (`_report_digests` of the built
    bases, one family a line)."""
    pinned = json.loads(PINNED_REPORTS.read_text(encoding="utf-8"))
    assert _report_digests(built_bases) == pinned
