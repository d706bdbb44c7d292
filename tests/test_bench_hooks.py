"""The benchmark's tracer still finds every hook it patches in the package.

`bench/tracing.py` wraps the public functions of each layer and the
`ConstraintSystem.iter_row_batches` method of `qnonloc.oracle`, and reads
counts off the results of some of them; removing any of these, or a field it
reads, breaks `bench/run.py --trace 1`, so it must come with a benchmark
change.  The tracer is loaded from its file, as the benchmark scripts do.
"""

import importlib.util
from pathlib import Path

import qnonloc as q
from qnonloc import oracle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_verify_and_oracle_spans():
    originals = (q.verify_strongest_nonlocality, q.oracle_verify, oracle.oracle_verify,
                 oracle.ConstraintSystem.iter_row_batches)
    family = q.build_modified_family(3, 3).family
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert q.oracle_verify is not originals[1]
        states = q.family_states(family)
        assert [r.overall for r in q.verify_strongest_nonlocality(family)] == ["trivial"] * 3
        assert [r.verdict for r in q.oracle_verify(states)] == ["trivial"] * 3
        assert oracle.hermitian_nullspace(oracle.assemble_constraints(states, 0)).dim == 1
    finally:
        tracer.uninstall()

    names = {s["name"] for s in tracer.spans}
    assert {"verifier.verify_strongest_nonlocality", "oracle.oracle_verify",
            "oracle.iter_row_batches"} <= names
    assert (q.verify_strongest_nonlocality, q.oracle_verify, oracle.oracle_verify,
            oracle.ConstraintSystem.iter_row_batches) == originals
    # the counts the tracer reads off the dense reference: D = 9, N = 18
    counts = {s["name"]: s["counts"] for s in tracer.spans}
    assert counts["oracle.assemble_constraints"] == {"params": 81}
    assert counts["oracle.hermitian_nullspace"] == {"rows_total": 18 * 17,
                                                    "rows_kept": 18 * 17}
