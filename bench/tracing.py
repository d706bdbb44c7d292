"""Spans around the public calls into qnonloc's layers, and the per-layer
metrics derived from them.

`Tracer.install` swaps every public function of the layer modules, wherever
a qnonloc module holds a reference to it, for a wrapper that records one span
(name, start, end, parent span) per call; `uninstall` puts the originals
back.  Spans stay in memory until `dump`.  Counts ride on the spans that
produced them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("lattice", "states", "verifier", "oracle", "serialize", "cli", "tables")

ROW_BATCH_SPAN = "oracle.iter_row_batches"
PROC_PREFIX = "cli.proc."  # one qnonloc subprocess, timed from the parent


def _family_size(args, out) -> dict:
    return {"tuples": out.total_size()}


# span name -> fn(args, result) -> counts
COUNTERS = {
    "lattice.build_modified_family": _family_size,
    "lattice.build_index_family": _family_size,
    "verifier.verify_strongest_nonlocality": lambda args, out: {
        "cuts": len(out),
        "decided_cuts": sum(r.overall in ("trivial", "nontrivial") for r in out)},
    "oracle.assemble_constraints": lambda args, out: {"params": out.n_params},
    "oracle.hermitian_nullspace": lambda args, out: {"rows_total": out.rows_total,
                                                     "rows_kept": out.rows_kept},
    "serialize.dumps_canonical": lambda args, out: {"bytes": len(out.encode())},
    "serialize.load_family": lambda args, out: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = {"id": len(self.spans), "name": name,
             "parent": self._stack[-1] if self._stack else None,
             "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(s)
        self._stack.append(s["id"])
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count is not None:
                s["counts"].update(count(args, out))
            return out
        return traced

    def _wrap_row_batches(self, method):
        tracer = self

        @functools.wraps(method)
        def traced(system, *args, **kwargs):
            it = method(system, *args, **kwargs)
            while True:
                with tracer.span(ROW_BATCH_SPAN) as s:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                s["counts"]["batches"] = 1
                yield item
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qnonloc.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qnonloc" or name.startswith("qnonloc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        system = importlib.import_module("qnonloc.oracle").ConstraintSystem
        self._patched.append((system, "iter_row_batches", system.iter_row_batches))
        system.iter_row_batches = self._wrap_row_batches(system.iter_row_batches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def graft(self, spans: list[dict], parent: int) -> None:
        """Adopt spans recorded by a child process under one of ours."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + offset)
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


# ---- per-layer metrics -----------------------------------------------------

# metric -> span names; a span nested inside another span of the same metric
# is not counted twice
CALL_METRICS = {
    "lattice.build_s": {"lattice.build_modified_family", "lattice.build_index_family"},
    "states.build_s": {"states.family_states", "states.build_state_set"},
    "states.gram_s": {"states.gram_check"},
    "states.entanglement_s": {"states.genuine_entanglement_check"},
    "verifier.verify_s": {"verifier.verify_strongest_nonlocality"},
    "verifier.symmetry_s": {"lattice.verify_permutation_invariance"},
    "verifier.classify_s": {"verifier.classify_block_triviality"},
    "verifier.pair_covering_s": {"verifier.check_pair_covering"},
    "verifier.connectivity_s": {"verifier.check_connectivity"},
    "oracle.verify_s": {"oracle.oracle_verify"},
    "oracle.assemble_s": {"oracle.assemble_constraints"},
    "oracle.rows_s": {ROW_BATCH_SPAN},
    "oracle.verdict_s": {"oracle.triviality_verdict"},
    "serialize.dump_s": {"serialize.family_to_json", "serialize.dumps_canonical",
                         "serialize.save_family", "serialize.states_to_json",
                         "serialize.cut_report_to_json", "serialize.oracle_report_to_json"},
    "serialize.load_s": {"serialize.load_family", "serialize.family_from_json"},
    "tables.build_s": {"tables.all_comparison_tables", "tables.comparison_table"},
    "cli.construct_s": {PROC_PREFIX + "construct"},
    "cli.import_s": {PROC_PREFIX + "import"},
    "cli.export_s": {PROC_PREFIX + "export"},
    "cli.verify_s": {PROC_PREFIX + "verify"},
    "cli.verify_comb_s": {PROC_PREFIX + "verify_comb"},
    "cli.tables_s": {PROC_PREFIX + "tables"},
}

# metric -> (span names, count key)
COUNT_METRICS = {
    "lattice.tuples": (CALL_METRICS["lattice.build_s"], "tuples"),
    "verifier.cuts": (CALL_METRICS["verifier.verify_s"], "cuts"),
    "verifier.decided_cuts": (CALL_METRICS["verifier.verify_s"], "decided_cuts"),
    "oracle.params": ({"oracle.assemble_constraints"}, "params"),
    "oracle.rows_total": ({"oracle.hermitian_nullspace"}, "rows_total"),
    "oracle.rows_kept": ({"oracle.hermitian_nullspace"}, "rows_kept"),
    "oracle.batches": ({ROW_BATCH_SPAN}, "batches"),
    "serialize.bytes": ({"serialize.dumps_canonical", "serialize.load_family"}, "bytes"),
}

# every other per-layer metric is in seconds
UNITS = {**{name: "count" for name in COUNT_METRICS},
         "serialize.bytes": "bytes", "trace.spans": "count"}

PER_LAYER = (list(CALL_METRICS) + list(COUNT_METRICS)
             + ["oracle.nullspace_s", "cli.startup_s"]
             + [f"{layer}.self_s" for layer in LAYERS]
             + ["trace.overhead_s", "trace.spans"])


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all values summed over the pass).

    Call metrics are inclusive times.  oracle.nullspace_s is the self time of
    hermitian_nullspace (its SVD folding and final SVD), with the row batches
    of oracle.rows_s taken out.  cli.startup_s is the part of each qnonloc
    subprocess spent outside cli.main.  <layer>.self_s is the time in that
    layer's spans not covered by their child spans.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]

    def top_level(names: set[str]):
        for s in spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                yield s

    def self_time(s) -> float:
        return s["end"] - s["start"] - children.get(s["id"], 0.0)

    out: dict[str, float] = {}
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(s["end"] - s["start"] for s in top_level(names))
    for metric, (names, key) in COUNT_METRICS.items():
        out[metric] = sum(s["counts"].get(key, 0) for s in top_level(names))
    out["oracle.nullspace_s"] = sum(self_time(s) for s in spans
                                    if s["name"] == "oracle.hermitian_nullspace")
    out["cli.startup_s"] = sum(self_time(s) for s in spans
                               if s["name"].startswith(PROC_PREFIX))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_time(s) for s in spans
                                     if s["name"].split(".", 1)[0] == layer)
    out["trace.spans"] = len(spans)
    return out
