"""JSON round-trip for families, states and reports.

Canonical form: label keys ordered integers-then-strings, member tuples in
lexicographic order, two-space indentation.  Equal inputs serialize to
byte-identical text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import FamilyFormatError
from .lattice import Label, ModifiedFamily, SetFamily, TupleSet
from .oracle import OracleReport
from .states import PhaseStateSet
from .verifier import CutReport


def _radix_out(radix: tuple[int, ...]) -> int | list[int]:
    return radix[0] if len(set(radix)) == 1 else list(radix)


def family_to_json(family: SetFamily | ModifiedFamily) -> dict[str, Any]:
    meta: dict[str, Any] = {}
    if isinstance(family, ModifiedFamily):
        meta = {
            "case": family.case,
            "xi_prime": family.xi,
            "removed": [[_label_out(l), list(t)] for l, t in family.removed],
        }
        if family.beyond_guarantee:
            meta["beyond_guarantee"] = True
        family = family.family
    sets = {_label_out(l): [list(t) for t in ts] for l, ts in family.items()}
    return {"d": _radix_out(family.radix), "n": len(family.radix),
            "sets": sets, "meta": meta}


def _label_out(label: Label) -> str:
    return str(label)


def _label_in(key: str) -> Label:
    try:
        return int(key)
    except ValueError:
        return key


def family_from_json(doc: dict[str, Any]) -> SetFamily | ModifiedFamily:
    """Parse and fully validate a family document.

    Digits must lie inside the declared radix, tuples must have arity n, no
    tuple may repeat inside a set or across sets.  Violations raise
    FamilyFormatError naming the offending field.
    """
    if not isinstance(doc, dict):
        raise FamilyFormatError("document must be a JSON object")
    for key in ("d", "n", "sets"):
        if key not in doc:
            raise FamilyFormatError(f"missing required field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FamilyFormatError(f"n: expected a positive integer, got {n!r}")
    d = doc["d"]
    if isinstance(d, int):
        if d < 2:
            raise FamilyFormatError(f"d: expected an integer >= 2, got {d}")
        radix = (d,) * n
    elif isinstance(d, list):
        if len(d) != n:
            raise FamilyFormatError(f"d: list length {len(d)} does not match n={n}")
        if not all(isinstance(x, int) and x >= 2 for x in d):
            raise FamilyFormatError(f"d: every entry must be an integer >= 2, got {d}")
        radix = tuple(d)
    else:
        raise FamilyFormatError(f"d: expected integer or list, got {type(d).__name__}")

    raw_sets = doc["sets"]
    if not isinstance(raw_sets, dict) or not raw_sets:
        raise FamilyFormatError("sets: expected a nonempty object")
    sets: dict[Label, TupleSet] = {}
    seen: dict[tuple[int, ...], str] = {}
    for key, rows in raw_sets.items():
        label = _label_in(key)
        if not isinstance(rows, list) or not rows:
            raise FamilyFormatError(f"sets[{key!r}]: expected a nonempty list of tuples")
        parsed: list[tuple[int, ...]] = []
        local = set()
        for i, row in enumerate(rows):
            where = f"sets[{key!r}][{i}]"
            if not isinstance(row, list) or len(row) != n:
                raise FamilyFormatError(f"{where}: expected a list of {n} digits")
            for p, x in enumerate(row):
                if not isinstance(x, int) or not 0 <= x < radix[p]:
                    raise FamilyFormatError(
                        f"{where}: digit {x!r} out of range at position {p} "
                        f"(radix {radix[p]})")
            t = tuple(row)
            if t in local:
                raise FamilyFormatError(f"{where}: duplicate tuple {list(t)}")
            if t in seen:
                raise FamilyFormatError(
                    f"{where}: tuple {list(t)} already appears in sets[{seen[t]!r}]")
            local.add(t)
            seen[t] = key
            parsed.append(t)
        sets[label] = TupleSet.from_tuples(radix, parsed)

    family = SetFamily(radix, sets, check_disjoint=False)

    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise FamilyFormatError("meta: expected an object")
    if "xi_prime" in meta or "case" in meta:
        for key in ("case", "xi_prime"):
            if key not in meta:
                raise FamilyFormatError(f"meta: modified families need {key!r}")
        if len(set(radix)) != 1:
            raise FamilyFormatError("meta: modified families need a uniform radix")
        removed = [(_label_in(str(l)), tuple(t)) for l, t in meta.get("removed", [])]
        return ModifiedFamily(
            family=family, d=radix[0], n=n, xi=int(meta["xi_prime"]),
            case=str(meta["case"]), removed=removed,
            beyond_guarantee=bool(meta.get("beyond_guarantee", False)))
    return family


def states_to_json(state_sets: list[PhaseStateSet]) -> list[dict[str, Any]]:
    out = []
    for ss in state_sets:
        support = [list(t) for t in ss.support]
        for k in range(ss.s):
            out.append({"label": _label_out(ss.label), "s": ss.s,
                        "support": support, "k": k})
    return out


def cut_report_to_json(report: CutReport) -> dict[str, Any]:
    return {
        "k": report.k,
        "conditions": {_label_out(l): v.condition.value
                       for l, v in report.conditions.items()},
        "pair_covering": report.pair_covering,
        "connectivity": report.connectivity,
        "overall": report.overall,
    }


def _complex_matrix_out(mat: np.ndarray | None) -> list | None:
    if mat is None:
        return None
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def oracle_report_to_json(report: OracleReport) -> dict[str, Any]:
    return {
        "k": report.k,
        "D": report.D,
        "rows": report.rows,
        "nullspace_dim": report.nullspace_dim,
        "verdict": report.verdict,
        "witness": _complex_matrix_out(report.witness),
        "sv_gap": report.sv_gap,
    }


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def save_family(family: SetFamily | ModifiedFamily, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(family_to_json(family)))


def load_family(path: str | Path) -> SetFamily | ModifiedFamily:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FamilyFormatError(f"invalid JSON: {e}") from e
    return family_from_json(doc)
