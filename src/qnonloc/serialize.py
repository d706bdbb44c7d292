"""JSON round-trip for families, states and reports.

Canonical form: label keys ordered integers-then-strings, member tuples in
lexicographic order, two-space indentation.  Equal inputs serialize to
byte-identical text.

A family's canonical text is `dumps_canonical(family_to_json(family))`, and
`dumps_family` writes exactly those bytes without the pure-Python indented
encoder: each set's digit rows go through the compact C encoder and are
expanded to the two-space layout by string replacement, which is exact
because the rows hold only integers; `d`, `n` and `meta` go through
`json.dumps(..., indent=2)` and are re-indented by their depth.

A set key names an integer label when it is that integer's own text ("3",
"-1"); any other key, "01" or " 2" say, is a text label, so no two keys
name one set.  Files are read and written as UTF-8 whatever the locale,
and a file that is not UTF-8 is refused like malformed JSON.  A `meta`
that is present must be an object.

Reading refuses a cube of more than 2**62 tuples before any row, then
validates each set's rows as one integer array (shape, digit range against
the radix, duplicates within a set) and the sets as one SetFamily,
which refuses a tuple in two sets; only a document that fails is scanned
row by row, to name the first offending field in document order.  A
modified family's `meta` is derived from d, n and `xi_prime`, whose radix
must be uniform and whose digit must lie in 1..d-1 and be admissible; a
`case`, `removed` or `beyond_guarantee` that is present and differs from
the derived value is refused, and one that is absent is derived.  The
writer and the reader share that derivation, which builds no digit rows.
Then, with n >= 3, each set must be the one `ModifiedFamily(d, n,
xi_prime)` builds, and reading returns that built family.  The writer
only formats: `TupleSet` and `SetFamily` refuse each radix and set the
reader refuses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

from . import caps
from .errors import FamilyFormatError, InadmissibleXiError, InternalConsistencyError
from .lattice import (_RANK_LIMIT, Label, ModifiedFamily, SetFamily, TupleSet, _derived_meta,
                      _label_in, build_modified_family, choose_xi)

if TYPE_CHECKING:  # annotations only: reading and writing families loads none of these
    from .oracle import OracleReport
    from .states import PhaseStateSet
    from .verifier import CutReport


def _radix_out(radix: tuple[int, ...]) -> int | list[int]:
    return radix[0] if len(set(radix)) == 1 else list(radix)


def _meta(d: int, n: int, xi: int) -> dict[str, Any]:
    """A modified family's meta, all derived from d, n and xi'; the guarantee
    flag is written only when set."""
    case, removed, beyond_guarantee = _derived_meta(d, n, xi)
    meta: dict[str, Any] = {
        "case": case,
        "xi_prime": xi,
        "removed": [[_label_out(l), list(t)] for l, t in removed],
    }
    if beyond_guarantee:
        meta["beyond_guarantee"] = True
    return meta


def family_to_json(family: SetFamily) -> dict[str, Any]:
    """The family's document, formatted only: `TupleSet` and `SetFamily`
    refuse each radix and set the reader refuses."""
    n = len(family.radix)
    meta = _meta(family.radix[0], n, family.xi) if isinstance(family, ModifiedFamily) else {}
    sets = {_label_out(l): ts.members().tolist() for l, ts in family.items()}
    return {"d": _radix_out(family.radix), "n": n, "sets": sets, "meta": meta}


def _label_out(label: Label) -> str:
    return str(label)


def family_from_json(doc: dict[str, Any]) -> SetFamily:
    """Parse and fully validate a family document: the plain SetFamily it
    holds, or the ModifiedFamily its d, n and xi' build.

    Digits must lie inside the declared radix, tuples must have arity n, no
    tuple may repeat inside a set or across sets.  Violations raise
    FamilyFormatError naming the offending field.  JSON booleans count as
    the digits 0 and 1, as Python's `isinstance(True, int)` has it, but not
    as n or xi'.
    """
    if not isinstance(doc, dict):
        raise FamilyFormatError("document must be a JSON object")
    for key in ("d", "n", "sets"):
        if key not in doc:
            raise FamilyFormatError(f"missing required field {key!r}")
    radix = _radix_in(doc["d"], doc["n"])
    n = len(radix)

    raw_sets = doc["sets"]
    if not isinstance(raw_sets, dict) or not raw_sets:
        raise FamilyFormatError("sets: expected a nonempty object")
    sets = {_label_in(key): _rows_to_set(rows, radix) for key, rows in raw_sets.items()}
    if any(ts is None for ts in sets.values()):  # a set the array checks refused
        _raise_first_fault(raw_sets, radix)
    try:
        family = SetFamily(radix, sets)
    except ValueError:  # a tuple in two sets
        _raise_first_fault(raw_sets, radix)

    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FamilyFormatError("meta: expected an object")
    if "xi_prime" in meta or "case" in meta:
        for key in ("case", "xi_prime"):
            if key not in meta:
                raise FamilyFormatError(f"meta: modified families need {key!r}")
        if len(set(radix)) != 1:
            raise FamilyFormatError("meta: modified families need a uniform radix")
        d = radix[0]
        xi = meta["xi_prime"]
        if not isinstance(xi, int) or isinstance(xi, bool) or not 1 <= xi < d:
            raise FamilyFormatError(f"meta.xi_prime: expected an integer in 1..{d - 1}, "
                                    f"got {xi!r}")
        try:
            xi = choose_xi(d, n, int(xi))
        except InadmissibleXiError as e:
            raise FamilyFormatError(f"meta.xi_prime: {e}") from e
        # compared as JSON text, so 1 is not true and "0" is not 0
        derived = _meta(d, n, xi)
        for key in ("case", "removed", "beyond_guarantee"):
            if key in meta:
                want = json.dumps(derived.get(key, False))
                got = json.dumps(meta[key])
                if got != want:
                    raise FamilyFormatError(f"meta.{key}: expected {want} for d={d}, n={n}, "
                                            f"xi_prime={xi}, got {got}")
        if n < 3:
            raise FamilyFormatError(f"meta: modified families need n >= 3, got n={n}")
        built = build_modified_family(d, n, xi)
        for label in [*built.labels, *(l for l in family.labels if l not in built)]:
            if label not in family:
                fault = "missing"
            elif label not in built:
                fault = "not a set of the construction"
            elif family[label] != built[label]:
                fault = "differs from the construction's set"
            else:
                continue
            raise FamilyFormatError(f"sets[{_label_out(label)!r}]: {fault} for d={d}, n={n}, "
                                    f"xi_prime={xi}")
        return built
    return family


def _radix_in(d: Any, n: Any) -> tuple[int, ...]:
    """The radix a document's d and n declare: n > 0 parties, each with at
    least 2 digits, and a cube that int64 ranks can index."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FamilyFormatError(f"n: expected a positive integer, got {n!r}")
    if isinstance(d, int):
        if d < 2:
            raise FamilyFormatError(f"d: expected an integer >= 2, got {d}")
    elif isinstance(d, list):
        if len(d) != n:
            raise FamilyFormatError(f"d: list length {len(d)} does not match n={n}")
        if not all(isinstance(x, int) and x >= 2 for x in d):
            raise FamilyFormatError(f"d: every entry must be an integer >= 2, got {d}")
    else:
        raise FamilyFormatError(f"d: expected integer or list, got {type(d).__name__}")
    # every entry is at least 2, so any 63 of them pass _RANK_LIMIT = 2**62:
    # no more are multiplied, or built from an integer d
    radix = tuple(d) if isinstance(d, list) else (d,) * min(n, 63)
    if math.prod(radix[:63]) > _RANK_LIMIT:
        raise FamilyFormatError(f"d: {n} parties of these digits give more than 2**62 "
                                "tuples, too many to index")
    return radix


def _rows_to_set(rows: Any, radix: tuple[int, ...]) -> TupleSet | None:
    """One set's rows as a TupleSet, or None unless they are a nonempty list
    of distinct lists of len(radix) integers inside the radix.

    The rows are read as one array of numpy's inferred dtype, so no digit's
    type is scanned in Python: a float, string, null or integer past int64
    gives a dtype that `TupleSet.from_digits` refuses, a nested or missing
    digit makes the rows ragged, and JSON booleans stay the digits 0 and 1.
    """
    if not isinstance(rows, list) or not rows or not all(
            issubclass(t, list) for t in set(map(type, rows))):
        return None
    try:
        ts = TupleSet.from_digits(radix, np.array(rows))
    except (ValueError, OverflowError):  # ragged rows, a digit not an integer or outside the radix
        return None
    return ts if len(ts) == len(rows) else None


def _raise_first_fault(raw_sets: dict[str, Any], radix: tuple[int, ...]) -> NoReturn:
    """Raise FamilyFormatError at the first field, in document order, that
    breaks the format; run only on sets the array checks refused."""
    n = len(radix)
    seen: dict[tuple, str] = {}
    for key, rows in raw_sets.items():
        if not isinstance(rows, list) or not rows:
            raise FamilyFormatError(f"sets[{key!r}]: expected a nonempty list of tuples")
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
            owner = seen.get(t)
            if owner == key:
                raise FamilyFormatError(f"{where}: duplicate tuple {list(t)}")
            if owner is not None:
                raise FamilyFormatError(
                    f"{where}: tuple {list(t)} already appears in sets[{owner!r}]")
            seen[t] = key
    raise InternalConsistencyError("array checks refused a family document the row scan accepts")


def states_to_json(state_sets: list[PhaseStateSet]) -> list[dict[str, Any]]:
    """One entry per set: its label, size s, support and bijection, which
    give its states k = 0..s-1.  The export holds sum(s * (n + 1)) numbers,
    which are held to the cap."""
    caps.check(sum(ss.s * (len(ss.radix) + 1) for ss in state_sets),
               "numbers in the state export")
    return [{"label": _label_out(ss.label), "s": ss.s,
             "support": ss.support.members().tolist(), "bijection": ss.bijection.tolist()}
            for ss in state_sets]


def cut_report_to_json(report: CutReport) -> dict[str, Any]:
    return {
        "k": report.k,
        "conditions": {_label_out(l): v.condition.value
                       for l, v in report.conditions.items()},
        "pair_covering": report.pair_covering,
        "connectivity": report.connectivity,
        "overall": report.overall,
    }


def oracle_report_to_json(report: OracleReport) -> dict[str, Any]:
    W = report.witness  # real, written as [re, im] pairs
    return {
        "k": report.k,
        "D": report.D,
        "nullspace_dim": report.nullspace_dim,
        "verdict": report.verdict,
        "witness": None if W is None else np.stack((W, np.zeros_like(W)), axis=-1).tolist(),
    }


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# A set's rows sit at depth 2 of a family document: each row opens and
# closes at depth 3 and holds its digits at depth 4.
_ROW = "\n" + " " * 6
_DIGIT = "\n" + " " * 8


def _rows_text(rows: list[list[int]]) -> str:
    """`json.dumps(rows, indent=2)` at depth 2, from the compact encoding.

    Exact for nonempty rows of integers, as every set's are, where the
    compact text has a comma only between two digits or two rows.
    """
    body = (json.dumps(rows, separators=(",", ":"))[2:-2]
            .replace(",", "," + _DIGIT)
            .replace("]," + _DIGIT + "[", _ROW + "]," + _ROW + "[" + _DIGIT))
    return "[" + _ROW + "[" + _DIGIT + body + _ROW + "]\n    ]"


def dumps_family(family: SetFamily) -> str:
    """Canonical text of a family: the bytes of
    `dumps_canonical(family_to_json(family))`."""
    doc = family_to_json(family)
    fields = []
    for key, value in doc.items():
        if key == "sets":
            text = "{\n" + ",\n".join(
                f"    {json.dumps(label, ensure_ascii=False)}: {_rows_text(rows)}"
                for label, rows in value.items()) + "\n  }"
        else:
            text = json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def save_family(family: SetFamily, path: str | Path) -> None:
    Path(path).write_text(dumps_family(family), encoding="utf-8")


def load_family(path: str | Path) -> SetFamily:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FamilyFormatError(f"invalid JSON: {e}") from e
    return family_from_json(doc)
