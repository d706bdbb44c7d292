"""Orthogonal genuinely entangled state families and their nonlocality checks.

The lattice layer builds recursive circulant set families over Z_d**N and the
modified families obtained by rehoming two constant tuples.  The states layer
attaches phase states to each set and decides, from the supports alone,
whether they are mutually orthogonal and genuinely entangled.  Triviality of
orthogonality-preserving measurements on every all-but-one cut is decided
twice: combinatorially (verifier, whose one entry point is
`verify_strongest_nonlocality`) and by an exact oracle (oracle) that counts
the classes of operator entries left free.  Each lays a family out once a
call as one `lattice.member_cube`, reads each cut as a transposed copy of
it (`lattice.cut_table`), and labels components with one union-find.
The oracle module also keeps a dense SVD reference of the same dimension,
which tests import from `qnonloc.oracle`; no other module calls
`numpy.linalg`.  Party and cut indices are 0-based throughout.

Layers load on first use: `import qnonloc` imports none of them, and reading
an exported name imports its home module (PEP 562).  The names are not
cached here, so each read returns the home module's current attribute.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "errors": ("FamilyFormatError", "InadmissibleXiError", "InternalConsistencyError",
               "QnonlocError", "ResourceLimitError"),
    "lattice": ("EXTRA_LABEL", "ModifiedFamily", "SetFamily", "TupleSet",
                "build_index_family", "build_modified_family", "choose_xi",
                "construction_size", "diagonal_home", "kept_labels"),
    "oracle": ("OracleReport", "oracle_overall", "oracle_verify"),
    "serialize": ("cut_report_to_json", "dumps_canonical", "dumps_family",
                  "family_from_json", "family_to_json", "load_family",
                  "oracle_report_to_json", "save_family", "states_to_json"),
    "states": ("GramReport", "PhaseStateSet", "family_states",
               "genuine_entanglement_check", "gram_check"),
    "tables": ("all_comparison_tables", "comparison_table", "diagonal_table"),
    "verifier": ("Condition", "CutReport", "LabelVerdict", "overall_verdict",
                 "verify_strongest_nonlocality"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a loaded layer is read from sys.modules: import_module costs about 2 us
    # a call, paid on every read of an exported name
    home = sys.modules.get(f"{__name__}.{module}") or import_module(f".{module}", __name__)
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
