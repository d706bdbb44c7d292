"""The package loads its layers on first use, and each command only its own.

`qnonloc` resolves its exported names through a module `__getattr__`, and
the `qnonloc` command imports the layers a subcommand runs inside that
subcommand.  Nothing may import `numpy.ma`, which numpy loads on the first
call of its hash-based `unique`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnonloc as q

ROOT = Path(__file__).resolve().parents[1]
DATA = str(ROOT / "tests" / "data" / "modified_4_3_xi2.json")

# home module -> the names `qnonloc` exports from it
EXPORTS = {
    "errors": {"FamilyFormatError", "InadmissibleXiError", "InternalConsistencyError",
               "QnonlocError", "ResourceLimitError"},
    "lattice": {"EXTRA_LABEL", "ModifiedFamily", "SetFamily", "TupleSet",
                "build_index_family", "build_modified_family", "choose_xi",
                "construction_size", "diagonal_home", "kept_labels"},
    "oracle": {"OracleReport", "oracle_overall", "oracle_verify"},
    "serialize": {"cut_report_to_json", "dumps_canonical", "dumps_family",
                  "family_from_json", "family_to_json", "load_family",
                  "oracle_report_to_json", "save_family", "states_to_json"},
    "states": {"GramReport", "PhaseStateSet", "family_states",
               "genuine_entanglement_check", "gram_check"},
    "tables": {"all_comparison_tables", "comparison_table", "diagonal_table"},
    "verifier": {"Condition", "CutReport", "LabelVerdict", "overall_verdict",
                 "verify_strongest_nonlocality"},
}


# ------------------------------------------------------------ the package

def test_all_lists_the_exported_names():
    names = set().union(*EXPORTS.values())
    assert len(names) == 40
    assert len(q.__all__) == len(set(q.__all__)) and set(q.__all__) == names
    assert q.__version__ == "0.1.0"
    assert names <= set(dir(q))


def test_each_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qnonloc.{module}")
        for name in names:
            assert getattr(q, name) is getattr(home, name), name
    # resolved names are not cached, so a patched home attribute shows through
    assert not set(q.__all__) & set(vars(q))


def test_star_import_binds_every_name():
    ns = {}
    exec("from qnonloc import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(q.__all__)
    assert all(ns[name] is getattr(q, name) for name in ns)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        q.no_such_name
    assert not hasattr(q, "no_such_name")


# ---------------------------------------------------- each command's footprint

# runs the command, then writes the qnonloc and numpy.ma modules it loaded
WRAPPER = """\
import json, sys
from qnonloc.cli import main
out = sys.argv.pop(1)
code = main(sys.argv[1:])
with open(out, "w") as f:
    json.dump([m for m in sys.modules if m.startswith("qnonloc") or m == "numpy.ma"], f)
sys.exit(code)
"""

# the layers a command loads only when it runs them
OPTIONAL = {"oracle", "states", "verifier", "tables"}

# arguments -> the layers among OPTIONAL that the command loads
COMMANDS = [
    (["construct", "--d", "4", "--n", "3"], set()),
    (["construct", "--d", "4", "--n", "3", "--out", "fam.json"], set()),
    (["construct", "--d", "4", "--n", "3", "--out", "fam.json",
      "--states-out", "states.json"], {"states"}),
    (["import", DATA], set()),
    (["export", DATA, "--out", "fam.json"], set()),
    (["verify", "--combinatorial-only", "--format", "json", DATA], {"verifier"}),
    (["verify", "--format", "json", DATA], {"verifier", "states", "oracle"}),
    (["tables", "--format", "json"], {"tables"}),
]


def _loaded(tmp_path, argv):
    """The qnonloc and numpy.ma modules the command loads, run in a fresh
    interpreter from `tmp_path`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    loaded_path = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", WRAPPER, str(loaded_path), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(loaded_path.read_text()))


@pytest.mark.parametrize("argv, layers", COMMANDS,
                         ids=[" ".join(Path(a).name for a in argv) for argv, _ in COMMANDS])
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    loaded = _loaded(tmp_path, argv)
    assert "numpy.ma" not in loaded
    assert {m.removeprefix("qnonloc.") for m in loaded} & OPTIONAL == layers


def test_checking_cuts_on_their_distinct_columns_loads_only_the_verifier(tmp_path):
    # the golden file's cuts share a block; each cut of modified (4, 7) has
    # 16384 entries, so it fills a block of its own
    path = tmp_path / "modified_4_7.json"
    q.save_family(q.build_modified_family(4, 7), path)
    loaded = _loaded(tmp_path, ["verify", "--combinatorial-only", "--format", "json", str(path)])
    assert "numpy.ma" not in loaded
    assert {m.removeprefix("qnonloc.") for m in loaded} & OPTIONAL == {"verifier"}
