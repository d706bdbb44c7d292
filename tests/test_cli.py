import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnonloc as q
from qnonloc import caps, oracle
from qnonloc.cli import main


def test_construct_then_verify_combinatorial(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    assert main(["construct", "--d", "4", "--n", "3",
                 "--out", str(fam_path)]) == 0
    out = capsys.readouterr().out
    assert "48 tuples" in out and "xi'=2" in out
    assert main(["verify", str(fam_path), "--combinatorial-only"]) == 0
    out = capsys.readouterr().out
    assert "combinatorial overall: trivial" in out
    assert "oracle" not in out


def test_construct_json_summary(capsys):
    assert main(["construct", "--d", "3", "--n", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 18 and doc["beyond_guarantee"] is True


def test_construct_rejects_inadmissible_xi(capsys):
    assert main(["construct", "--d", "4", "--n", "3", "--xi", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_full_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    main(["construct", "--d", "3", "--n", "3", "--out", str(good)])
    capsys.readouterr()
    assert main(["verify", str(good)]) == 0
    assert "oracle" in capsys.readouterr().out

    # a product basis is orthogonal but not nonlocal: oracle says nontrivial
    radix = (2, 2)
    sets = {i: q.TupleSet.from_tuples(radix, [divmod(i, 2)]) for i in range(4)}
    bad = tmp_path / "prod.json"
    q.save_family(q.SetFamily(radix, sets), bad)
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "nontrivial" in out
    # the checker also says nontrivial here, so no disagreement is reported
    assert "DISAGREEMENT" not in out
    # and the combinatorial-only path still completes with exit 0
    assert main(["verify", str(bad), "--combinatorial-only"]) == 0
    capsys.readouterr()


def test_verify_flags_oracle_trivial_on_combinatorial_nontrivial(
        tmp_path, capsys, monkeypatch):
    # the checker calls every cut of a product basis nontrivial; an oracle
    # that called them trivial must be reported and fail the run
    radix = (2, 2)
    sets = {i: q.TupleSet.from_tuples(radix, [divmod(i, 2)]) for i in range(4)}
    path = tmp_path / "prod.json"
    q.save_family(q.SetFamily(radix, sets), path)

    def all_trivial(state_sets, cuts, **kwargs):
        cuts = range(len(radix)) if cuts is None else cuts
        return [q.OracleReport(k=k, D=2, nullspace_dim=1, verdict="trivial") for k in cuts]

    monkeypatch.setattr("qnonloc.oracle.oracle_verify", all_trivial)
    messages = [f"cut {k}: combinatorial nontrivial but oracle trivial" for k in (0, 1)]
    assert main(["verify", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] == messages
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"DISAGREEMENT: {m}" for m in messages]


def test_verify_single_cut_json(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    main(["construct", "--d", "4", "--n", "3", "--out", str(fam_path)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["verify", str(fam_path), "--cut", "1", "--format", "json",
                 "--out", str(report_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["k"] for c in doc["cuts"]] == [1]
    assert doc["agreement"] == "consistent"
    assert doc["oracle"][0]["nullspace_dim"] == 1
    assert json.loads(report_path.read_text()) == doc


def test_verify_bad_cut(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    main(["construct", "--d", "3", "--n", "3", "--out", str(fam_path)])
    capsys.readouterr()
    assert main(["verify", str(fam_path), "--cut", "7"]) == 2


def test_tables_directory(tmp_path):
    out = tmp_path / "tables"
    assert main(["tables", "--format", "csv", "--out", str(out),
                 "--diagonal", "4"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["comparison_d4.csv", "comparison_d5.csv",
                     "comparison_d6.csv", "comparison_d7.csv",
                     "diagonal_d4.csv"]
    first = (out / "comparison_d4.csv").read_text().splitlines()
    assert first[2] == "This work,48,192,768,3072,12288,49152"
    grid = (out / "diagonal_d4.csv").read_text().splitlines()
    assert grid[3] == "2,0,2,0,2"


TABLES_TEXT = (
    "      d=4  N=3  N=4  N=5   N=6    N=7    N=8\n"
    "     Ref.   38  176  782  3368  14198  58976\n"
    "This work   48  192  768  3072  12288  49152\n"
    "\n"
    "      d=5  N=3  N=4   N=5    N=6    N=7     N=8\n"
    "     Ref.   62  370  2102  11530  61742  325090\n"
    "This work   75  375  1875   9375  46875  234375\n"
    "\n"
    "      d=6  N=3  N=4   N=5    N=6     N=7      N=8\n"
    "     Ref.   92  672  4652  31032  201812  1288992\n"
    "This work  108  648  3888  23328  139968   839808\n"
    "\n"
    "      d=7  N=3   N=4   N=5    N=6     N=7      N=8\n"
    "     Ref.  128  1106  9032  70994  543608  4085186\n"
    "This work  147  1029  7203  50421  352947  2470629\n"
    "\n"
)

TABLES_CSV_DIAGONAL_4 = (
    "d=4,N=3,N=4,N=5,N=6,N=7,N=8\n"
    "Ref.,38,176,782,3368,14198,58976\n"
    "This work,48,192,768,3072,12288,49152\n"
    "\n"
    "d=5,N=3,N=4,N=5,N=6,N=7,N=8\n"
    "Ref.,62,370,2102,11530,61742,325090\n"
    "This work,75,375,1875,9375,46875,234375\n"
    "\n"
    "d=6,N=3,N=4,N=5,N=6,N=7,N=8\n"
    "Ref.,92,672,4652,31032,201812,1288992\n"
    "This work,108,648,3888,23328,139968,839808\n"
    "\n"
    "d=7,N=3,N=4,N=5,N=6,N=7,N=8\n"
    "Ref.,128,1106,9032,70994,543608,4085186\n"
    "This work,147,1029,7203,50421,352947,2470629\n"
    "\n"
    "n mod d,xi=0,xi=1,xi=2,xi=3\n"
    "0,0,0,0,0\n"
    "1,0,1,2,3\n"
    "2,0,2,0,2\n"
    "3,0,3,2,1\n"
    "\n"
)


@pytest.mark.parametrize("argv, expected", [
    (["tables"], TABLES_TEXT),
    (["tables", "--format", "csv", "--diagonal", "4"], TABLES_CSV_DIAGONAL_4),
], ids=["text", "csv-diagonal"])
def test_tables_stdout_golden(capsys, argv, expected):
    # each table is followed by one blank line
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_tables_refused_diagonal_writes_nothing(tmp_path, capsys, fmt):
    # every table is rendered before any is printed or written
    assert main(["tables", "--format", fmt, "--diagonal", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: d must be >= 2\n"
    out = tmp_path / "tables"
    assert main(["tables", "--format", fmt, "--out", str(out), "--diagonal", "1"]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_env_cap_bounds_diagonal_grid(tmp_path, monkeypatch, capsys):
    # the grid has d**2 cells, held to the cap before any table is printed
    monkeypatch.setenv(caps.ENV_VAR, "10")
    assert main(["tables", "--format", "csv", "--diagonal", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "1000000 cells in the diagonal grid" in captured.err
    out = tmp_path / "tables"
    assert main(["tables", "--format", "json", "--out", str(out), "--diagonal", "4"]) == 2
    assert not out.exists()


def test_tables_json(capsys):
    assert main(["tables", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [t["d"] for t in doc["comparison"]] == [4, 5, 6, 7]
    keys = ["d", "n", "reference", "this_work", "lower_bound", "enumerated"]
    assert all(list(t) == keys for t in doc["comparison"])


def test_export_idempotent(tmp_path, capsys):
    src = tmp_path / "src.json"
    main(["construct", "--d", "4", "--n", "3", "--out", str(src)])
    capsys.readouterr()
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert main(["export", str(src), "--out", str(once)]) == 0
    assert main(["export", str(once), "--out", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()


# canonical text of modified (4,3) with xi' = 2, as written before the family
# writer built it from the digit matrices; later writers must keep its bytes
GOLDEN = Path(__file__).parent / "data" / "modified_4_3_xi2.json"


def test_family_files_match_golden_bytes(tmp_path, capsys):
    golden = GOLDEN.read_bytes()
    built = tmp_path / "built.json"
    assert main(["construct", "--d", "4", "--n", "3", "--xi", "2", "--out", str(built)]) == 0
    assert built.read_bytes() == golden
    exported = tmp_path / "exported.json"
    assert main(["export", str(GOLDEN), "--out", str(exported)]) == 0
    assert exported.read_bytes() == golden
    capsys.readouterr()
    assert main(["export", str(GOLDEN)]) == 0
    assert capsys.readouterr().out.encode() == golden
    assert main(["construct", "--d", "4", "--n", "3", "--xi", "2"]) == 0
    assert capsys.readouterr().out.encode().endswith(b"xi'=2\n" + golden)


def test_export_normalizes_layout(tmp_path, capsys):
    messy = tmp_path / "messy.json"
    messy.write_text('{"n": 2, "sets": {"1": [[1, 0]], "0": [[0, 0]]}, "d": 2}')
    assert main(["export", str(messy)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["d", "n", "sets", "meta"]
    assert list(doc["sets"]) == ["0", "1"]


def test_import_valid_and_invalid(tmp_path, capsys):
    good = tmp_path / "good.json"
    main(["construct", "--d", "4", "--n", "3", "--out", str(good)])
    capsys.readouterr()
    assert main(["import", str(good)]) == 0
    assert "valid modified family" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 3, "n": 2, "sets": {"0": [[0, 5]]}}')
    assert main(["import", str(bad)]) == 1
    assert "out of range" in capsys.readouterr().err

    doc = json.loads(good.read_text())
    doc["meta"]["case"] = [1]
    bad.write_text(json.dumps(doc))
    assert main(["import", str(bad)]) == 1
    assert main(["verify", "--combinatorial-only", str(bad)]) == 2
    assert capsys.readouterr().err.count("error: meta.case:") == 2


def test_meta_is_derived_from_d_n_xi(tmp_path, capsys):
    # meta that contradicts d, n and xi' is refused by every reader
    doc = json.loads(GOLDEN.read_text())
    doc["meta"].update(case="III", removed=[["extra", [1, 1, 1]]], beyond_guarantee=True)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["import", str(bad)]) == 1
    assert main(["verify", str(bad)]) == 2
    assert main(["export", str(bad)]) == 2
    assert capsys.readouterr().err.count('error: meta.case: expected "II"') == 3
    # so is an inadmissible xi', and meta without `removed` exports the derived list
    doc = json.loads(GOLDEN.read_text())
    doc["meta"]["xi_prime"] = 1
    bad.write_text(json.dumps(doc))
    assert main(["import", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: meta.xi_prime: xi=1 maps to label 3")
    doc["meta"]["xi_prime"] = 2
    del doc["meta"]["removed"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    assert main(["export", str(bare)]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()


def test_import_keeps_set_keys_apart_and_refuses_non_utf8(tmp_path, capsys):
    path = tmp_path / "keys.json"
    path.write_text('{"d": 2, "n": 2, "sets": {"1": [[0, 0]], "01": [[1, 1]], " 2": [[0, 1]]}}')
    assert main(["import", str(path)]) == 0
    assert capsys.readouterr().out == (
        "valid plain family: radix=(2, 2) labels=['1', ' 2', '01'] size=3\n")
    assert main(["export", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)["sets"]) == ["1", " 2", "01"]
    path.write_bytes(b'{"d": 2, "n": 1, "sets": {"\xe9": [[0]]}}')
    assert main(["import", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_missing_file_is_an_error(capsys):
    assert main(["verify", "/nonexistent/family.json"]) == 2
    capsys.readouterr()


def test_env_cap_respected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(caps.ENV_VAR, "10")
    # 4^3 = 64 tuples > 10: enumeration must refuse
    assert main(["construct", "--d", "4", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err

    fam_path = tmp_path / "fam.json"
    monkeypatch.delenv(caps.ENV_VAR)
    main(["construct", "--d", "4", "--n", "3", "--out", str(fam_path)])
    capsys.readouterr()
    monkeypatch.setenv(caps.ENV_VAR, "240")
    # the oracle's d_k * D**2 = 4 * 16**2 = 1024 > 240: it must refuse
    assert main(["verify", str(fam_path)]) == 2
    assert "cap" in capsys.readouterr().err
    # the checker's cube of 64 tuples and its 4**2 * 3 * 5 = 240
    # co-occurrence counts fit
    assert main(["verify", str(fam_path), "--combinatorial-only"]) == 0
    capsys.readouterr()


def test_import_over_the_cap_exits_2(monkeypatch, capsys):
    # a family too large for the cap is no invalid family: import exits 2,
    # as export and verify do, and only a FamilyFormatError exits 1
    monkeypatch.setenv(caps.ENV_VAR, "10")
    for command in ("import", "export", "verify"):
        assert main([command, str(GOLDEN)]) == 2
    assert capsys.readouterr().err == 3 * (
        "error: 64 tuples in the cube exceed enumeration cap 10 (set QNONLOC_CAP to raise it)\n")


def test_env_cap_bounds_state_export(tmp_path, monkeypatch, capsys):
    # modified (4,3) exports sum(s * (n + 1)) = 48 * 4 = 192 numbers, each
    # set's support and bijection once; a refused export writes neither file
    fam_path, states_path = tmp_path / "fam.json", tmp_path / "states.json"
    argv = ["construct", "--d", "4", "--n", "3", "--out", str(fam_path),
            "--states-out", str(states_path)]
    monkeypatch.setenv(caps.ENV_VAR, "191")
    assert main(argv) == 2
    assert "cap" in capsys.readouterr().err
    assert not fam_path.exists() and not states_path.exists()
    monkeypatch.setenv(caps.ENV_VAR, "192")
    assert main(argv) == 0
    entries = json.loads(states_path.read_text())
    assert [(e["label"], e["s"]) for e in entries] == [("0", 15), ("1", 16), ("2", 15),
                                                       ("extra", 2)]
    assert all(sorted(e["bijection"]) == list(range(e["s"])) for e in entries)
    assert entries[3]["support"] == [[0, 0, 0], [2, 2, 2]]


def test_env_cap_bounds_written_witnesses(tmp_path, monkeypatch, capsys):
    # a product basis has a 2 x 2 witness on each of its two cuts: 16 numbers,
    # which bound only a report that is written
    radix = (2, 2)
    sets = {i: q.TupleSet.from_tuples(radix, [divmod(i, 2)]) for i in range(4)}
    path = tmp_path / "prod.json"
    q.save_family(q.SetFamily(radix, sets), path)
    monkeypatch.setenv(caps.ENV_VAR, "15")
    assert main(["verify", str(path)]) == 1
    assert "oracle D=2 dim=2 -> nontrivial" in capsys.readouterr().out
    for argv in (["--format", "json"], ["--out", str(tmp_path / "report.json")]):
        assert main(["verify", str(path), *argv]) == 2
        assert "cap" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    monkeypatch.setenv(caps.ENV_VAR, "16")
    assert main(["verify", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [len(r["witness"]) for r in doc["oracle"]] == [2, 2]


def test_written_report_over_the_witness_cap_builds_no_witness(tmp_path, monkeypatch, capsys):
    # index (2,4) is nontrivial at cuts 1 and 2, each with an 8 x 8 witness of
    # 128 numbers.  One oracle call decides each cut once; under a cap of 200
    # a written report is then refused before any witness is built, and text
    # output builds none at all
    path = tmp_path / "idx.json"
    q.save_family(q.build_index_family(2, 4), path)
    decided, built = [], []
    decide_cut = oracle._decide_cut
    witness = oracle.OracleReport.witness

    def counted(k, *layout):
        decided.append(k)
        return decide_cut(k, *layout)

    def counted_witness(report):
        built.append(report.k)
        return witness.fget(report)

    monkeypatch.setattr(oracle, "_decide_cut", counted)
    monkeypatch.setattr(oracle.OracleReport, "witness", property(counted_witness))
    monkeypatch.setenv(caps.ENV_VAR, "200")
    for argv in (["--format", "json"], ["--out", str(tmp_path / "report.json")]):
        decided.clear()
        assert main(["verify", str(path), *argv]) == 2
        assert "256 numbers in the witnesses" in capsys.readouterr().err
        assert decided == [0, 1, 2, 3] and built == []
    assert not (tmp_path / "report.json").exists()
    decided.clear()
    assert main(["verify", str(path)]) == 1
    assert decided == [0, 1, 2, 3] and built == []
    capsys.readouterr()
    # at the cap the report is written, and each cut's witness is read once
    monkeypatch.setenv(caps.ENV_VAR, "256")
    decided.clear()
    assert main(["verify", str(path), "--format", "json"]) == 1
    assert decided == [0, 1, 2, 3] and built == [0, 1, 2, 3]
    doc = json.loads(capsys.readouterr().out)
    assert [r["witness"] is not None for r in doc["oracle"]] == [False, True, True, False]


def test_env_cap_bounds_cover_counts(tmp_path, monkeypatch, capsys):
    # index (3,3) has a cube of 27 tuples, but no singleton class in any of
    # its 3 sets: its cover search counts 3**2 * 3 * 4 = 108 co-occurrences
    path = tmp_path / "idx.json"
    q.save_family(q.build_index_family(3, 3), path)
    monkeypatch.setenv(caps.ENV_VAR, "100")
    assert main(["verify", str(path), "--combinatorial-only"]) == 2
    assert "co-occurrence counts" in capsys.readouterr().err
    monkeypatch.setenv(caps.ENV_VAR, "108")
    assert main(["verify", str(path), "--combinatorial-only"]) == 0
    capsys.readouterr()
    # modified (4,3) counts 4**2 * 3 * 5 = 240: its singleton "extra" set
    # is left out of the count's targets
    q.save_family(q.build_modified_family(4, 3), path)
    monkeypatch.setenv(caps.ENV_VAR, "239")
    assert main(["verify", str(path), "--combinatorial-only"]) == 2
    assert "240 co-occurrence counts" in capsys.readouterr().err


def test_env_cap_bounds_pair_covering_rows(tmp_path, monkeypatch, capsys):
    # on the (4, 16) cube, column r holds a singleton set at each digit g
    # where bit g of r is set: 32 sets, no cover search, and at cut 0 all
    # 16 columns differ, so pair covering multiplies 16**2 = 256 row pairs
    # (cut 1 has 4 distinct rows), above the cube's 64 tuples
    radix = (4, 16)
    tuples = [(g, r) for r in range(16) for g in range(4) if r >> g & 1]
    fam = q.SetFamily(radix, {i: q.TupleSet.from_tuples(radix, [t])
                              for i, t in enumerate(tuples)})
    path = tmp_path / "bits.json"
    q.save_family(fam, path)
    monkeypatch.setenv(caps.ENV_VAR, "255")
    assert main(["verify", str(path), "--combinatorial-only"]) == 2
    assert "256 residual row pairs" in capsys.readouterr().err
    monkeypatch.setenv(caps.ENV_VAR, "256")
    assert main(["verify", str(path), "--combinatorial-only"]) == 0
    assert "pair_covering=False" in capsys.readouterr().out


def test_env_cap_bounds_tables_enumeration(monkeypatch, capsys):
    # the tables cross-check enumerates nothing the cap forbids `construct`
    monkeypatch.setenv(caps.ENV_VAR, "10")
    assert main(["tables", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    flags = [flag for table in doc["comparison"] for flag in table["enumerated"]]
    assert flags and not any(flags)


@pytest.mark.parametrize("raw", ["abc", "5,6,7", "100000,16"])
def test_malformed_env_cap_is_an_error(tmp_path, monkeypatch, capsys, raw):
    fam_path = tmp_path / "fam.json"
    main(["construct", "--d", "3", "--n", "3", "--out", str(fam_path)])
    capsys.readouterr()
    monkeypatch.setenv(caps.ENV_VAR, raw)
    for argv in (["verify", str(fam_path)], ["tables"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and caps.ENV_VAR in captured.err
        assert captured.out == ""


def test_parser_rejects_bad_xi():
    with pytest.raises(SystemExit):
        main(["construct", "--d", "4", "--n", "3", "--xi", "weird"])


def test_parser_rejects_bad_cut(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", str(GOLDEN), "--cut", "x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cut: --cut must be a cut index 0..n-1 or \"all\", got 'x'" in err


def test_import_refuses_modified_sets_that_differ(tmp_path, capsys):
    # without its "extra" set the golden file holds 46 tuples and no constant one
    doc = json.loads(GOLDEN.read_text())
    del doc["sets"]["extra"]
    path = tmp_path / "no_extra.json"
    path.write_text(json.dumps(doc))
    assert main(["import", str(path)]) == 1
    assert "sets['extra']: missing for d=4, n=3, xi_prime=2" in capsys.readouterr().err


def test_verify_json_key_sets(capsys):
    assert main(["verify", "--format", "json", str(GOLDEN)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"family", "cuts", "combinatorial_overall", "oracle", "agreement"}
    assert [set(r) for r in doc["oracle"]] == [
        {"k", "D", "nullspace_dim", "verdict", "witness"}] * 3
    assert main(["verify", "--combinatorial-only", "--format", "json", str(GOLDEN)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"family", "cuts", "combinatorial_overall"}


def test_verify_text_output(capsys):
    assert main(["verify", str(GOLDEN)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "combinatorial overall: trivial"
    assert lines[4:] == [f"cut {k}: oracle D=16 dim=1 -> trivial" for k in range(3)]


@pytest.mark.parametrize("d, n", [(4, 5), (8, 4)])
def test_verify_decides_past_d64(tmp_path, capsys, d, n):
    # D = 256 and 512: the exact route needs only d_k * D**2 under the cap
    fam_path = tmp_path / "fam.json"
    assert main(["construct", "--d", str(d), "--n", str(n), "--out", str(fam_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--format", "json", str(fam_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["D"] for r in doc["oracle"]] == [d ** (n - 1)] * n
    assert [r["nullspace_dim"] for r in doc["oracle"]] == [1] * n
    assert doc["agreement"] == "consistent"


@pytest.mark.parametrize("name", ["index_3_3", "product_2_2"])
def test_verify_json_bytes_of_nontrivial_families(tmp_path, monkeypatch, capsys,
                                                  product_family, name):
    family = {"index_3_3": q.build_index_family(3, 3), "product_2_2": product_family}[name]
    # run from tmp_path, so the report names the family "fam.json"
    q.save_family(family, tmp_path / "fam.json")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "fam.json", "--format", "json"]) == 1
    golden = Path(__file__).parent / "data" / f"verify_{name}.json"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


# an ASCII locale without Python's UTF-8 mode or locale coercion
_ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _accented_family(tmp_path) -> str:
    """Write in.json, a family whose one set key is not ASCII, and return its text."""
    text = q.dumps_family(q.SetFamily((2, 2), {"é": q.TupleSet.from_tuples((2, 2), [(0, 1)])}))
    (tmp_path / "in.json").write_bytes(text.encode("utf-8"))
    return text


def _run_cli(tmp_path, argv, env):
    """`python -m qnonloc.cli argv` in tmp_path, with env over the environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qnonloc.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    text = _accented_family(tmp_path)
    proc = _run_cli(tmp_path, ["export", "in.json", "--out", "out.json"], _ASCII_LOCALE)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.json").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("argv", [["import", "in.json"], ["verify", "in.json"],
                                  ["verify", "in.json", "--format", "json"],
                                  ["export", "in.json"]], ids=" ".join)
def test_stdout_is_utf8_whatever_the_locale(tmp_path, argv):
    _accented_family(tmp_path)
    utf8 = _run_cli(tmp_path, argv, {"PYTHONUTF8": "1"})
    assert utf8.returncode in (0, 1), utf8.stderr
    assert "é".encode("utf-8") in utf8.stdout
    ascii_ = _run_cli(tmp_path, argv, _ASCII_LOCALE)
    assert (ascii_.returncode, ascii_.stdout) == (utf8.returncode, utf8.stdout), ascii_.stderr
