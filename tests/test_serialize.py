import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnonloc as q
from qnonloc.errors import FamilyFormatError
from qnonloc.verifier import Condition


def test_plain_family_round_trip(tmp_path):
    fam = q.build_index_family(3, 2)
    doc = q.family_to_json(fam)
    assert doc["d"] == 3 and doc["n"] == 2
    assert doc["meta"] == {}
    back = q.family_from_json(doc)
    assert isinstance(back, q.SetFamily)
    assert back == fam
    path = tmp_path / "fam.json"
    q.save_family(fam, path)
    assert q.load_family(path) == fam


def test_modified_family_round_trip(ex1_family, tmp_path):
    doc = q.family_to_json(ex1_family)
    assert doc["meta"]["xi_prime"] == 2
    assert doc["meta"]["case"] == "II"
    assert "beyond_guarantee" not in doc["meta"]
    removed = {tuple(t) for _, t in doc["meta"]["removed"]}
    assert removed == {(0, 0, 0), (2, 2, 2)}
    back = q.family_from_json(doc)
    assert isinstance(back, q.ModifiedFamily)
    assert back.xi == 2 and back.case == "II"
    assert back.family == ex1_family.family
    path = tmp_path / "mod.json"
    q.save_family(ex1_family, path)
    loaded = q.load_family(path)
    assert loaded.family == ex1_family.family
    assert loaded.removed == ex1_family.removed


def test_small_d_flag_round_trips():
    fam = q.build_modified_family(3, 3)
    doc = q.family_to_json(fam)
    assert doc["meta"]["beyond_guarantee"] is True
    back = q.family_from_json(doc)
    assert back.beyond_guarantee is True


def test_canonical_bytes_stable(ex1_family):
    a = q.dumps_canonical(q.family_to_json(ex1_family))
    b = q.dumps_canonical(q.family_to_json(ex1_family))
    assert a == b
    assert a.endswith("\n")
    # reparse and re-emit: still byte identical
    again = q.dumps_canonical(q.family_to_json(q.family_from_json(json.loads(a))))
    assert again == a


def test_label_order_numeric_before_string(ex1_family):
    doc = q.family_to_json(ex1_family)
    assert list(doc["sets"]) == ["0", "1", "2", "extra"]
    back = q.family_from_json(doc)
    assert back.family.labels == [0, 1, 2, "extra"]


def test_set_keys_naming_one_integer_stay_apart():
    # "01" is not the text of the integer 1, so it names a set of its own
    fam = q.family_from_json({"d": 2, "n": 2, "sets": {"1": [[0, 0]], "01": [[1, 1]]}})
    assert fam.labels == [1, "01"]
    assert fam[1].tuples() == [(0, 0)] and fam["01"].tuples() == [(1, 1)]
    # keys int() parses but does not print back stay text, and are written back as read
    for key in ("1_0", " 2", "+3", "-0"):
        fam = q.family_from_json({"d": 2, "n": 2, "sets": {key: [[0, 1]]}})
        assert fam.labels == [key] and list(q.family_to_json(fam)["sets"]) == [key]
    assert q.family_from_json({"d": 2, "n": 2, "sets": {"-3": [[0, 1]]}}).labels == [-3]


def test_text_label_naming_an_integer_is_refused():
    # a file reads "3" as the label 3, so a text label "3" would come back as
    # an int, and beside the label 3 would be written over by it
    a, b = q.TupleSet((2, 2), [0]), q.TupleSet((2, 2), [1])
    for key in ("3", "-1", "0"):
        with pytest.raises(ValueError, match=f"set label '{key}' is an int's text"):
            q.SetFamily((2, 2), {int(key): a, key: b})
    fam = q.SetFamily((2, 2), {3: a, "03": b})
    assert q.family_from_json(q.family_to_json(fam)) == fam


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"d": 2, "n": 1, "sets": {"\xe9": [[0]]}}')
    with pytest.raises(FamilyFormatError, match="invalid JSON"):
        q.load_family(path)


def test_mixed_radix_document():
    doc = {"d": [2, 3], "n": 2,
           "sets": {"a": [[0, 0], [1, 2]], "b": [[0, 1]]}, "meta": {}}
    fam = q.family_from_json(doc)
    assert fam.radix == (2, 3)
    assert fam["a"].tuples() == [(0, 0), (1, 2)]
    out = q.family_to_json(fam)
    assert out["d"] == [2, 3]


# a modified (4,4) document whose xi' = 1 is admissible
_MODIFIED_4_4 = q.family_to_json(q.build_modified_family(4, 4, xi=1))


@pytest.mark.parametrize("doc,fragment", [
    ([1, 2], "JSON object"),
    ({"d": 3, "sets": {}}, "missing required field 'n'"),
    ({"d": 3, "n": 0, "sets": {"0": [[0]]}}, "positive integer"),
    ({"d": 1, "n": 2, "sets": {"0": [[0, 0]]}}, ">= 2"),
    ({"d": [3, 3, 3], "n": 2, "sets": {"0": [[0, 0]]}}, "does not match n=2"),
    ({"d": "3", "n": 2, "sets": {"0": [[0, 0]]}}, "integer or list"),
    ({"d": 3, "n": 2, "sets": {}}, "nonempty object"),
    ({"d": 3, "n": 2, "sets": {"0": []}}, "nonempty list"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0, 0]]}}, "list of 2 digits"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 3]]}},
     "digit 3 out of range at position 1"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0], [0, 0]]}}, "duplicate tuple"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]], "1": [[0, 0]]}},
     "already appears in sets['0']"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]]}, "meta": {"xi_prime": 1}},
     "modified families need 'case'"),
    ({"d": [2, 3], "n": 2, "sets": {"0": [[0, 0]]},
      "meta": {"xi_prime": 1, "case": "I"}}, "uniform radix"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]]},
      "meta": {"xi_prime": None, "case": "I"}}, "meta.xi_prime"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]]},
      "meta": {"xi_prime": "abc", "case": "I"}}, "meta.xi_prime"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]]},
      "meta": {"xi_prime": 2, "case": "II", "removed": 5}}, "meta.removed"),
    ({"d": 3, "n": 2, "sets": {"0": [[0, 0]]},
      "meta": {"xi_prime": 2, "case": "II", "removed": [[1]]}}, "meta.removed"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]}, "meta": {"xi_prime": 2, "case": [1]}},
     "meta.case"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]},
      "meta": {"xi_prime": 2, "case": "II", "beyond_guarantee": "no"}},
     "meta.beyond_guarantee"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]},
      "meta": {"xi_prime": 2, "case": "II", "removed": [[0, [9, 9, 9, 9, 9]]]}},
     "meta.removed"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]},
      "meta": {"xi_prime": 2, "case": "II", "removed": [[0, [0, 0, 0]], [1, [2, 2, 4]]]}},
     "meta.removed"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]}, "meta": {"xi_prime": 0, "case": "I"}},
     "meta.xi_prime"),
    ({"d": 4, "n": 3, "sets": {"0": [[0, 0, 1]]}, "meta": {"xi_prime": 4, "case": "I"}},
     "meta.xi_prime"),
    # cubes past 2**62 tuples, which int64 ranks cannot index
    ({"d": 2, "n": 70, "sets": {"0": [[0] * 70]}},
     "d: 70 parties of these digits give more than 2**62 tuples"),
    ({"d": [2] * 63, "n": 63, "sets": {"0": [[0] * 63]}}, "d: 63 parties of these digits"),
    ({"d": 3, "n": 40, "sets": {"0": [[0] * 40]}}, "d: 40 parties of these digits"),
    ({"d": [2] * 61 + [3], "n": 62, "sets": {"0": [[0] * 62]}}, "more than 2**62 tuples"),
    # a boolean is a digit in a row, but not a count
    ({"d": 2, "n": True, "sets": {"0": [[0]]}}, "n: expected a positive integer, got True"),
    ({**_MODIFIED_4_4, "meta": {**_MODIFIED_4_4["meta"], "xi_prime": True}},
     "meta.xi_prime: expected an integer in 1..3, got True"),
    # a meta that is present and falsy is refused like any other non-object
    *[({"d": 2, "n": 1, "sets": {"0": [[0]]}, "meta": meta}, "meta: expected an object")
      for meta in ([], 0, False, "", None)],
])
def test_validation_errors(doc, fragment):
    with pytest.raises(FamilyFormatError) as exc:
        q.family_from_json(doc)
    assert fragment in str(exc.value)


def test_largest_indexable_cube_reads():
    fam = q.family_from_json({"d": 2, "n": 62, "sets": {"0": [[1] * 62]}})
    assert fam.radix == (2,) * 62 and fam.total_size() == 1


def test_constructors_refuse_what_the_reader_refuses():
    # a radix-1 party, an empty set and a digit or radix entry that is not
    # an integer are refused where a family is built, so the writer has
    # nothing left to refuse; the reader keeps its words
    with pytest.raises(ValueError, match=r"radix entries must be >= 2, got \(1, 2\)"):
        q.SetFamily((1, 2), {0: q.TupleSet.from_tuples((1, 2), [(0, 1)])})
    with pytest.raises(ValueError, match="nonempty"):
        q.SetFamily((2, 2), {0: q.TupleSet.from_tuples((2, 2), [(0, 1)]),
                             "x": q.TupleSet((2, 2), [])})
    # a digit or radix entry that is not an integer is refused, not truncated
    for build, message in [
        (lambda: q.TupleSet.from_tuples((2, 2), [(0.7, 1.9)]), "dtype float64"),
        (lambda: q.TupleSet.from_tuples((3, 3), [("1", "2")]), "dtype <U1"),
        (lambda: q.TupleSet((2.9, "3"), [0]), "radix entry 2.9 is not an integer"),
        (lambda: q.TupleSet.from_digits((3, 3), np.array([[0.5, 1.7]])), "dtype float64"),
        # and so is a rank that is not an integer
        (lambda: q.TupleSet((2, 2), [1.9]), "dtype float64"),
        (lambda: q.TupleSet((2, 2), ["3"]), "dtype <U1"),
        (lambda: q.TupleSet((2, 2), [True]), "dtype bool"),
        (lambda: q.TupleSet((2, 2), np.array([2.5])), "dtype float64"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    for doc, message in [
        ({"d": [1, 2], "n": 2, "sets": {"0": [[0, 1]]}},
         "d: every entry must be an integer >= 2, got [1, 2]"),
        ({"d": 2, "n": 2, "sets": {"0": [[0, 1]], "x": []}},
         "sets['x']: expected a nonempty list of tuples"),
        ({"d": 2, "n": 2, "sets": {"0": [[0.7, 1.9]]}},
         "sets['0'][0]: digit 0.7 out of range at position 0 (radix 2)"),
        ({"d": 3, "n": 2, "sets": {"0": [["1", "2"]]}},
         "sets['0'][0]: digit '1' out of range at position 0 (radix 3)"),
        ({"d": [2.9, "3"], "n": 2, "sets": {"0": [[0, 1]]}},
         "d: every entry must be an integer >= 2, got [2.9, '3']"),
    ]:
        with pytest.raises(FamilyFormatError) as read:
            q.family_from_json(doc)
        assert str(read.value) == message


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FamilyFormatError):
        q.load_family(path)


@pytest.mark.parametrize("key,value,want", [
    ("case", "III", '"II"'),
    ("removed", [["extra", [1, 1, 1]]], '[["0", [0, 0, 0]], ["2", [2, 2, 2]]]'),
    ("removed", [[0, [0, 0, 0]], [2, [2, 2, 2]]], '[["0", [0, 0, 0]], ["2", [2, 2, 2]]]'),
    ("beyond_guarantee", True, "false"),
    ("beyond_guarantee", 0, "false"),
], ids=["case", "removed-label", "removed-integer-labels", "flag-true", "flag-integer"])
def test_meta_that_disagrees_with_d_n_xi_is_refused(ex1_family, key, value, want):
    doc = q.family_to_json(ex1_family)
    doc["meta"][key] = value
    with pytest.raises(FamilyFormatError) as exc:
        q.family_from_json(doc)
    assert str(exc.value).startswith(f"meta.{key}: expected {want} for d=4, n=3, xi_prime=2")
    # a present value that agrees is accepted
    doc["meta"][key] = json.loads(want)
    assert q.family_from_json(doc).removed == ex1_family.removed


@pytest.mark.parametrize("edit, message", [
    ("drop-extra", "sets['extra']: missing"),
    ("move", "sets['0']: differs from the construction's set"),
    ("add", "sets['3']: not a set of the construction"),
])
def test_modified_sets_must_be_the_construction(ex1_family, edit, message):
    doc = q.family_to_json(ex1_family)
    if edit == "drop-extra":
        del doc["sets"]["extra"]
    elif edit == "move":
        doc["sets"]["1"].append(doc["sets"]["0"].pop())
    else:
        doc["sets"]["3"] = [[0, 0, 3]]  # digit sum 3: label 3 is not kept at d=4
    with pytest.raises(FamilyFormatError) as exc:
        q.family_from_json(doc)
    assert str(exc.value) == f"{message} for d=4, n=3, xi_prime=2"


def test_modified_meta_needs_three_parties():
    # at d=3, n=2 digit 2 is admissible (home 1), but there is no construction
    doc = {"d": 3, "n": 2, "sets": {"0": [[0, 0]]}, "meta": {"xi_prime": 2, "case": "II"}}
    with pytest.raises(FamilyFormatError, match="need n >= 3, got n=2"):
        q.family_from_json(doc)


def test_inadmissible_xi_is_refused(ex1_family):
    # at d=4, n=3 digit 1 homes to label 3, which is not kept
    doc = q.family_to_json(ex1_family)
    doc["meta"]["xi_prime"] = 1
    with pytest.raises(FamilyFormatError, match=r"meta\.xi_prime: xi=1 maps to label 3"):
        q.family_from_json(doc)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("n", range(3, 6))
def test_modified_meta_round_trips_from_d_n_xi(d, n):
    admissible = _admissible(d, n)
    assert admissible
    for xi in admissible:
        fam = q.build_modified_family(d, n, xi=xi)
        text = q.dumps_family(fam)
        back = q.family_from_json(json.loads(text))
        assert isinstance(back, q.ModifiedFamily) and back == fam
        assert (back.xi, back.case, back.removed, back.beyond_guarantee) == (
            fam.xi, fam.case, fam.removed, fam.beyond_guarantee)
        assert q.dumps_family(back) == text
        # meta without `removed` or the flag reads back with the derived values
        doc = json.loads(text)
        del doc["meta"]["removed"]
        doc["meta"].pop("beyond_guarantee", None)
        bare = q.family_from_json(doc)
        assert bare.removed == fam.removed and q.dumps_family(bare) == text
    doc = json.loads(text)
    for xi in sorted(set(range(1, d)) - set(admissible)):
        doc["meta"]["xi_prime"] = xi
        with pytest.raises(FamilyFormatError, match=r"^meta\.xi_prime: .* not kept"):
            q.family_from_json(doc)


def test_states_to_json(bell_family):
    states = q.family_states(bell_family)
    docs = q.states_to_json(states)
    assert len(docs) == len(states) == 2
    assert docs[0] == {"label": "0", "s": 2,
                       "support": [[0, 0], [1, 1]], "bijection": [0, 1]}
    assert docs[1]["label"] == "1" and docs[1]["support"] == [[0, 1], [1, 0]]
    swapped = q.PhaseStateSet(bell_family[1], label="b", bijection=[1, 0])
    assert q.states_to_json([swapped]) == [
        {"label": "b", "s": 2, "support": [[0, 1], [1, 0]], "bijection": [1, 0]}]


def test_cut_report_json_shape(ex1_family):
    (rep,) = q.verify_strongest_nonlocality(ex1_family, cuts=[0])
    doc = q.cut_report_to_json(rep)
    assert set(doc) == {"k", "conditions", "pair_covering",
                        "connectivity", "overall"}
    assert doc["k"] == 0 and doc["overall"] == "trivial"
    assert doc["conditions"]["extra"] == Condition.SINGLETON.value
    json.dumps(doc)  # must be directly serializable


def test_oracle_report_json_shape(product_family):
    states = q.family_states(product_family)
    (rep,) = q.oracle_verify(states, cuts=[0])
    doc = q.oracle_report_to_json(rep)
    assert set(doc) == {"k", "D", "nullspace_dim", "verdict", "witness"}
    assert doc["verdict"] == "nontrivial"
    w = doc["witness"]
    assert len(w) == 2 and len(w[0]) == 2 and len(w[0][0]) == 2
    json.dumps(doc)


def test_oracle_report_witness_written_as_re_im_pairs():
    # a hand-made free class {(0, 0), (0, 1)} at D = 2: X + X^T = [[2, 1], [1, 0]],
    # whose traceless part [[1, 1], [1, -1]] has norm 2; every number is a float
    rep = q.OracleReport(k=1, D=2, nullspace_dim=2, verdict="nontrivial",
                         free_class=np.array([0, 1]))
    doc = q.oracle_report_to_json(rep)
    assert json.dumps(doc["witness"]) == (
        "[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]]]")
    assert all(type(x) is float for row in doc["witness"] for z in row for x in z)
    assert rep.witness.tolist() == [[0.5, 0.5], [0.5, -0.5]]


def test_oracle_report_trivial_witness_null(bell_family):
    states = q.family_states(bell_family)
    (rep,) = q.oracle_verify(states, cuts=[0])
    doc = q.oracle_report_to_json(rep)
    assert doc["verdict"] == "trivial" and doc["witness"] is None


# ---- family files: writer and reader against their per-digit references ----

LABEL_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\u00e9\u03be\u2028\U0001d4b3 '),
                     max_size=5)


@st.composite
def families(draw):
    """Plain families over mixed radices with digits up to 13, under integer
    labels and string labels with quotes, backslashes and non-ASCII
    characters, each set holding at least one tuple; or modified ones, built
    from d in 2..14, n in 3..4 with d**n <= 3000 and any admissible xi."""
    if draw(st.booleans()):
        d, n = draw(st.sampled_from(MODIFIED_DN))
        return q.ModifiedFamily(d, n, draw(st.sampled_from(_admissible(d, n))))
    radix = tuple(draw(st.lists(st.integers(2, 14), min_size=1, max_size=4)))
    total = math.prod(radix)
    labels = draw(st.lists(st.one_of(st.integers(-3, 30), LABEL_TEXT),
                           min_size=1, max_size=min(4, total), unique=True))
    ranks = draw(st.lists(st.integers(0, total - 1), unique=True, min_size=len(labels),
                          max_size=40))
    # the first rank of each label makes its set nonempty
    owner = list(range(len(labels))) + draw(st.lists(st.integers(0, len(labels) - 1),
                                                     min_size=len(ranks) - len(labels),
                                                     max_size=len(ranks) - len(labels)))
    return q.SetFamily(radix, {l: q.TupleSet(radix, [r for r, o in zip(ranks, owner) if o == i])
                               for i, l in enumerate(labels)})


MODIFIED_DN = [(d, n) for d in range(2, 15) for n in (3, 4) if d**n <= 3000]


def _admissible(d, n):
    return [x for x in range(1, d) if q.diagonal_home(x, n, d) in q.kept_labels(d)]


@settings(max_examples=400, deadline=None)
@given(families())
def test_dumps_family_matches_indented_json(fam):
    text = q.dumps_family(fam)
    assert text == json.dumps(q.family_to_json(fam), indent=2, ensure_ascii=False) + "\n"
    # each family reads back as itself, of its own type and bytes
    back = q.family_from_json(json.loads(text))
    assert back == fam and type(back) is type(fam)
    assert q.dumps_family(back) == text


def _reference_family_from_json(doc):
    """The per-digit validation loop that family_from_json replaced."""
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
    sets = {}
    seen = {}
    for key, rows in raw_sets.items():
        try:
            label = int(key)
        except ValueError:
            label = key
        if not isinstance(rows, list) or not rows:
            raise FamilyFormatError(f"sets[{key!r}]: expected a nonempty list of tuples")
        parsed = []
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
        sets[label] = q.TupleSet.from_tuples(radix, parsed)
    return q.SetFamily(radix, sets)


FAULTS = ("none", "ragged", "nested", "not_a_row", "float", "string", "null", "bool",
          "negative", "out_of_range", "duplicate_within", "duplicate_across", "empty_set")


@st.composite
def faulty_documents(draw, fault):
    """A valid plain family document with one fault of the given kind at a
    random set, row and position."""
    radix = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    total = math.prod(radix)
    n_sets = draw(st.integers(1, min(3, total)))
    ranks = draw(st.lists(st.integers(0, total - 1), unique=True,
                          min_size=n_sets, max_size=min(total, 24)))
    cuts = sorted(draw(st.lists(st.integers(1, len(ranks) - 1), unique=True,
                                min_size=n_sets - 1, max_size=n_sets - 1))) if n_sets > 1 else []
    chunks = [ranks[a:b] for a, b in zip([0] + cuts, cuts + [len(ranks)])]

    def digits(r):
        out = []
        for d in reversed(radix):
            r, x = divmod(r, d)
            out.append(x)
        return out[::-1]

    keys = draw(st.lists(st.sampled_from(["0", "1", "2", "7", "a", "extra"]),
                         min_size=n_sets, max_size=n_sets, unique=True))
    sets = {key: [digits(r) for r in chunk] for key, chunk in zip(keys, chunks)}
    uniform = len(set(radix)) == 1 and draw(st.booleans())
    doc = {"d": radix[0] if uniform else radix, "n": len(radix), "sets": sets, "meta": {}}

    key = draw(st.sampled_from(keys))
    rows = sets[key]
    i = draw(st.integers(0, len(rows) - 1))
    p = draw(st.integers(0, len(radix) - 1))
    x = rows[i][p]
    if fault == "ragged":
        rows[i] = rows[i] + [0] if draw(st.booleans()) else rows[i][:-1]
    elif fault == "nested":
        rows[i][p] = [x]
    elif fault == "not_a_row":
        rows[i] = draw(st.sampled_from([x, None, "row", {"0": x}]))
    elif fault == "float":
        rows[i][p] = draw(st.sampled_from([float(x), x + 0.5]))
    elif fault == "string":
        rows[i][p] = str(x)
    elif fault == "null":
        rows[i][p] = None
    elif fault == "bool":
        rows[i][p] = x == 1 if x in (0, 1) else x
    elif fault == "negative":
        rows[i][p] = -1 - draw(st.integers(0, 3))
    elif fault == "out_of_range":
        rows[i][p] = radix[p] + draw(st.sampled_from([0, 1, 2**40, 2**70]))
    elif fault == "duplicate_within":
        rows.insert(i, list(rows[draw(st.integers(0, len(rows) - 1))]))
    elif fault == "duplicate_across" and len(sets) == 1:
        sets["copy"] = [list(rows[i])]
    elif fault == "duplicate_across":
        other = sets[draw(st.sampled_from([k for k in keys if k != key]))]
        rows.insert(i, list(other[draw(st.integers(0, len(other) - 1))]))
    elif fault == "empty_set":
        sets[key] = []
    return doc


def _outcome(parse, doc):
    try:
        return parse(copy.deepcopy(doc))
    except FamilyFormatError as e:
        return f"FamilyFormatError: {e}"


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_from_json_matches_per_digit_reference(fault, data):
    doc = data.draw(faulty_documents(fault))
    assert _outcome(q.family_from_json, doc) == _outcome(_reference_family_from_json, doc)


def test_json_booleans_are_digits():
    doc = {"d": 2, "n": 2, "sets": {"0": [[True, False]], "1": [[0, 1], [1, True]]}}
    fam = q.family_from_json(doc)
    assert fam == _reference_family_from_json(doc)
    assert fam[0].tuples() == [(1, 0)] and fam[1].tuples() == [(0, 1), (1, 1)]
    doc["sets"]["1"].append([1, 0])
    with pytest.raises(FamilyFormatError, match=r"sets\['1'\]\[2\]: tuple \[1, 0\] "
                                                r"already appears in sets\['0'\]"):
        q.family_from_json(doc)
