import copy
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import prolong.scenario as scenario_mod
from prolong.cli import run
from prolong.errors import ScenarioError, ShapeError
from prolong.extensions import make_extension, validate_prolongation
from prolong.fixtures import builtin, group_to_json
from prolong.groups import FiniteGroup
from prolong.obstruction import validate_pre, verify_covering
from prolong.scenario import load_scenario, prolongation_to_scenario

from oracles import SCENARIOS

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def invoke_json(*argv):
    code, text = invoke("--format", "json", *argv)
    return code, json.loads(text)


# --- one-field mutations of the shipped scenarios ---------------------------------

SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
COMMANDS = ("validate", "cohomology", "obstruction", "build", "classify",
            "equiv", "oracle", "pullback")
POOL = (None, True, False, -1, 0, 1, 10 ** 30, 2.5, "", "x", "Z2", "alpha",
        [], [0], [[0, None]], {}, {"j": "j0"}, {"table": [[0]]})


def _paths(value, path=()):
    """Every JSON path inside value, as a tuple of keys and indices."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _dotted(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


MUTATIONS = [(name, path) for name, doc in SHIPPED.items() for path in _paths(doc)]


# --- scenario parsing ------------------------------------------------------------

def test_load_pre_scenario():
    scn = load_scenario(SCENARIOS / "canonical_order4.json")
    pre = scn.pre_prolongation()
    assert validate_pre(pre).ok


def test_load_full_ladder():
    scn = load_scenario(SCENARIOS / "klein_ladder.json")
    ladder = scn.ladder()
    assert validate_prolongation(ladder).ok
    assert verify_covering(ladder, scn.pre_prolongation())


def test_scenario_errors():
    with pytest.raises(ScenarioError):
        load_scenario({"mode": "nonsense"})
    with pytest.raises(ScenarioError):
        load_scenario({"mode": "pre-prolongation"})
    with pytest.raises(ScenarioError):
        load_scenario({
            "mode": "cohomology-only",
            "groups": {"Pi": "Z2", "A": "S3"},
            "cohomology": {"pi": "Pi", "a": "A"},
        })


def test_bad_homomorphism_is_scenario_error():
    doc = json.loads((SCENARIOS / "canonical_order4.json").read_text())
    doc["homs"]["alpha"]["map"] = [1, 0]  # does not fix the identity
    with pytest.raises(ScenarioError):
        load_scenario(doc)
    doc["homs"]["alpha"]["map"] = [0]  # wrong length
    with pytest.raises(ScenarioError):
        load_scenario(doc)


# --- CLI subcommands ----------------------------------------------------------------

def test_validate_pre_scenario():
    code, payload = invoke_json("validate", str(SCENARIOS / "canonical_order4.json"))
    assert code == 0
    assert payload["report"]["ok"] is True


def test_validate_full_ladder():
    code, payload = invoke_json("validate", str(SCENARIOS / "klein_ladder.json"))
    assert code == 0
    assert payload["ladders"][0]["report"]["ok"] is True
    assert payload["ladders"][0]["covering"] is True


def test_validate_invalid_scenario_exit_2():
    doc = json.loads((SCENARIOS / "canonical_order4.json").read_text())
    doc["theta"] = [[0, 1], [1, 0]]  # not an option: theta[1] must fix 0
    path = "/tmp/bad_scenario.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, payload = invoke_json("validate", path)
    assert code == 2


@pytest.mark.parametrize("command",
                         ["validate", "obstruction", "build", "classify", "cohomology"])
def test_theta_entry_outside_e0_exit_2(tmp_path, command):
    doc = json.loads((SCENARIOS / "inversion_action.json").read_text())
    doc["theta"][1][4] = 99  # |E0| = 6
    path = tmp_path / "bad_theta.json"
    path.write_text(json.dumps(doc))
    code, text = invoke("--format", "json", command, str(path))
    assert code == 2
    assert "theta[1] is not a permutation" in text


@pytest.mark.parametrize("command", ["obstruction", "build", "classify", "cohomology"])
def test_alpha_not_onto_exit_2(tmp_path, command):
    doc = json.loads((SCENARIOS / "canonical_order4.json").read_text())
    doc["homs"]["alpha"]["map"] = [0, 0]
    path = tmp_path / "bad_alpha.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json(command, str(path))
    assert code == 2
    assert payload["kind"] == "NotSurjective"


# A3 = {0, 3, 4} is normal in S3 but not central: e0 is not a central row
NON_CENTRAL = {
    "mode": "pre-prolongation",
    "groups": {"A0": "Z3", "B0": "S3", "G0": "Z2", "A": "Z1", "G": "Z2"},
    "homs": {
        "j0": {"source": "A0", "target": "B0", "map": [0, 3, 4]},
        "p0": {"source": "B0", "target": "G0", "map": [0, 1, 1, 0, 0, 1]},
        "alpha": {"source": "A0", "target": "A", "map": [0, 0, 0]},
        "gamma": {"source": "G0", "target": "G", "map": [0, 1]},
    },
    "e0": {"j": "j0", "p": "p0"},
    "alpha": "alpha",
    "gamma": "gamma",
    "theta": [[0, 1], [0, 1]],
}


@pytest.mark.parametrize("command", ["validate", "cohomology", "obstruction",
                                     "build", "classify", "oracle"])
def test_non_central_base_row_exit_2(command):
    """Every command refuses the frame validate rejects, with a typed error."""
    code, payload = invoke_json(command, json.dumps(NON_CENTRAL))
    assert code == 2
    if command == "validate":
        checks = payload["report"]["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == ["e0_central"]
        assert checks[-1]["name"] == "gamma_image_normal"
    else:
        assert payload["kind"] == "NotCentral"


@pytest.mark.parametrize("path, value, item, kind", [
    (("homs", "alpha", "map"), [0, 0, 0], "alpha_epi", "NotSurjective"),
    (("homs", "gamma", "map"), [0, 0], "gamma_mono", "NotInjective"),
    (("groups", "G"), "S3", "gamma_image_normal", "ImageNotNormal"),
])
def test_derive_refuses_each_failing_frame_item(path, value, item, kind):
    """A frame item that fails in validate's report is the error derive
    raises, and the report stops after the frame's items."""
    doc = _replaced(SHIPPED["inversion_action.json"], path, value)
    if path == ("groups", "G"):
        doc["homs"]["gamma"]["map"] = [0, 1]  # onto a transposition of S3
    code, payload = invoke_json("validate", json.dumps(doc))
    checks = payload["report"]["checks"]
    assert code == 2
    assert next(c["name"] for c in checks if not c["ok"]) == item
    assert checks[-1]["name"] == "gamma_image_normal"
    for command in ("cohomology", "obstruction"):
        code, payload = invoke_json(command, json.dumps(doc))
        assert (code, payload["kind"]) == (2, kind)


@pytest.mark.parametrize("command",
                         ["obstruction", "build", "classify", "cohomology"])
def test_alpha_off_the_base_row_exit_2(tmp_path, command):
    doc = json.loads((SCENARIOS / "inversion_action.json").read_text())
    doc["homs"]["alpha"]["source"] = "B0"
    doc["homs"]["alpha"]["map"] = [0, 1, 2, 0, 1, 2]
    path = tmp_path / "alpha_from_b0.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json(command, str(path))
    assert code == 2
    assert payload["kind"] == "MismatchedBase"


@pytest.mark.parametrize("entry", [5.0, True, "5"])
@pytest.mark.parametrize("command", ["validate", "obstruction"])
def test_theta_entry_not_an_int_exit_2(tmp_path, command, entry):
    doc = json.loads((SCENARIOS / "inversion_action.json").read_text())
    doc["theta"][1][1] = entry
    path = tmp_path / "theta_entry.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json(command, str(path))
    assert code == 2
    assert payload["kind"] == "scenario"
    assert "theta[1][1]" in payload["error"]


@pytest.mark.parametrize("table", [[[0, 1], [1, 5]], [[0, True], [True, 0]]])
def test_malformed_inline_table_exit_2(tmp_path, table):
    doc = json.loads((SCENARIOS / "canonical_order4.json").read_text())
    doc["groups"]["A"] = {"table": table}
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json("validate", str(path))
    assert code == 2
    assert payload["kind"] == "MalformedTable"


def test_labels_not_a_list_exit_2(tmp_path):
    doc = json.loads((SCENARIOS / "klein_quotient.json").read_text())
    doc["groups"]["B0"] = {"table": [[0, 1], [1, 0]], "labels": 5}
    path = tmp_path / "bad_labels.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json("obstruction", str(path))
    assert code == 2
    assert payload["kind"] == "scenario"
    assert "'B0'" in payload["error"]


def test_unknown_fixture_names_its_path():
    doc = _replaced(SHIPPED["klein_quotient.json"], ("groups", "B0"), "Z99")
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    assert str(info.value) == "groups.B0 names unknown fixture group 'Z99'"


def test_group_table_not_a_list_names_its_path(tmp_path):
    doc = json.loads((SCENARIOS / "klein_quotient.json").read_text())
    doc["groups"]["B0"] = {"table": 5, "order": 2}
    path = tmp_path / "table_not_a_list.json"
    path.write_text(json.dumps(doc))
    code, payload = invoke_json("obstruction", str(path))
    assert code == 2
    assert payload["kind"] == "scenario"
    assert "groups.B0.table" in payload["error"]


@pytest.mark.parametrize("path, value, where", [
    (("homs", "alpha", "map", 1), True, "homs.alpha.map[1]"),
    (("homs", "alpha", "source"), 3, "homs.alpha.source"),
    (("e0",), {"j": "j0"}, "e0.p"),
    (("ladders", 0, "beta"), None, "ladders[0].beta"),
    (("mode",), "nonsense", "mode"),
])
def test_shape_errors_name_their_path(path, value, where):
    doc = _replaced(SHIPPED["klein_ladder.json"], path, value)
    with pytest.raises(ShapeError) as info:
        load_scenario(doc)
    assert str(info.value).startswith(f"{where} ")


def test_full_ladder_needs_its_frame_on_load():
    doc = copy.deepcopy(SHIPPED["klein_ladder.json"])
    del doc["gamma"]
    with pytest.raises(ScenarioError, match="full-ladder scenarios need"):
        load_scenario(doc)


def test_load_builds_each_group_and_ladder_once(monkeypatch):
    doc = _replaced(SHIPPED["ladder_pair.json"], ("groups", "B"),
                    group_to_json(builtin("V4")))
    for entry in doc["groups"].values():
        if isinstance(entry, str):
            builtin(entry)  # fixtures are cached: built before the count
    built = {"groups": 0, "rows": 0}
    post_init = FiniteGroup.__post_init__

    def count_group(g):
        built["groups"] += 1
        post_init(g)

    def count_row(j, p):
        built["rows"] += 1
        return make_extension(j, p)

    monkeypatch.setattr(FiniteGroup, "__post_init__", count_group)
    monkeypatch.setattr(scenario_mod, "make_extension", count_row)
    scn = load_scenario(doc)
    ladders = [scn.ladder(0), scn.ladder(1)]
    assert built == {"groups": len(doc["groups"]), "rows": 3}  # e0 and two ladders
    assert ladders[1] is scn.ladders[1] and ladders[1].e0 is scn.e0
    assert scn.groups["A"].name == "A" and scn.groups["B"].name == "B"


def test_build_out_unwritable_is_usage_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "built.json"
    code, text = invoke("build", str(SCENARIOS / "inversion_action.json"),
                        "--out", str(missing))
    assert code == 1
    assert text.startswith("usage error: cannot write") and text.count("\n") == 1


def test_load_scenario_from_long_json_text():
    """JSON text longer than a file name may be is parsed, not looked up."""
    text = (SCENARIOS / "klein_quotient.json").read_text()
    assert len(text.encode()) > 255
    from_text = load_scenario(text).pre_prolongation()
    assert from_text == load_scenario(SCENARIOS / "klein_quotient.json").pre_prolongation()
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("{" + "x" * 300)


def test_cohomology_subcommand():
    code, payload = invoke_json("cohomology", str(SCENARIOS / "cohomology_z2.json"))
    assert code == 0
    assert payload["degree"] == 3
    assert payload["invariant_factors"] == [2]


def test_cohomology_of_pre_scenario_with_degree_flag():
    code, payload = invoke_json(
        "cohomology", str(SCENARIOS / "canonical_order4.json"), "--degree", "2")
    assert code == 0
    assert payload["invariant_factors"] == [2]


def test_cohomology_basis_flag():
    code, payload = invoke_json(
        "cohomology", str(SCENARIOS / "cohomology_z2.json"), "--basis")
    assert code == 0
    assert payload["basis"][0]["values"][-1] == 1


def test_obstruction_vanishing_and_roundtrip():
    code, payload = invoke_json(
        "obstruction", str(SCENARIOS / "canonical_order4.json"))
    assert code == 0
    assert payload["class"] == [0] and payload["vanishes"] is True
    # emitted ladder re-validates on load
    built = load_scenario(payload["built_scenario"])
    ladder = built.ladder()
    assert validate_prolongation(ladder).ok
    assert verify_covering(ladder, built.pre_prolongation())


def test_obstruction_nonzero_exit_3():
    code, payload = invoke_json("obstruction", str(SCENARIOS / "obstructed.json"))
    assert code == 3
    assert payload["class"] == [1]
    assert payload["vanishes"] is False


def test_obstruction_trivial_quotient():
    # gamma an isomorphism: the acting quotient is trivial, the class is zero
    doc = {
        "mode": "pre-prolongation",
        "groups": {"A0": "Z2", "B0": "Z4", "G0": "Z2", "A": "Z2", "G": "Z2"},
        "homs": {
            "j0": {"source": "A0", "target": "B0", "map": [0, 2]},
            "p0": {"source": "B0", "target": "G0", "map": [0, 1, 0, 1]},
            "alpha": {"source": "A0", "target": "A", "map": [0, 1]},
            "gamma": {"source": "G0", "target": "G", "map": [0, 1]},
        },
        "e0": {"j": "j0", "p": "p0"},
        "alpha": "alpha",
        "gamma": "gamma",
        "theta": [[0, 1, 2, 3], [0, 1, 2, 3]],
    }
    path = "/tmp/trivial_quotient.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, payload = invoke_json("obstruction", path)
    assert code == 0
    assert payload["class"] == [] and payload["vanishes"] is True


def test_obstruction_seeded():
    code, payload = invoke_json(
        "--format", "json", "obstruction", str(SCENARIOS / "canonical_order4.json"),
        "--seed", "5")
    assert code == 0
    assert payload["class"] == [0]


def test_build_writes_scenario(tmp_path):
    out_file = tmp_path / "built.json"
    code, payload = invoke_json(
        "build", str(SCENARIOS / "inversion_action.json"), "--out", str(out_file))
    assert code == 0
    assert payload["middle_group"]["order"] == 12
    emitted = load_scenario(json.loads(out_file.read_text()))
    assert validate_prolongation(emitted.ladder()).ok


def test_build_obstructed_exit_3():
    code, payload = invoke_json("build", str(SCENARIOS / "obstructed.json"))
    assert code == 3
    assert payload["vanishes"] is False


def test_classify_canonical():
    code, payload = invoke_json("classify", str(SCENARIOS / "canonical_order4.json"))
    assert code == 0
    assert payload["class_count"] == 2
    assert payload["h2_invariant_factors"] == [2]
    orders = sorted(c["middle_group"]["order"] for c in payload["classes"])
    assert orders == [4, 4]


def test_classify_obstructed_exit_3():
    code, payload = invoke_json("classify", str(SCENARIOS / "obstructed.json"))
    assert code == 3


def test_equiv_inequivalent_pair():
    code, payload = invoke_json("equiv", str(SCENARIOS / "ladder_pair.json"))
    assert code == 3
    assert payload["equivalent"] is False


def test_equiv_identical_pair():
    doc = json.loads((SCENARIOS / "ladder_pair.json").read_text())
    doc["ladders"][1] = doc["ladders"][0]
    path = "/tmp/equiv_same.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, payload = invoke_json("equiv", path)
    assert code == 0
    assert payload["equivalent"] is True


INVERSION_LADDER = Path(__file__).resolve().parent / "data" / "inversion_ladder.json"


def test_user_ladder_with_nontrivial_theta():
    """The covering that build makes of inversion_action.json, held twice as
    a full-ladder scenario: its theta acts nontrivially on E0 = Z6, validate
    reads both ladders as coverings, and equiv finds them equivalent."""
    doc = json.loads(INVERSION_LADDER.read_text())
    code, built = invoke_json("build", str(SCENARIOS / "inversion_action.json"))
    assert code == 0
    assert doc == {**built["built_scenario"],
                   "ladders": built["built_scenario"]["ladders"] * 2}
    assert len({tuple(t) for t in doc["theta"]}) > 1
    code, payload = invoke_json("validate", str(INVERSION_LADDER))
    assert code == 0
    assert [ladder["covering"] for ladder in payload["ladders"]] == [True, True]
    code, payload = invoke_json("equiv", str(INVERSION_LADDER))
    assert code == 0 and payload["equivalent"] is True


def test_oracle_agreement():
    for name in ("canonical_order4.json", "inversion_action.json",
                 "obstructed.json"):
        code, payload = invoke_json("oracle", str(SCENARIOS / name))
        assert code == 0, name
        assert payload["match"] is True


def test_oracle_mismatch_exit_4(monkeypatch):
    # force a disagreement to confirm the exit-code wiring; the honest paths
    # above cannot produce one
    import prolong.cli as cli_mod
    monkeypatch.setattr(cli_mod, "brute_force_coverings", lambda pre, max_order: ())
    code, payload = invoke_json("oracle", str(SCENARIOS / "canonical_order4.json"))
    assert code == 4
    assert payload["match"] is False


def test_oracle_max_order_guard():
    code, payload = invoke_json(
        "oracle", str(SCENARIOS / "canonical_order4.json"), "--max-order", "2")
    assert code == 2  # SearchBoundExceeded surfaces as an invalid-input error
    assert payload == {"error": "middle group order 4 exceeds max_order = 2",
                       "kind": "SearchBoundExceeded"}


def test_pullback_subcommand():
    code, payload = invoke_json("pullback", str(SCENARIOS / "klein_ladder.json"))
    assert code == 0
    # pulling back along gamma: Z1 -> Z2 gives the fiber over the identity
    assert payload["middle_group"]["order"] == 2


def test_pullback_of_an_invalid_ladder_exit_2():
    """A ladder row that ends in another group than gamma's target is
    reported, not pulled back."""
    doc = copy.deepcopy(SHIPPED["klein_ladder.json"])
    doc["groups"].update({"G2": "Z1", "A": "V4"})
    doc["homs"]["j"]["map"] = [0, 1, 2, 3]
    doc["homs"]["p"] = {"source": "B", "target": "G2", "map": [0, 0, 0, 0]}
    doc["homs"]["alpha"]["map"] = [0, 1]
    code, payload = invoke_json("validate", json.dumps(doc))
    assert code == 2
    code, payload = invoke_json("pullback", json.dumps(doc))
    assert (code, payload["kind"]) == (2, "InvalidProlongation")
    assert "wiring" in payload["error"]


def test_usage_error_exit_1():
    code, text = invoke("frobnicate", "nowhere.json")
    assert code == 1


@pytest.mark.parametrize("degree", ["0", "5"])
def test_degree_flag_outside_one_to_three_is_a_usage_error(degree):
    """--degree outside 1..3 is a bad flag, not an invalid scenario: exit 1,
    naming the choices."""
    code, text = invoke("--format", "json", "cohomology",
                        str(SCENARIOS / "cohomology_z2.json"), "--degree", degree)
    assert code == 1
    assert text.startswith("usage error: argument --degree: invalid choice")
    assert "1, 2, 3" in text and text.count("\n") == 1


def test_scenario_degree_outside_one_to_three_is_invalid():
    """A cohomology-only scenario asking for degree 4 is no usage error: it
    exits 2 with the DegreeOutOfRange kind."""
    doc = {"mode": "cohomology-only", "groups": {"Pi": "Z2", "A": "Z2"},
           "cohomology": {"pi": "Pi", "a": "A", "action": None, "degree": 4}}
    code, payload = invoke_json("cohomology", json.dumps(doc))
    assert (code, payload["kind"]) == (2, "DegreeOutOfRange")


def test_missing_file_is_invalid_scenario():
    code, payload = invoke_json("validate", "/tmp/definitely_missing.json")
    assert code == 2


def test_json_output_deterministic():
    runs = [invoke("--format", "json", "classify",
                   str(SCENARIOS / "canonical_order4.json")) for _ in range(2)]
    assert runs[0] == runs[1]
    more = [invoke("--format", "json", "obstruction",
                   str(SCENARIOS / "inversion_action.json")) for _ in range(2)]
    assert more[0] == more[1]


def test_prolongation_serialization_round_trip():
    from prolong.obstruction import build_prolongation
    scn = load_scenario(SCENARIOS / "inversion_action.json")
    pre = scn.pre_prolongation()
    built = build_prolongation(pre)
    doc = prolongation_to_scenario(built.prolongation, theta=pre.theta)
    again = load_scenario(doc)
    ladder = again.ladder()
    assert validate_prolongation(ladder).ok
    assert verify_covering(ladder, again.pre_prolongation())


# --- one-field mutation fuzz ----------------------------------------------------

@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.sampled_from(MUTATIONS), st.sampled_from(POOL), st.sampled_from(COMMANDS))
def test_one_field_mutation_exits_cleanly(mutation, value, command):
    """One JSON value of a shipped scenario replaced by a value of any shape:
    every command exits 0, 2, 3 or 4 without an exception, and a shape
    error names the replaced path (its own path starts there)."""
    name, path = mutation
    doc = _replaced(SHIPPED[name], path, value)
    code, text = invoke("--format", "json", command, json.dumps(doc))
    assert code in (0, 2, 3, 4), text
    payload = json.loads(text)
    if payload.get("kind") == "scenario":
        try:
            load_scenario(doc)
        except ShapeError as exc:
            assert str(exc) == payload["error"]
            assert _dotted(path) in payload["error"]
        except ScenarioError:
            pass


def test_report_answers_match_the_benchmark_pins(tmp_path):
    """Every validate, pullback and equiv query pinned for the cli benchmark
    prints, in process, the stdout it pins (by SHA-256) with its exit code.
    Pool scenarios are written to tmp_path; perfbench/ is only read."""
    answers = json.loads((BENCH_DATA / "answers.json").read_text())
    pool = {entry["id"]: entry["scenario"]
            for entry in json.loads((BENCH_DATA / "pool.json").read_text())["scenarios"]}
    queries = [(sid, cmd, pin) for sid, pins in answers.items()
               for cmd, pin in pins.items() if cmd in ("validate", "pullback", "equiv")]
    assert len(queries) == 70
    wrong = []
    for sid, cmd, pin in queries:
        kind, name = sid.split("/", 1)
        path = SCENARIOS / f"{name}.json" if kind == "shipped" else tmp_path / f"{name}.json"
        if kind != "shipped":
            path.write_text(json.dumps(pool[sid]))
        out = io.StringIO()
        code = run(["--format", "json", cmd, str(path)], out=out)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (pin["exit"], pin["sha256"]):
            wrong.append((sid, cmd))
    assert not wrong
