import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fuzzysumm.cli import ProjectState, build_state, main, run_query
from fuzzysumm.errors import FuzzysummError

from conftest import FIXTURES

Q1 = "Select Income, ProfessionalBackground From Employee Where Age FEQ $Young THOLD 0.5;"
Q4 = ("Select 3 0.25 Dairy-product, Lipid From Food-consumption "
      "Where Age FEQ ($Old) THOLD 0.25 AND Candy FEQ ($Excessive) THOLD 0.25;")
Q4_EMPLOYEE = ("Select * From Employee Where Age FEQ ($Young, $Adult) THOLD 0.3 "
               "And Income FEQ ($Poor, $Modest) THOLD 0.3;")


def run_cli(*argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzysumm.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


@pytest.fixture(scope="module")
def employee_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("state") / "employee.json"
    state = build_state(
        FIXTURES / "employee_schema.json",
        hierarchy_path=FIXTURES / "employee_hierarchy.json",
    )
    state.save(out)
    return out


@pytest.fixture(scope="module")
def food_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("state") / "food.json"
    state = build_state(
        FIXTURES / "food_schema.json", hierarchy_path=FIXTURES / "food_hierarchy.json"
    )
    state.save(out)
    return out


class TestBuild:
    def test_build_from_csv(self, tmp_path):
        out = tmp_path / "state.json"
        proc = run_cli(
            "build",
            "--schema", str(FIXTURES / "employee_schema.json"),
            "--data", str(FIXTURES / "employee_numeric.csv"),
            "--threshold", "0.4",
            "--out", str(out),
        )
        assert proc.returncode == 0
        state = ProjectState.load(out)
        assert len(state.context.objects) == 6
        assert len(state.context.attributes) == 6
        root = state.hierarchy.summary(state.hierarchy.root)
        assert root.intent == frozenset()

    def test_build_from_context(self, tmp_path):
        out = tmp_path / "state.json"
        proc = run_cli(
            "build",
            "--schema", str(FIXTURES / "topics_schema.json"),
            "--context", str(FIXTURES / "topics_context.json"),
            "--threshold", "0.5",
            "--out", str(out),
        )
        assert proc.returncode == 0
        assert len(json.loads(out.read_text())["lattice"]["concepts"]) == 6

    def test_build_rejects_two_sources(self, tmp_path):
        proc = run_cli(
            "build",
            "--schema", str(FIXTURES / "employee_schema.json"),
            "--data", str(FIXTURES / "employee.csv"),
            "--context", str(FIXTURES / "topics_context.json"),
            "--out", str(tmp_path / "x.json"),
        )
        assert proc.returncode != 0

    def test_build_from_label_csv_end_to_end(self, tmp_path):
        state = build_state(
            FIXTURES / "food_schema.json", data_path=FIXTURES / "food.csv", threshold=0.5
        )
        assert (len(state.context.objects), len(state.context.attributes)) == (10, 16)
        code, payload, results, _ = run_query(
            state,
            "Select * From Food-consumption Where Age FEQ $Old AND Candy FEQ $Low;",
            mode="strict", k=None, alpha=None,
        )
        assert code == 0
        assert set(results[0].extent) == {"t4", "t7"}  # the Old/Low-candy rows

    def test_build_deterministic_for_fixed_seed(self, tmp_path):
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(
                "build",
                "--schema", str(FIXTURES / "employee_schema.json"),
                "--data", str(FIXTURES / "employee_numeric.csv"),
                "--seed", "11",
                "--out", str(out),
            )
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


class TestQuery:
    def test_q1_json_and_exit_zero(self, employee_state):
        proc = run_cli("query", str(employee_state), Q1)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [r["summary_id"] for r in payload["results"]] == ["z13"]
        assert payload["results"][0]["extent"] == {
            "t1": 0.5, "t3": 0.7, "t5": 0.6, "t6": 0.5}

    def test_q4_exits_two_with_substitution(self, food_state):
        proc = run_cli("query", str(food_state), Q4, "--mode", "exhaustive")
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert payload["results"] == []
        subs = payload["repair"]["substitutions"]
        assert subs[0]["replaced"]["Age"] == ["Child", "Young"]
        assert "$Child" in subs[0]["query"] and "$Young" in subs[0]["query"]

    def test_malformed_query_exits_one(self, employee_state):
        proc = run_cli("query", str(employee_state), "Select Frum Employee")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "query error" in proc.stderr

    def test_table_format(self, employee_state):
        proc = run_cli("query", str(employee_state), Q1, "--format", "table")
        assert proc.returncode == 0
        assert "z13" in proc.stdout

    def test_unrepairable_empty_exits_three(self, employee_state):
        # Old never appears in the hierarchy, and the 0.9 cut empties every
        # candidate substitution, so nothing viable can be proposed
        proc = run_cli(
            "query", str(employee_state),
            "Select * From Employee Where Age FEQ $Old THOLD 0.9 "
            "And Income FEQ $Poor THOLD 0.9",
        )
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        assert payload["results"] == []
        assert payload["repair"]["substitutions"] == []

    def test_alpha_cut_that_empties_every_answer_exits_three(self, employee_state):
        # the search finds z13, but no Young degree reaches the 1.0 cut
        proc = run_cli("query", str(employee_state),
                       "Select 3 1.0 Income From Employee Where Age FEQ $Young;")
        assert proc.returncode == 3
        assert "error:" not in proc.stderr
        repair = json.loads(proc.stdout)["repair"]
        assert repair["failure_nodes"] == [] and repair["substitutions"] == []
        assert repair["diagnostics"] == [
            "alpha cut at 1 emptied every summary the search found (1); their highest "
            "degree, 0.7, is the largest alpha that keeps an answer"]

    def test_k_flag_overrides(self, food_state):
        sub_q = ("Select 3 0.25 Dairy-product, Lipid From Food-consumption "
                 "Where Age FEQ ($Child, $Young) THOLD 0.25 AND Candy FEQ ($Excessive) "
                 "THOLD 0.25;")
        proc = run_cli("query", str(food_state), sub_q, "--mode", "exhaustive", "--k", "1")
        payload = json.loads(proc.stdout)
        assert len(payload["results"]) == 1

    def test_alpha_flag_overrides(self, employee_state):
        proc = run_cli("query", str(employee_state),
                       "Select * From Employee Where Age FEQ $Young THOLD 0.3",
                       "--alpha", "0.65")
        payload = json.loads(proc.stdout)
        assert all(d >= 0.65 for r in payload["results"] for d in r["extent"].values())


class TestRepl:
    def test_session_with_substitution_acceptance(self, food_state):
        script = "\n".join([
            "",  # empty line: no-op
            Q4,
            "1",  # run the first proposed substitution
            "\\quit",
        ]) + "\n"
        proc = run_cli("repl", str(food_state), "--mode", "exhaustive", stdin=script)
        assert proc.returncode == 0
        assert "failed at z42" in proc.stdout
        assert "$Child" in proc.stdout
        assert "z71" in proc.stdout  # substitution results got printed

    def test_meta_commands_and_errors(self, employee_state):
        script = "\n".join([
            "\\mode tolerant",
            "\\k 2",
            "not a query",
            "\\bogus",
            Q1,
            "\\quit",
        ]) + "\n"
        proc = run_cli("repl", str(employee_state), stdin=script)
        assert proc.returncode == 0
        assert "mode = tolerant" in proc.stdout
        assert "k = 2" in proc.stdout
        assert "error" in proc.stderr
        assert "bad meta-command" in proc.stderr
        assert "z13" in proc.stdout


class TestInspect:
    def test_level_listing(self, employee_state):
        proc = run_cli("inspect", str(employee_state), "--level", "1", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert sorted(s["summary_id"] for s in payload) == ["z11", "z12", "z13"]

    def test_root_inspection(self, employee_state):
        proc = run_cli("inspect", str(employee_state), "--id", "z0")
        assert proc.returncode == 0
        assert "level 0" in proc.stdout

    def test_unknown_id(self, employee_state):
        proc = run_cli("inspect", str(employee_state), "--id", "z99")
        assert proc.returncode == 1


class TestExport:
    def test_hierarchy_round_trip(self, employee_state, tmp_path):
        out = tmp_path / "h.json"
        proc = run_cli("export", str(employee_state), "--what", "hierarchy",
                       "--out", str(out))
        assert proc.returncode == 0
        exported = json.loads(out.read_text())
        assert exported["root"] == "z0"

    def test_missing_artifact(self, employee_state, tmp_path):
        proc = run_cli("export", str(employee_state), "--what", "lattice",
                       "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1

    def test_context_export_from_csv_build(self, tmp_path):
        state_path = tmp_path / "s.json"
        build_state(
            FIXTURES / "employee_schema.json",
            data_path=FIXTURES / "employee_numeric.csv",
        ).save(state_path)
        out = tmp_path / "ctx.json"
        proc = run_cli("export", str(state_path), "--what", "context", "--out", str(out))
        assert proc.returncode == 0
        exported = json.loads(out.read_text())
        assert len(exported["objects"]) == 6
        assert len(exported["attributes"]) == 6


def test_main_returns_codes(employee_state):
    assert main(["query", str(employee_state), Q1]) == 0
    assert main(["query", str(employee_state), "garbage"]) == 1


@pytest.mark.parametrize("raw", [
    {},
    [],
    "state",
    {"schema": []},
    {"hierarchy": {"summaries": {}}},
])
def test_malformed_state_exits_one(tmp_path, capsys, raw):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    assert main(["query", str(path), Q1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("summaries, reason", [
    ({"a": 5}, "is not a JSON object"),
    ({"a": {"intent": "Age::Young", "extent": {}}}, "intent is not a list"),
    ({"a": {"intent": ["Age::Young"], "extent": {"t1": "high"}}}, "is not a number"),
    ({"a": {"intent": ["Age::Young"], "extent": {"t1": 7.5}}}, "outside [0,1]"),
])
def test_malformed_hierarchy_section_exits_one(tmp_path, capsys, summaries, reason):
    schema = json.loads((FIXTURES / "employee_schema.json").read_text())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema": schema, "hierarchy": {"summaries": summaries}}))
    assert main(["query", str(path), Q1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: summary 'a'")
    assert reason in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("section, value, reason", [
    ("schema", {"attributes": 5}, "'attributes' list"),
    ("schema", {"attributes": [5]}, "schema attribute 0: not an object"),
    ("schema", {"attributes": [{"name": "Age", "labels": [{"trapezoid": [0, 1, 2, 3]}]}]},
     "schema attribute 'Age', label 0: not a name"),
    ("schema", {"attributes": [{"name": "Age", "ftype": "x"}]},
     "schema attribute 'Age': ftype: 'x' is not an integer"),
    ("context", {"objects": ["D1"], "attributes": ["Topic::D"], "degrees": [["x"]]},
     "context degrees, row 0 is not a list of finite numbers"),
    ("context", {"objects": ["D1"], "attributes": [5], "degrees": [[0.5]]},
     "context attributes is not a list of strings"),
])
def test_malformed_schema_or_context_section_exits_one(tmp_path, capsys, section, value, reason):
    raw = json.loads(build_cli(tmp_path, "context").read_text())
    raw[section] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["query", str(path), "Select * From T Where Topic FEQ $D;"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert reason in captured.err


@pytest.mark.parametrize("field, value, named", [
    ("objects", ["D1", "D1", "D3"], "duplicate object 'D1'"),
    ("attributes", ["Topic::D", "Topic::D", "Topic::F"], "duplicate attribute 'Topic::D'"),
])
def test_context_with_duplicate_rows_or_columns_exits_one(tmp_path, capsys, field, value, named):
    """Both entry points of a context: build --context, and a query on a
    state whose context section holds the duplicate."""
    raw = json.loads((FIXTURES / "topics_context.json").read_text())
    assert len(raw[field]) == len(value)
    raw[field] = value
    context = tmp_path / "ctx.json"
    context.write_text(json.dumps(raw))
    state = json.loads(build_cli(tmp_path, "context").read_text())
    state["context"] = raw
    state_path = tmp_path / "s.json"
    state_path.write_text(json.dumps(state))
    capsys.readouterr()
    for argv in (["build", "--schema", str(FIXTURES / "topics_schema.json"),
                  "--context", str(context), "--out", str(tmp_path / "out.json")],
                 ["query", str(state_path), "Select * From T Where Topic FEQ $D;"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: context: {named}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("schema, source, queries", [
    ("employee_schema.json", {"hierarchy_path": "employee_hierarchy.json"}, (Q1, Q4_EMPLOYEE)),
    ("employee_schema.json", {"data_path": "employee_numeric.csv"}, (Q1, Q4_EMPLOYEE)),
    ("food_schema.json", {"hierarchy_path": "food_hierarchy.json"}, (Q4,)),
    ("food_schema.json", {"data_path": "food.csv"},
     ("Select * From Food-consumption Where Age FEQ $Old AND Candy FEQ $Low;",)),
])
def test_save_load_keeps_edges_and_payloads(tmp_path, schema, source, queries):
    state = build_state(FIXTURES / schema, threshold=0.4,
                        **{key: FIXTURES / name for key, name in source.items()})
    path = tmp_path / "s.json"
    state.save(path)
    reloaded = ProjectState.load(path)
    assert reloaded.hierarchy.to_dict()["children"] == state.hierarchy.to_dict()["children"]
    for text in queries:
        for mode in ("strict", "tolerant", "exhaustive"):
            before = run_query(state, text, mode, None, None)[1]
            after = run_query(reloaded, text, mode, None, None)[1]
            assert after == before


def test_save_load_query_is_bit_identical(tmp_path):
    from fuzzysumm.cli import dumps, run_query

    state = build_state(
        FIXTURES / "employee_schema.json",
        hierarchy_path=FIXTURES / "employee_hierarchy.json",
    )
    path = tmp_path / "s.json"
    state.save(path)
    reloaded = ProjectState.load(path)
    before = dumps(run_query(state, Q1, "strict", None, None)[1])
    after = dumps(run_query(reloaded, Q1, "strict", None, None)[1])
    assert before == after


BUILDS = {
    "csv": ("employee_data_schema.json", "--data", "employee.csv"),
    "context": ("topics_schema.json", "--context", "topics_context.json"),
    "hierarchy": ("employee_schema.json", "--hierarchy", "employee_hierarchy.json"),
}


def build_cli(tmp_path, kind):
    schema, flag, source = BUILDS[kind]
    out = tmp_path / f"{kind}.json"
    assert main(["build", "--schema", str(FIXTURES / schema), flag, str(FIXTURES / source),
                 "--threshold", "0.4", "--out", str(out)]) == 0
    return out


class TestStateLayout:
    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_saving_a_loaded_state_gives_the_built_bytes(self, tmp_path, kind):
        built = build_cli(tmp_path, kind)
        again = tmp_path / "again.json"
        ProjectState.load(built).save(again)
        assert again.read_bytes() == built.read_bytes()

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_state_is_compact_json_and_indented_states_still_load(self, tmp_path, kind):
        built = build_cli(tmp_path, kind)
        text = built.read_text()
        raw = json.loads(text)
        assert text == json.dumps(raw, sort_keys=True, separators=(",", ":")) + "\n"
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        again = tmp_path / "again.json"
        ProjectState.load(indented).save(again)
        assert again.read_bytes() == built.read_bytes()

    def test_csv_state_writes_extents_once_and_string_ids(self, tmp_path):
        raw = json.loads(build_cli(tmp_path, "csv").read_text())
        lattice, hierarchy = raw["lattice"], raw["hierarchy"]
        assert raw["meta"]["threshold"] == 0.4
        assert "threshold" not in lattice
        assert all(set(c) == {"id", "intent"} for c in lattice["concepts"])
        ids = [lattice["top"], lattice["bottom"], hierarchy["root"]]
        ids += [c["id"] for c in lattice["concepts"]]
        ids += [sid for edge in lattice["covers"] for sid in edge]
        ids += list(hierarchy["summaries"]) + [
            sid for kids in hierarchy["children"].values() for sid in kids]
        assert all(isinstance(sid, str) for sid in ids)
        assert {c["id"] for c in lattice["concepts"]} == set(hierarchy["summaries"])

    @pytest.mark.parametrize("kind", ["csv", "context"])
    def test_export_lattice_after_load_equals_the_built_section(self, tmp_path, kind):
        built = build_cli(tmp_path, kind)
        out = tmp_path / "lattice.json"
        assert main(["export", str(built), "--what", "lattice", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(built.read_text())["lattice"]

    def test_inspect_takes_the_string_id_of_a_csv_build(self, tmp_path, capsys):
        built = build_cli(tmp_path, "csv")
        capsys.readouterr()
        assert main(["inspect", str(built), "--id", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["summary_id"] == "0"
        assert payload[0]["level"] == 0


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=10,
)


def replace_somewhere(data, value):
    """value with one node, itself or one below it, replaced by arbitrary JSON."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(value) if isinstance(value, dict)
                                        else range(len(value))))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = replace_somewhere(data, value[key])
        return copy
    return data.draw(JSON)


@pytest.fixture(scope="module")
def context_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("state") / "topics.json"
    build_state(FIXTURES / "topics_schema.json", context_path=FIXTURES / "topics_context.json",
                threshold=0.5).save(out)
    return out


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_load_with_one_section_replaced_loads_or_raises_package_error(context_state, data):
    """Every section of a valid state (meta, schema, context, lattice,
    hierarchy), or any node inside one, replaced by arbitrary JSON: the
    state loads, or ProjectState.load raises a FuzzysummError."""
    raw = json.loads(context_state.read_text())
    section = data.draw(st.sampled_from(sorted(raw)))
    raw[section] = replace_somewhere(data, raw[section])
    path = context_state.with_name("mutated.json")
    path.write_text(json.dumps(raw))
    try:
        ProjectState.load(path)
    except FuzzysummError:
        pass
