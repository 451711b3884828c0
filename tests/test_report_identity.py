"""The report identity tool runs the benchmark's 36 configurations on two trees and compares their reports."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_identity", ROOT / "tools" / "report_identity.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run_tool(capsys, parent: Path, change: Path):
    tool = load_tool()
    code = tool.main(["--tree", f"parent={parent}", "--tree", f"change={change}"])
    return code, json.loads(capsys.readouterr().out)


def test_a_tree_against_itself_is_identical(capsys):
    code, out = run_tool(capsys, SRC, SRC)
    assert code == 0 and out["differing"] == []
    assert len(out["runs"]) == 36
    assert all(
        row["identical"] and row["first_diff"] is None and row["moved"] is None for row in out["runs"]
    )
    assert all(row["bytes"]["parent"] == row["bytes"]["change"] > 0 for row in out["runs"])
    assert all(row["data_suites"] == [] for row in out["runs"])
    failing = [row["run"] for row in out["runs"] if row["exit"] != {"parent": 0, "change": 0}]
    assert failing == ["bad_certificate"]
    assert out["runs"][2]["exit"] == {"parent": 1, "change": 1}


def test_a_changed_tolerance_names_the_runs_it_moves(capsys, tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    scenario = changed / "rnsl" / "scenario.py"
    text = scenario.read_text(encoding="utf-8")
    assert text.count('"semigroup_law": 1e-9') == 1
    # a negative allowance fails the composition law wherever the suite runs
    scenario.write_text(text.replace('"semigroup_law": 1e-9', '"semigroup_law": -1.0'), encoding="utf-8")
    code, out = run_tool(capsys, SRC, changed)
    assert code == 1
    moved = ["reference"] + [f"wide_semigroup/{seed}/semigroup_law" for seed in (0, 1, 13)]
    assert out["differing"] == moved
    for row in out["runs"]:
        if row["run"] in moved:
            assert not row["identical"]
            assert row["exit"] == {"parent": 0, "change": 1}
            assert row["first_diff"] == "semigroup_law/composition_law: passed True -> False"
            # the values stay; only the verdict moves
            assert row["moved"] == {
                "records": 0, "max_abs": 0.0, "max_rel": 0.0,
                "verdicts": ["semigroup_law/composition_law: passed True -> False"],
            }
        else:
            assert row["identical"] and row["first_diff"] is None and row["moved"] is None


def test_a_data_only_change_names_its_suite(capsys, tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    suites = changed / "rnsl" / "suites.py"
    text = suites.read_text(encoding="utf-8")
    table = '_columns("acp_trajectory", coarse.to_csv_rows())'
    assert text.count(table) == 1
    # the 41-point run in place of the 21-point one: a longer table, the same records
    suites.write_text(text.replace(table, table.replace("coarse", "fine")), encoding="utf-8")
    code, out = run_tool(capsys, SRC, changed)
    assert code == 1
    moved = ["reference"] + [f"wide_semigroup/{seed}/acp_5_1" for seed in (0, 1, 13)]
    assert out["differing"] == moved
    for row in out["runs"]:
        if row["run"] in moved:
            assert not row["identical"] and row["exit"]["parent"] == row["exit"]["change"]
            assert row["bytes"]["parent"] < row["bytes"]["change"]
            assert row["first_diff"] is None
            assert row["data_suites"] == ["acp_5_1"]
            assert row["moved"] == {"records": 0, "max_abs": 0.0, "max_rel": 0.0, "verdicts": []}
        else:
            assert row["identical"] and row["data_suites"] == []
            assert row["bytes"]["parent"] == row["bytes"]["change"]


def test_data_suites_pair_suites_by_name():
    tool = load_tool()

    def report(**data):
        return {"suites": [{"suite": name, "records": [], "data": d} for name, d in data.items()]}

    old = report(a={"x": [1.0, math.nan]}, b={"y": [2.0]}, c={})
    assert tool.data_suites(old, old) == []
    new = report(c={}, b={"y": [2.5]}, a={"x": [1.0, math.nan]}, d={"z": []})
    assert tool.data_suites(old, new) == ["b", "d"]
    assert tool.data_suites(new, report(a={"x": [1.0, math.nan]})) == ["c", "b", "d"]


def test_moves_measure_each_changed_record():
    tool = load_tool()

    def report(*records):
        return {"suites": [{"suite": "s", "records": [
            {"name": name, "measured": measured, "bound": bound, "passed": passed, "worst_atom": atom}
            for name, measured, bound, passed, atom in records
        ]}]}

    old = report(("a", 1.0, 2.0, True, 0), ("b", 0.0, 1.0, True, None), ("c", math.nan, 1.0, True, 3))
    new = report(("a", 1.5, 2.0, True, 1), ("b", 0.0, 1.0, False, None), ("c", math.nan, 0.0, True, 3))
    assert tool.moves(old, new) == {
        "records": 2, "max_abs": 1.0, "max_rel": 1.0,
        "verdicts": ["s/a: worst_atom 0 -> 1", "s/b: passed True -> False"],
    }
    assert tool.moves(old, old) == {"records": 0, "max_abs": 0.0, "max_rel": 0.0, "verdicts": []}
    # records pair by name, not by place: a reordered, dropped or added record is not compared with another
    shuffled = report(("d", 9.0, 9.0, True, None), ("c", math.nan, 0.0, True, 3), ("a", 1.5, 2.0, True, 0))
    assert tool.moves(old, shuffled) == {
        "records": 2, "max_abs": 1.0, "max_rel": 1.0,
        "verdicts": ["s/b: only in the old report", "s/d: only in the new report"],
    }
