"""The report identity tool runs the benchmark's 36 configurations on two trees and compares their reports."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_tool(capsys, parent: Path, change: Path):
    spec = importlib.util.spec_from_file_location("report_identity", ROOT / "tools" / "report_identity.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    code = tool.main(["--tree", f"parent={parent}", "--tree", f"change={change}"])
    return code, json.loads(capsys.readouterr().out)


def test_a_tree_against_itself_is_identical(capsys):
    code, out = run_tool(capsys, SRC, SRC)
    assert code == 0 and out["differing"] == []
    assert len(out["runs"]) == 36
    assert all(row["identical"] and row["first_diff"] is None for row in out["runs"])
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
        else:
            assert row["identical"] and row["first_diff"] is None
