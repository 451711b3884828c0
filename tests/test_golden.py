"""Regression gate: fresh runs of the shipped scenarios against golden reports.

Each golden file is the report.json of one shipped scenario, run with the
suites the golden lists (all fourteen for reference.json), and compared with
the comparator behind ``rnsl diff``: verdicts, record names and directions
must match exactly; measured values and bounds within rtol 1e-9 / atol 1e-12.
Each record's ``worst_atom`` must match exactly as well: ``rn.worst_atom``
takes the lowest atom within 1e-12 * (1 + |max|) of the maximum, so atoms
whose gaps tie up to rounding do not trade places.

To regenerate after an intended change of results, for each scenario:

    python -m rnsl run scenarios/NAME.json --out DIR [--suite S ...]
    cp DIR/report.json tests/golden/NAME/report.json
"""

import json
from pathlib import Path

import pytest

from rnsl import load_scenario, run_scenario
from rnsl.reporting import diff_reports

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def worst_atoms(report: dict) -> list:
    return [
        (s["suite"], r["name"], r.get("worst_atom"))
        for s in report["suites"]
        for r in s["records"]
    ]


@pytest.mark.parametrize("name", ["reference", "post_widder", "bad_certificate"])
def test_fresh_run_matches_golden_report(name, tmp_path):
    golden = json.loads((GOLDEN / name / "report.json").read_text(encoding="utf-8"))
    suites = [s["suite"] for s in golden["suites"]]
    scn = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
    run_scenario(scn, out_dir=str(tmp_path), suites=suites)
    fresh = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))

    assert diff_reports(golden, fresh) == []
    assert worst_atoms(fresh) == worst_atoms(golden)
