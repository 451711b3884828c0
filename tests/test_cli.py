"""Runner layer: scenario schema, reports on disk, CLI contract, plot export."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from rnsl import (
    SchemaError,
    UnknownSuite,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from rnsl.reporting import (
    RECORDS_CSV_HEADER,
    CheckRecord,
    SuiteReport,
    diff_reports,
    fmt_float,
    records_csv_rows,
    report_payload,
    write_csv,
    write_json,
)
from rnsl.cli import main as cli_main
from rnsl.scenario import canonical_digest
from rnsl.suites import PLOT_KINDS, emit_plot_data


def passing_doc(**overrides):
    doc = {
        "space": {"probs": [1.0]},
        "dim": 1,
        "operators": {"A": {"matrix": [[-1.0]]}, "C": {"matrix": [[1.0]]}},
        "bound": {"M": 1.0, "xi": -1.0},
        "suites": ["semigroup_law"],
        "seed": 3,
        "instances": 12,
    }
    doc.update(overrides)
    return doc


def failing_doc():
    return {
        "space": {"probs": [1.0]},
        "dim": 2,
        "operators": {
            "A": {"matrix": [[0.0, 1.0], [0.0, 0.0]]},
            "C": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        },
        "bound": {"M": 2.0, "xi": 0.0},
        "eta_grid": [1.0],
        "suites": ["hille_yosida_4_11"],
        "seed": 0,
        "instances": 5,
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rnsl", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestScenarioParsing:
    def test_defaults_filled(self):
        scn = scenario_from_dict(passing_doc())
        assert scn.seed == 3
        assert scn.instances == 12
        assert scn.eta_grid == (2.0, 4.0, 8.0, 16.0)
        assert scn.eta_sequence == (10.0, 20.0, 40.0, 80.0, 160.0)
        assert scn.k_ladder == (8, 64, 512)
        assert len(scn.time_grid) == 21
        assert scn.time_grid[0] == 0.0 and scn.time_grid[-1] == 1.0

    def test_default_seed_and_instances(self):
        doc = passing_doc()
        del doc["seed"], doc["instances"]
        scn = scenario_from_dict(doc)
        assert scn.seed == 0
        assert scn.instances == 200

    def test_digest_independent_of_key_order(self):
        doc = passing_doc()
        scrambled = json.loads(json.dumps(doc, sort_keys=True))
        assert canonical_digest(doc) == canonical_digest(scrambled)
        assert scenario_from_dict(doc).digest == scenario_from_dict(scrambled).digest

    def test_digest_changes_with_content(self):
        assert (
            scenario_from_dict(passing_doc(seed=3)).digest
            != scenario_from_dict(passing_doc(seed=4)).digest
        )

    def test_missing_required_field(self):
        doc = passing_doc()
        del doc["bound"]
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(doc)
        assert "'bound' is a required property" in str(exc.value)
        assert exc.value.pointer == "/"

    def test_pointer_for_nested_error(self):
        doc = passing_doc()
        doc["operators"]["A"] = {"matrix": "not-a-matrix"}
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(doc)
        assert exc.value.pointer.startswith("/operators/A")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict(passing_doc(extra_field=1))

    def test_unknown_suite_rejected_at_run(self, tmp_path):
        scn = scenario_from_dict(passing_doc(suites=["no_such_suite"]))
        with pytest.raises(UnknownSuite):
            run_scenario(scn, out_dir=str(tmp_path))

    def test_matrices_broadcast_and_per_atom(self):
        doc = passing_doc()
        doc["space"] = {"probs": [0.5, 0.5]}
        doc["operators"]["A"] = {"matrices": [[[-1.0]], [[-0.5]]]}
        scn = scenario_from_dict(doc)
        assert scn.A.matrices.shape == (2, 1, 1)
        assert scn.C.matrices.shape == (2, 1, 1)

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_scenario(str(path))


class TestReportingPrimitives:
    def test_fmt_float_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 2.718281828459045e-7, -1e300):
            assert float(fmt_float(x)) == x

    def test_check_record_directions(self):
        ok = CheckRecord.le("a", measured=1.0, bound=1.0, tolerance=0.0)
        assert ok.passed
        bad = CheckRecord.le("b", measured=1.1, bound=1.0, tolerance=1e-3)
        assert not bad.passed
        floor = CheckRecord.ge("c", measured=0.999, bound=1.0, tolerance=1e-2)
        assert floor.passed

    def test_suite_report_passed_aggregates(self):
        ok = CheckRecord.le("a", 0.0, 1.0, 0.0)
        bad = CheckRecord.le("b", 2.0, 1.0, 0.0)
        assert SuiteReport("s", (ok,), {}).passed
        assert not SuiteReport("s", (ok, bad), {}).passed

    def test_payload_shape(self):
        rec = CheckRecord.le("a", 0.0, 1.0, 0.0)
        payload = report_payload("d" * 64, 7, [SuiteReport("s", (rec,), {})])
        assert payload["passed"] is True
        assert payload["seed"] == 7
        assert payload["suites"][0]["records"][0]["name"] == "a"

    def test_write_json_deterministic(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"b": 1, "a": [1.5]})
        blob = open(path, "rb").read()
        assert blob.endswith(b"\n")
        assert blob.index(b'"a"') < blob.index(b'"b"')

    def test_write_csv_crlf(self, tmp_path):
        path = str(tmp_path / "out.csv")
        rec = CheckRecord.le("a", 0.5, 1.0, 1e-9, worst_atom=2)
        write_csv(path, RECORDS_CSV_HEADER, records_csv_rows([rec]))
        blob = open(path, "rb").read()
        assert blob.count(b"\r\n") == 2
        rows = list(csv.reader(open(path, newline="")))
        assert rows[0] == list(RECORDS_CSV_HEADER)
        assert rows[1][0] == "a"
        assert rows[1][-1] == "true"


class TestCliRun:
    def test_passing_scenario_exit_zero(self, tmp_path):
        path = write_doc(tmp_path, passing_doc())
        out = str(tmp_path / "out")
        proc = run_cli("run", path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "result: PASS" in proc.stdout
        assert "semigroup_law: PASS" in proc.stdout
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["passed"] is True
        assert os.path.exists(os.path.join(out, "semigroup_law.csv"))
        assert os.path.exists(os.path.join(out, "meta.json"))

    def test_meta_records_the_report_bytes(self, tmp_path):
        payload, passed, target = run_scenario(scenario_from_dict(passing_doc()), out_dir=str(tmp_path / "o"))
        report = os.path.join(target, "report.json")
        meta = json.load(open(os.path.join(target, "meta.json")))
        assert meta["report_bytes"] == os.path.getsize(report)
        assert b"report_bytes" not in open(report, "rb").read()

    def test_failing_scenario_exit_one(self, tmp_path):
        path = write_doc(tmp_path, failing_doc())
        out = str(tmp_path / "out")
        proc = run_cli("run", path, "--out", out)
        assert proc.returncode == 1
        assert "result: FAIL" in proc.stdout
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["passed"] is False

    def test_unknown_suite_exit_two(self, tmp_path):
        path = write_doc(tmp_path, passing_doc(suites=["no_such_suite"]))
        proc = run_cli("run", path, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_schema_error_exit_two(self, tmp_path):
        doc = passing_doc()
        del doc["operators"]
        path = write_doc(tmp_path, doc)
        proc = run_cli("run", path, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "operators" in proc.stderr

    def test_missing_file_exit_two(self, tmp_path):
        proc = run_cli("run", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_byte_identical_reruns(self, tmp_path):
        path = write_doc(tmp_path, passing_doc())
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            proc = run_cli("run", path, "--out", out)
            assert proc.returncode == 0
            blobs.append(open(os.path.join(out, "report.json"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_suite_filter(self, tmp_path):
        doc = passing_doc(suites=["semigroup_law", "rn_axioms"])
        path = write_doc(tmp_path, doc)
        out = str(tmp_path / "out")
        proc = run_cli("run", path, "--out", out, "--suite", "rn_axioms")
        assert proc.returncode == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert [s["suite"] for s in report["suites"]] == ["rn_axioms"]

    def test_repeated_calls_keep_their_own_suite_lists(self, tmp_path):
        # the parser is built once a process; --suite must not accumulate across calls
        path = write_doc(tmp_path, passing_doc(suites=["semigroup_law", "rn_axioms"]))
        for name, suites in (("a", ["rn_axioms"]), ("b", ["semigroup_law"]), ("c", ["rn_axioms"])):
            out = tmp_path / name
            argv = ["run", path, "--out", str(out)]
            for suite in suites:
                argv += ["--suite", suite]
            assert cli_main(argv) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert [s["suite"] for s in report["suites"]] == suites

    def test_seed_override_recorded(self, tmp_path):
        path = write_doc(tmp_path, passing_doc())
        out = str(tmp_path / "out")
        proc = run_cli("run", path, "--out", out, "--seed", "9")
        assert proc.returncode == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["seed"] == 9

    def test_negative_seed_rejected_before_loading(self, tmp_path, capsys):
        # the scenario's own seed field rejects negatives; the flag must too
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", write_doc(tmp_path, passing_doc()), "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: -1 is not a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_env_out_dir_and_flag_precedence(self, tmp_path):
        path = write_doc(tmp_path, passing_doc())
        env_dir = str(tmp_path / "env_out")
        proc = run_cli("run", path, env_extra={"RNSL_OUT": env_dir})
        assert proc.returncode == 0
        assert os.path.exists(os.path.join(env_dir, "report.json"))
        flag_dir = str(tmp_path / "flag_out")
        proc = run_cli(
            "run", path, "--out", flag_dir, env_extra={"RNSL_OUT": env_dir}
        )
        assert proc.returncode == 0
        assert os.path.exists(os.path.join(flag_dir, "report.json"))


class TestCliPlot:
    @pytest.fixture
    def b4_report(self, tmp_path):
        path = write_doc(tmp_path, failing_doc())
        out = str(tmp_path / "out")
        run_cli("run", path, "--out", out)
        return os.path.join(out, "report.json")

    def test_b4_ladder_csv(self, tmp_path, b4_report):
        target = str(tmp_path / "ladder.csv")
        proc = run_cli("plot", b4_report, "--kind", "b4_ladder", "--out", target)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(open(target, newline="")))
        assert rows[0][:4] == ["eta", "n", "norm", "bound"]
        assert len(rows) > 1

    def test_missing_suite_data_exit_two(self, tmp_path, b4_report):
        target = str(tmp_path / "pw.csv")
        proc = run_cli(
            "plot", b4_report, "--kind", "post_widder_error_vs_k", "--out", target
        )
        assert proc.returncode == 2
        assert "post_widder" in proc.stderr

    @pytest.mark.parametrize("report, kind", [
        pytest.param([], "b4_ladder", id="list"),
        pytest.param("x", "b4_ladder", id="string"),
        pytest.param(
            {"suites": [{"suite": "post_widder", "data": {"k": [1, 2]}}]},
            "post_widder_error_vs_k", id="data-without-error",
        ),
    ])
    def test_malformed_report_exit_two(self, tmp_path, capsys, report, kind):
        path = str(tmp_path / "report.json")
        write_json(path, report)
        assert cli_main(["plot", path, "--kind", kind, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: not a report.json")
        assert not os.path.exists(tmp_path / "x.csv")

    def test_unknown_kind_rejected_by_argparse(self, tmp_path, b4_report):
        proc = run_cli(
            "plot", b4_report, "--kind", "no_such_kind", "--out",
            str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2

    def test_all_kinds_emittable(self, tmp_path):
        doc = passing_doc(
            suites=["post_widder", "yosida_convergence", "hille_yosida_4_11",
                    "acp_5_1"],
            instances=5,
        )
        doc["eta_grid"] = [1.0, 2.0]
        doc["bound"] = {"M": 1.0, "xi": -1.0}
        path = write_doc(tmp_path, doc)
        out = str(tmp_path / "out")
        proc = run_cli("run", path, "--out", out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = os.path.join(out, "report.json")
        headers = {
            "post_widder_error_vs_k": ["k", "error"],
            "yosida_error_vs_eta": ["eta", "error"],
            "b4_ladder": ["eta", "n", "norm", "bound", "passed"],
            "acp_trajectory": ["t", "atom", "component", "u", "residual", "graph_norm"],
        }
        assert set(headers) == set(PLOT_KINDS)
        for kind in PLOT_KINDS:
            target = str(tmp_path / f"{kind}.csv")
            plot = run_cli("plot", report, "--kind", kind, "--out", target)
            assert plot.returncode == 0, plot.stderr
            rows = list(csv.reader(open(target, newline="")))
            assert len(rows) >= 2
            assert rows[0] == headers[kind]

    def test_acp_trajectory_on_64_atoms_is_the_one_atom_table(self, tmp_path):
        doc = passing_doc(suites=["acp_5_1"], instances=2, space={"probs": [1.0 / 64] * 64})
        path, out = write_doc(tmp_path, doc), str(tmp_path / "out")
        assert cli_main(["run", path, "--out", out]) == 0
        target = str(tmp_path / "acp.csv")
        assert cli_main(["plot", os.path.join(out, "report.json"), "--kind", "acp_trajectory", "--out", target]) == 0
        rows = list(csv.reader(open(target, newline="")))
        assert rows[0] == ["t", "atom", "component", "u", "residual", "graph_norm"]
        assert len(rows) == 22 and {r[1] for r in rows[1:]} == {"0"}

    def test_emit_plot_data_python_api(self, tmp_path):
        scn = scenario_from_dict(passing_doc(suites=["yosida_convergence"]))
        payload, passed, target = run_scenario(scn, out_dir=str(tmp_path / "o"))
        assert passed
        out_csv = str(tmp_path / "yosida.csv")
        emit_plot_data(payload, "yosida_error_vs_eta", out_csv)
        rows = list(csv.reader(open(out_csv, newline="")))
        assert rows[0] == ["eta", "error"]
        errs = [float(r[1]) for r in rows[1:]]
        assert errs == sorted(errs, reverse=True)


def one_record_payload(measured=1.0, passed=True, direction="le", name="gap"):
    record = CheckRecord(name, measured, 2.0, 0.0, direction, passed, worst_atom=0)
    return report_payload("digest", 0, [SuiteReport("demo", [record], {"x": [1.0]})])


def suites_payload(*suites):
    """A report of passing records, each suite given as (name, [(record name, measured), ...])."""
    return report_payload("digest", 0, [
        SuiteReport(suite, [CheckRecord(name, m, 10.0, 0.0, "le", True, worst_atom=0) for name, m in records])
        for suite, records in suites
    ])


class TestReportDiff:
    def test_agree_within_tolerance(self):
        base = one_record_payload()
        assert diff_reports(base, base) == []
        assert diff_reports(base, one_record_payload(measured=1.0 + 1e-10)) == []

    def test_numeric_drift_named(self):
        got = diff_reports(one_record_payload(), one_record_payload(measured=1.0 + 1e-8))
        assert got == ["demo/gap: measured 1.0 -> 1.00000001"]

    def test_non_finite_values_agree_only_with_themselves(self):
        for value in (math.inf, -math.inf, math.nan):
            same = one_record_payload(measured=value)
            assert diff_reports(same, same) == []
        inf = one_record_payload(measured=math.inf)
        assert diff_reports(inf, one_record_payload(measured=5.0)) == [
            "demo/gap: measured inf -> 5.0"
        ]
        assert diff_reports(inf, one_record_payload(measured=-math.inf)) == [
            "demo/gap: measured inf -> -inf"
        ]
        assert diff_reports(one_record_payload(), one_record_payload(measured=math.nan))

    def test_verdict_name_and_direction_named_first(self):
        base = one_record_payload()
        flipped = one_record_payload(measured=3.0, passed=False)
        got = diff_reports(base, flipped)
        assert got == ["demo/gap: passed True -> False", "demo/gap: measured 1.0 -> 3.0"]
        assert diff_reports(base, one_record_payload(direction="ge")) == [
            "demo/gap: direction 'le' -> 'ge'"
        ]
        renamed = diff_reports(base, one_record_payload(name="other"))
        assert renamed[0] == "demo: records ['gap'] -> ['other']"

    def test_records_pair_by_name(self):
        old = suites_payload(("s", [("a", 1.0), ("b", 2.0)]))
        assert diff_reports(old, suites_payload(("s", [("x", 5.0), ("a", 1.0), ("b", 2.0)]))) == [
            "s: records ['a', 'b'] -> ['x', 'a', 'b']"
        ]
        assert diff_reports(old, suites_payload(("s", [("x", 5.0), ("a", 1.0), ("b", 3.0)]))) == [
            "s: records ['a', 'b'] -> ['x', 'a', 'b']", "s/b: measured 2.0 -> 3.0"
        ]

    def test_suites_pair_by_name(self):
        old = suites_payload(("s1", [("a", 1.0)]), ("s2", [("a", 2.0)]))
        assert diff_reports(old, suites_payload(("s2", [("a", 2.0)]))) == [
            "report: suites ['s1', 's2'] -> ['s2']"
        ]

    def test_cli_exit_codes(self, tmp_path, capsys):
        old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
        write_json(old, one_record_payload())
        write_json(new, one_record_payload())
        assert cli_main(["diff", old, new]) == 0
        assert "reports agree" in capsys.readouterr().out
        write_json(new, one_record_payload(measured=3.0, passed=False))
        assert cli_main(["diff", old, new]) == 1
        assert "demo/gap: passed True -> False" in capsys.readouterr().out
        assert cli_main(["diff", old, str(tmp_path / "absent.json")]) == 2
        assert cli_main(["diff", old, write_doc(tmp_path, passing_doc())]) == 2
        assert "not a report.json" in capsys.readouterr().err
