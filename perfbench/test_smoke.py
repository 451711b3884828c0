"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness gate counts a flipped verdict, a suite that raises (and
only that suite) and a report that is not byte-identical across passes, and that the benchmark fails without printing
a result when the rnsl sources are absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from rnsl import suites  # noqa: E402
from rnsl.errors import PowerIterationDiverged  # noqa: E402
from rnsl.reporting import CheckRecord, SuiteReport  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


@pytest.fixture
def workdir():
    path = run.WORK / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def tiny_workload(workdir: Path) -> list:
    """All three workloads' shapes at 4 atoms and one instance, cheap suites only."""
    wide, transform = workdir / "wide", workdir / "transform"
    wide.mkdir()
    transform.mkdir()
    return [
        *workloads.desk_reference(run.ROOT, suites=("rn_axioms", "yosida_convergence")),
        *workloads.generated(
            workloads.wide_semigroup_doc(
                SEED, atoms=4, dim=2, instances=1, suites=("semigroup_law", "lemma_4_10")
            ),
            wide,
        ),
        *workloads.generated(
            workloads.transform_inversion_doc(
                SEED, atoms=4, suites=("calculus_ftc", "uniqueness_3_6")
            ),
            transform,
        ),
    ]


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workdir, trace, section):
    invocations = tiny_workload(workdir)
    record = run.measure(invocations, SEED, 0.0, bool(trace), workdir)
    assert record["correct"], record["problems"]
    # warm-up, one untraced pass, and with tracing one traced pass
    passes = 2 + trace
    assert record["attempted"] == passes * sum(len(i.expected) for i in invocations)
    assert record["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in record["metrics"].items()}
    assert emitted == declared
    assert all(math.isfinite(e["value"]) for e in record["metrics"].values())
    if trace:
        assert (workdir / "spans.json").exists()
        assert record["metrics"]["rn.matrix_exp.calls"]["value"] > 0
        assert record["metrics"]["calculus.curve_evals"]["value"] > 0


def test_gate_counts_a_flipped_verdict(workdir, monkeypatch):
    def always_fails(scn):
        return SuiteReport("rn_axioms", [CheckRecord.le("forced", 1.0, 0.0, 0.0)])

    monkeypatch.setitem(suites.SUITES, "rn_axioms", always_fails)
    record = run.measure(tiny_workload(workdir), SEED, 0.0, False, workdir)
    assert not record["correct"]
    # the flipped suite fails in both passes; the wrong exit code fails its neighbour too
    assert record["failed"] == 2 * 2
    assert any("exit code 1, expected 0" in p for p in record["problems"])
    assert record["metrics"]["ops_ok_ratio"]["value"] < 1.0


def test_a_raising_suite_fails_alone(workdir, monkeypatch):
    def diverges(scn):
        raise PowerIterationDiverged("forced")

    monkeypatch.setitem(suites.SUITES, "lemma_4_10", diverges)
    invocations = tiny_workload(workdir)
    record = run.measure(invocations, SEED, 0.0, False, workdir)
    # one suite in each of two passes; the generated scenario's other suite still runs
    assert record["failed"] == 2
    assert record["attempted"] == 2 * sum(len(i.expected) for i in invocations)
    assert any("exit code 2, expected 0" in p for p in record["problems"])


def test_gate_counts_a_report_that_changes_between_passes(workdir, monkeypatch):
    def drifting(scn):
        return SuiteReport("rn_axioms", [CheckRecord.le("clock", time.perf_counter(), 1e300, 0.0)])

    monkeypatch.setitem(suites.SUITES, "rn_axioms", drifting)
    record = run.measure(tiny_workload(workdir), SEED, 0.0, False, workdir)
    assert not record["correct"]
    assert any("differs from the warm-up pass" in p for p in record["problems"])


def test_fails_without_result_outside_a_checkout(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", BENCHMARK["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
