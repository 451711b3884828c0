"""The kernel sweep tool runs its cases on a source tree and reports seconds per call."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rnsl
from rnsl.instances import inversion_test_family, oscillating_decay_specs

ROOT = Path(__file__).resolve().parent.parent


def load_sweep():
    spec = importlib.util.spec_from_file_location("kernel_sweep", ROOT / "tools" / "kernel_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_times_every_case(monkeypatch):
    sweep = load_sweep()
    monkeypatch.setattr(sweep, "ATOMS", (2,))
    monkeypatch.setattr(sweep, "DIMS", (1, 3))
    monkeypatch.setattr(sweep, "TIMES", (1, 4))
    monkeypatch.setattr(sweep, "SAMPLES", 1)
    monkeypatch.setattr(sweep, "SAMPLE_SECONDS", 0.0)
    kinds = [case["kernel"] for case in sweep.cases()]
    assert kinds == (
        ["matrix_exp_times"] * 4
        + ["op_norm"] * 2
        + ["make_matrix_semigroup", "random_commuting_pair", "hille_yosida_report", "abel_limit_check"]
        + ["c_resolvent_integral", "solve_acp", "rk4_oracle"]
        + ["make_matrix_semigroup"]
        + ["damped_weighted_integral"] * 2
        + ["scenario_from_dict"] * 2
        + ["LaplaceSpec", "laplace_transform"]
        + ["post_widder"] * 4
        + ["post_widder_ladder"] * 2
        + ["transforms_equal"] * 2
        + ["riemann_integral"] * 2
        + ["yosida_approximant"] * 4
    )
    assert [case["stacked"] for case in sweep.cases() if case["kernel"] == "yosida_approximant"] == [False, True] * 2
    assert [case["atoms"] for case in sweep.cases() if case["kernel"] == "post_widder"] == [1, 1, 2, 2]
    assert [case["atoms"] for case in sweep.cases() if case["kernel"] == "post_widder_ladder"] == [1, 64]
    assert [case["atoms"] for case in sweep.cases() if case["kernel"] == "transforms_equal"] == [1, 64]
    tree = sweep.load(str(ROOT / "src"))
    seconds = [sweep.best_time(sweep.case_call(tree, case)) for case in sweep.cases()]
    assert len(seconds) == len(kinds)
    assert all(s > 0.0 for s in seconds)


def test_sweep_times_both_trees_case_by_case(monkeypatch):
    sweep = load_sweep()
    todo = [
        {"kernel": "matrix_exp_times", "atoms": 2, "dim": 2, "times": 1},
        {"kernel": "op_norm", "atoms": 2, "dim": 1},
    ]
    monkeypatch.setattr(sweep, "cases", lambda: todo)
    monkeypatch.setattr(sweep, "ROUNDS", 3)
    src = str(ROOT / "src")
    out = sweep.sweep({"parent": src, "change": src})
    assert out["columns"] == ["parent", "change"] and out["rounds"] == 3
    assert [{k: row[k] for k in todo[i]} for i, row in enumerate(out["cases"])] == todo
    for row in out["cases"]:
        assert row["parent"] > 0.0 and row["change"] > 0.0
        low, high = row["round_ratios"]
        assert 0.0 < low <= high


@pytest.mark.parametrize("kernel, curves", [("laplace_transform", 20), ("post_widder", 3)])
def test_transform_cases_run_one_stacked_curve(kernel, curves):
    sweep = load_sweep()
    space = rnsl.make_space([0.25, 0.75])
    case = {"kernel": kernel, "atoms": 2, "dim": 2, "k": 64}
    stacked = sweep.transform_call(rnsl, space, case)()
    if kernel == "laplace_transform":
        specs = oscillating_decay_specs(np.random.default_rng(0), space, 2, n=sweep.TRANSFORM_CURVES)
        etas = [rnsl.L0Scalar.of(space, s.bound.xi.values + sweep.TRANSFORM_GAMMA) for s in specs]
        per_curve = [rnsl.laplace_transform(s, e, sweep.TRANSFORM_TOL) for s, e in zip(specs, etas)]
    else:
        specs = [spec for name, spec in inversion_test_family(space, 2) if name != "constant"]
        per_curve = [rnsl.post_widder(rnsl.provider_from_curve(s, 1e-11), 1.0, 64) for s in specs]
    assert len(per_curve) == curves
    np.testing.assert_allclose(
        stacked.values, np.concatenate([v.values for v in per_curve]), rtol=0.0, atol=1e-8
    )


def test_ladder_case_times_the_suite_points():
    sweep = load_sweep()
    space = rnsl.make_space([0.25, 0.75])
    approximants = sweep.transform_call(rnsl, space, {"kernel": "post_widder_ladder", "atoms": 2, "dim": 2})()
    specs = [spec for name, spec in inversion_test_family(space, 2) if name != "constant"]
    provider = rnsl.provider_from_curve(rnsl.stack_specs(specs), 1e-11)
    points = [(t, k) for k in (8, 64, 512, 1024) for t in (0.5, 1.0, 2.0)]
    assert len(approximants) == len(points) == 12
    for (t, k), got in zip(points, approximants):
        np.testing.assert_allclose(got.values, rnsl.post_widder(provider, t, k).values, rtol=1e-11, atol=0.0)


def test_transforms_equal_case_compares_two_family_members():
    sweep = load_sweep()
    space = rnsl.make_space([0.25, 0.75])
    report = sweep.transform_call(rnsl, space, {"kernel": "transforms_equal", "atoms": 2, "dim": 2})()
    family = dict(inversion_test_family(space, 2))
    expected = rnsl.transforms_equal(family["decay_1"], family["modulated"], (1.0, 2.0, 4.0, 8.0), 1e-6)
    assert report.gaps == expected.gaps and not report.equal


@pytest.mark.parametrize("trees", [
    ["change=src"],
    ["parent=src", "change=src", "third=src"],
    ["parent=src", "src"],
    ["same=src", "same=src"],
])
def test_exactly_two_labelled_trees(trees, capsys):
    sweep = load_sweep()
    with pytest.raises(SystemExit) as exc:
        sweep.main([arg for tree in trees for arg in ("--tree", tree)])
    assert exc.value.code == 2
    assert "exactly two trees" in capsys.readouterr().err


def test_yosida_case_stacks_the_five_calls():
    sweep = load_sweep()
    space = rnsl.make_space([0.25, 0.75])
    A = rnsl.L0Operator.of(space, [[[-1.0, 0.3], [0.0, -0.5]], [[-2.0, 0.0], [1.0, 0.25]]])
    C = rnsl.L0Operator.identity(space, 2)
    apart = sweep.yosida_call(rnsl, A, C, stacked=False)()
    stacked = sweep.yosida_call(rnsl, A, C, stacked=True)()
    assert len(apart) == len(sweep.ETA_SEQUENCE)
    np.testing.assert_array_equal(stacked.values, np.concatenate([v.values for v in apart]))
