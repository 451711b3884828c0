"""The kernel sweep tool runs its cases on a source tree and reports seconds per call."""

import importlib.util
from pathlib import Path

import pytest

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
        + ["make_matrix_semigroup", "random_commuting_pair"]
        + ["scenario_from_dict"] * 2
    )
    seconds = sweep.worker(str(ROOT / "src"))
    assert len(seconds) == len(kinds)
    assert all(s > 0.0 for s in seconds)


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
