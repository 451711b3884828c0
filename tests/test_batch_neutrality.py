"""Batch neutrality: a per-atom kernel gives each atom the same bits whatever the other atoms of the call."""

import json
from pathlib import Path

import numpy as np
import pytest

from rnsl import (
    EtaInSpectrum,
    ExponentialBound,
    L0Operator,
    L0Scalar,
    MaxPanelsExceeded,
    RnVector,
    c_resolvent_direct,
    check_injective,
    direct_value_problem,
    make_matrix_semigroup,
    make_space,
    resolvent_operator,
    rk4_oracle,
    scenario_from_dict,
    solve_acp,
    yosida_approximant,
)
from rnsl.instances import random_commuting_pair, rng_for
from rnsl.rn import block_norms, log_norm_bounds, spectral_norms
from rnsl.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent

SIZES = [(n, d) for n in (1, 64) for d in (1, 2, 4, 16)] + [(1024, 2)]
TIMES = (0.0, 0.25, 0.5)
ETA = 3.0  # above the generated spectra's largest rate, 0.5


def trajectory(traj):
    """States, residuals and graph norms, shape (times, atoms, d + 2)."""
    return np.concatenate([traj.states, traj.residuals[..., None], traj.graph_norms[..., None]], axis=-1)


KERNELS = {
    # each maps (A, C, bound, x, G) to an array with one entry per atom along
    # axis AXES.get(name, 0); G is a Gaussian, so non-normal, operator
    "solve_acp": lambda A, C, bound, x, G: trajectory(
        solve_acp(direct_value_problem(make_matrix_semigroup(A, C, bound), x, TIMES))
    ),
    "rk4_oracle": lambda A, C, bound, x, G: trajectory(rk4_oracle(A, x, C, TIMES, 0.1)),
    "log_norm_bounds": lambda A, C, bound, x, G: log_norm_bounds(G.matrices),
    "spectral_norms": lambda A, C, bound, x, G: spectral_norms(G.matrices),
    "block_norms": lambda A, C, bound, x, G: block_norms(hostile_rows(G)),
    "check_injective": lambda A, C, bound, x, G: gate(check_injective(G)),
    "resolvent_operator": lambda A, C, bound, x, G: resolvent_operator(A, C, ETA).matrices,
    "c_resolvent_direct": lambda A, C, bound, x, G: c_resolvent_direct(A, C, ETA, x).values,
    # a per-atom damping, as yosida_convergence's stacked eta grid has one per copy
    "yosida_approximant": lambda A, C, bound, x, G: yosida_approximant(
        A, C, L0Scalar.of(A.space, bound.xi.values + ETA), 1.0, x
    ).values,
}
AXES = {"solve_acp": 1, "rk4_oracle": 1}


def hostile_rows(G):
    """G's blocks as rows, about a third of them scaled to 1e-170 or 1e170, which the plain sum of squares cannot hold."""
    rows = G.matrices.reshape(len(G.matrices), -1)
    key = G.matrices[:, 0, 0]  # Gaussian: |key| > 0.97 on about a third of the atoms
    scale = np.where(np.abs(key) > 0.97, np.where(key > 0.0, 1e170, 1e-170), 1.0)
    return scale[:, None] * rows


def gate(report):
    return np.stack([report.min_sv_ratio, report.max_sv], axis=1)


def on_atoms(A, C, bound, x, G, atoms):
    """The inputs restricted to ``atoms``, on a space of their own."""
    sub = make_space(np.full(len(atoms), 1.0 / len(atoms)))
    return (
        L0Operator.of(sub, A.matrices[atoms]),
        L0Operator.of(sub, C.matrices[atoms]),
        ExponentialBound(L0Scalar.of(sub, bound.M.values[atoms]), L0Scalar.of(sub, bound.xi.values[atoms])),
        RnVector.of(sub, x.values[atoms]),
        L0Operator.of(sub, G.matrices[atoms]),
    )


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("n, d", SIZES)
def test_a_third_of_the_atoms_gets_the_bits_of_the_full_call(kernel, n, d):
    rng = rng_for(n * 100 + d, "batch-neutrality")
    space = make_space(np.full(n, 1.0 / n))
    A, C, bound = random_commuting_pair(rng, space, d)
    x = RnVector.of(space, rng.standard_normal((n, d)))
    G = L0Operator.of(space, rng.standard_normal((n, d, d)))
    atoms = rng.choice(n, max(1, n // 3), replace=False)
    full = KERNELS[kernel](A, C, bound, x, G)
    part = KERNELS[kernel](*on_atoms(A, C, bound, x, G, atoms))
    assert np.array_equal(np.take(full, atoms, axis=AXES.get(kernel, 0)), part)


def test_a_singular_damping_of_the_stacked_yosida_grid_names_the_scenario_atom():
    # atom 2 has the eigenvalue 20, the second damping: the stacked call first
    # fails on stacked atom 1 * 4 + 2 = 6, and the suite still names atom 2
    rates = [[-1.0, -0.5], [-2.0, -1.0], [20.0, -1.0], [-0.5, -0.25]]
    scn = scenario_from_dict({
        "space": {"probs": [0.1, 0.2, 0.3, 0.4]},
        "dim": 2,
        "operators": {"A": {"matrices": [np.diag(r).tolist() for r in rates]}, "C": {"matrix": np.eye(2).tolist()}},
        "bound": {"M": 1.0, "xi": 20.0},
        "eta_sequence": [10.0, 20.0, 40.0],
        "suites": ["yosida_convergence"],
    })
    with pytest.raises(EtaInSpectrum, match="on atom 2 ") as caught:
        SUITES["yosida_convergence"](scn)
    assert caught.value.atom == 2


def test_the_stacked_yosida_grid_reports_a_singular_damping_before_an_earlier_overflow():
    # at eta = 20.001 atom 0's exponent is about 4e5, so its exponential
    # overflows (NonFiniteValue, no atom); eta = 40 is atom 1's eigenvalue.
    # The stacked call checks every eta - A before any exponential.
    rates = [[20.0, -1.0], [40.0, -1.0]]
    scn = scenario_from_dict({
        "space": {"probs": [0.5, 0.5]},
        "dim": 2,
        "operators": {"A": {"matrices": [np.diag(r).tolist() for r in rates]}, "C": {"matrix": np.eye(2).tolist()}},
        "bound": {"M": 1.0, "xi": 40.0},
        "eta_sequence": [20.001, 40.0],
        "suites": ["yosida_convergence"],
    })
    with pytest.raises(EtaInSpectrum, match="on atom 1 ") as caught:
        SUITES["yosida_convergence"](scn)
    assert caught.value.atom == 1


def test_a_refused_tolerance_of_the_stacked_transforms_names_the_scenario_atom():
    # laplace_bound takes 20 curves on 20 copies of the scenario's 4 atoms; the
    # tolerance is first refused on stacked atom 6 * 4 + 1 = 25, which is atom 1
    doc = json.loads((ROOT / "scenarios" / "reference.json").read_text(encoding="utf-8"))
    doc["tolerances"] = {**doc.get("tolerances", {}), "laplace_bound": 2.2e-15}
    doc["suites"] = ["laplace_bound"]
    with pytest.raises(MaxPanelsExceeded, match=r"tolerance 5\.5e-16 on atom 1 is below") as caught:
        SUITES["laplace_bound"](scenario_from_dict(doc))
    assert caught.value.atom == 1
