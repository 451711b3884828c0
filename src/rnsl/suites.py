"""Named check suites and the scenario runner.

Each suite measures one family of claims on seeded random instances or on
the scenario's configured operator pair, and returns records of the form
"measured vs bound at tolerance".  Suites draw their randomness from a
per-suite stream keyed by (seed, suite name), so running a subset of suites
never changes what the others see.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import os
import time
from typing import Callable, Sequence

import numpy as np

from .acp import Trajectory, direct_value_problem, resolvent_seeded_problem, rk4_oracle, solve_acp
from .calculus import CurveSampler, derivative, riemann_integral
from .errors import MissingSuiteData, UnknownSuite
from .instances import (
    constant_transform_provider,
    inversion_test_family,
    oscillating_decay_stack,
    random_commuting_pair,
    random_scalar,
    random_vector,
    rng_for,
    smooth_curve_family,
)
from .l0 import L0Scalar, ProbabilitySpace, by_copy, make_space, own_atoms, stacked_space
from .laplace import (
    LaplaceSpec,
    laplace_derivative,
    laplace_transform,
    post_widder,
    post_widder_points,
    provider_from_curve,
    stack_specs,
    transforms_equal,
)
from .reporting import (
    RECORDS_CSV_HEADER,
    CheckRecord,
    SuiteReport,
    records_csv_rows,
    report_payload,
    write_csv,
    write_json,
)
from .rn import (
    INJECTIVITY_THRESHOLD,
    ExponentialBound,
    L0Operator,
    RnVector,
    block_norms,
    l0_norm,
    matrix_exp,
    op_apply,
    vector_distance,
    worst_atom,
)
from .scenario import Scenario
from .semigroup import (
    ABEL_ENVELOPE_TOL,
    COMMUTE_TOL,
    _orbit_curve,
    abel_limit_check,
    c_resolvent_direct,
    c_resolvent_integral,
    evaluate,
    hille_yosida_report,
    make_matrix_semigroup,
    resolvent_operator,
)
from .semigroup import yosida_approximant

DEFAULT_OUT_DIR = "rnsl_out"
OUT_DIR_ENV = "RNSL_OUT"


class _Worst:
    """Largest per-atom gap over instances, and the atom it sits on.

    Only a strictly larger maximum replaces the running one, so the first
    instance to reach the largest gap supplies the atom.
    """

    def __init__(self, floor: float = 0.0):
        self.gap, self.atom = floor, 0

    def add(self, gaps: np.ndarray) -> None:
        if gaps.max() > self.gap:
            self.gap, self.atom = float(gaps.max()), worst_atom(gaps)

    def le(self, name: str, tol: float) -> CheckRecord:
        return CheckRecord.le(name, self.gap, 0.0, tol, self.atom)


# plot kind -> (suite, key of its data under the suite's data or None, columns)
PLOT_COLUMNS = {
    "post_widder_error_vs_k": ("post_widder", None, ("k", "error")),
    "yosida_error_vs_eta": ("yosida_convergence", None, ("eta", "error")),
    "b4_ladder": ("hille_yosida_4_11", None, ("eta", "n", "norm", "bound", "passed")),
    "acp_trajectory": (
        "acp_5_1", "trajectory", ("t", "atom", "component", "u", "residual", "graph_norm"),
    ),
}
PLOT_KINDS = tuple(PLOT_COLUMNS)


def _columns(kind: str, rows) -> dict:
    """Rows of a plot kind's table as one list per column."""
    rows = list(rows)
    return {c: [r[i] for r in rows] for i, c in enumerate(PLOT_COLUMNS[kind][2])}


def _suite_rn_axioms(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "rn_axioms")
    space, dim = scn.space, scn.dim
    tol = scn.tolerance("rn_axioms")
    hom, tri = _Worst(), _Worst()
    bad_definite = 0
    for _ in range(scn.instances):
        z = random_scalar(rng, space, -3.0, 3.0)
        x = random_vector(rng, space, dim, -3.0, 3.0)
        y = random_vector(rng, space, dim, -3.0, 3.0)
        hom.add(np.abs(
            l0_norm(x.module_mul(z)).values - np.abs(z.values) * l0_norm(x).values
        ))
        tri.add(l0_norm(x + y).values - l0_norm(x).values - l0_norm(y).values)
        mask = rng.random(space.n_atoms) < 0.5
        masked = RnVector.of(space, np.where(mask[:, None], 0.0, x.values))
        norms = l0_norm(masked).values
        alive = np.abs(masked.values).max(axis=1) > 0.0
        bad_definite += int(np.any(norms[mask] != 0.0))
        bad_definite += int(np.any(norms[alive] <= 0.0))
    records = [
        hom.le("absolute_homogeneity", tol),
        tri.le("triangle_inequality", tol),
        CheckRecord.le("definiteness_violations", float(bad_definite), 0.0, 0.0),
    ]
    return SuiteReport("rn_axioms", records)


def _suite_calculus_ftc(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "calculus_ftc")
    quad = scn.tolerance("quadrature")
    budget = scn.tolerance("calculus_ftc")
    members = smooth_curve_family(rng, scn.space, scn.dim, n=10)
    unit_space = make_space([1.0])
    probs = scn.space.probs
    ftc = _Worst()
    fub_gap = 0.0
    for big_g, small_g in members:
        result = riemann_integral(small_g, 0.0, 2.0, quad)
        ftc.add(l0_norm(result.value - (big_g(2.0) - big_g(0.0))).values)
        # order of expectation and integral must not matter
        expect_of_integral = float(probs @ result.value.values[:, 0])

        def mean_first(us: np.ndarray, small_g=small_g) -> np.ndarray:
            # one dot a time: the expectation of each value taken on its own
            firsts = small_g.sample(us)[:, :, 0]
            return np.array([probs @ row for row in firsts]).reshape(-1, 1, 1)

        mean_curve = CurveSampler.from_batch(unit_space, 1, 0.0, 2.0, mean_first)
        integral_of_expect = float(
            riemann_integral(mean_curve, 0.0, 2.0, quad).value.values[0, 0]
        )
        fub_gap = max(fub_gap, abs(expect_of_integral - integral_of_expect))
    records = [
        ftc.le("fundamental_theorem", budget),
        CheckRecord.le("expectation_commutes", fub_gap, 0.0, budget),
    ]
    return SuiteReport("calculus_ftc", records)


def _laplace_stack(scn: Scenario) -> LaplaceSpec:
    # shared between laplace_bound and lemma_3_4 so both see the same curves:
    # 20 of them, as one curve on 20 copies of the scenario's space
    rng = rng_for(scn.seed, "laplace_specs")
    return oscillating_decay_stack(rng, scn.space, scn.dim, n=20)


def _add_by_copy(worst: _Worst, n: int, *stacked: np.ndarray) -> None:
    """Add per-atom gaps on a stacked space copy by copy, each copy's arrays in turn.

    That is the order of a loop over the stacked curves, so the first curve
    to reach the largest gap still supplies the atom, an atom of one copy.
    """
    for copy in zip(*(by_copy(gaps, n) for gaps in stacked)):
        for gaps in copy:
            worst.add(gaps)


def _suite_laplace_bound(scn: Scenario) -> SuiteReport:
    tol = scn.tolerance("laplace_bound")
    excesses = []
    with own_atoms(scn.space.n_atoms):
        stack = _laplace_stack(scn)
        m = stack.bound.M.values
        xi = stack.bound.xi.values
        for gamma in scn.eta_grid:
            eta = L0Scalar.of(stack.space, xi + gamma)
            h = laplace_transform(stack, eta, tol / 4.0)
            excesses.append(l0_norm(h).values - m / gamma)
    excess = _Worst(-math.inf)
    _add_by_copy(excess, scn.space.n_atoms, *excesses)
    records = [excess.le("transform_bound", tol)]
    return SuiteReport("laplace_bound", records)


def _suite_lemma_3_4(scn: Scenario) -> SuiteReport:
    tol = scn.tolerance("lemma_3_4")
    delta = 3e-4
    gamma = scn.eta_grid[len(scn.eta_grid) // 2]
    with own_atoms(scn.space.n_atoms):
        stack = _laplace_stack(scn)
        xi = stack.bound.xi.values
        eta = L0Scalar.of(stack.space, xi + gamma)
        analytic = laplace_derivative(stack, eta, 1, 1e-10)
        plus = laplace_transform(stack, L0Scalar.of(stack.space, xi + gamma + delta), 1e-10)
        minus = laplace_transform(stack, L0Scalar.of(stack.space, xi + gamma - delta), 1e-10)
    fd = (plus - minus).scale(1.0 / (2.0 * delta))
    worst = _Worst()
    _add_by_copy(worst, scn.space.n_atoms, l0_norm(analytic - fd).values)
    records = [worst.le("first_derivative_fd", tol)]
    return SuiteReport("lemma_3_4", records)


def _gaps(approximants: list[RnVector], exact: list[np.ndarray]) -> np.ndarray:
    """Per point and atom, the norm of an approximant's gap to its exact values, in one block_norms call."""
    return block_norms(np.stack([a.values for a in approximants]) - np.stack(exact))


def _suite_post_widder(scn: Scenario) -> SuiteReport:
    const_tol = scn.tolerance("post_widder_constant")
    final_tol = scn.tolerance("post_widder_final")
    ks = tuple(sorted(set(scn.k_ladder)))
    times = (0.5, 1.0, 2.0)
    # the inversion family (and uniqueness_3_6's bump) is atom-constant: one
    # profile times one vector and one certificate on every atom, so each atom's
    # gap, and the locally_convex max over them, is the gap on one atom
    space = make_space([1.0])
    members = inversion_test_family(space, scn.dim)
    # exactness is a cancellation property of the inversion formula, so it is
    # measured with closed-form derivatives, orders up to 1024; they share no
    # panels, so each point is its own call
    constant = dict(members)["constant"].curve
    provider = constant_transform_provider(constant(1.0))
    points = [(t, k) for t in times for k in (*ks, 1024)]
    approx = [post_widder(provider, t, k) for t, k in points]
    err = float(_gaps(approx, [constant(t).values for t, _ in points]).max())
    records = [CheckRecord.le("constant_exact", err, 0.0, const_tol)]
    # the other members are inverted by quadrature, as one curve on stacked
    # copies of the space, every (t, k) on one panel set; copy j is member j
    quadrature = [(name, spec) for name, spec in members if name != "constant"]
    points = [(t, k) for k in ks for t in times]
    with own_atoms(space.n_atoms):
        stack = stack_specs([spec for _, spec in quadrature])
        approx = post_widder_points(provider_from_curve(stack, 1e-11), points)
    gaps = _gaps(approx, [stack.curve(t).values for t, _ in points])
    member_gaps = by_copy(gaps.T, space.n_atoms).max(axis=1)  # per member, its copy's largest gap
    plot_errors = None
    for (name, _), member in zip(quadrature, member_gaps.tolist()):
        distances = dict(zip(points, member))
        errors = {k: max(distances[t, k] for t in times) for k in ks}
        ratio = 0.0
        for lo, hi in zip(ks, ks[1:]):
            ratio = max(ratio, errors[hi] / max(errors[lo], 1e-300))
        records.append(CheckRecord.le(f"strict_decay_{name}", ratio, 1.0, 0.0))
        records.append(
            CheckRecord.le(f"final_error_{name}", errors[ks[-1]], 0.0, final_tol)
        )
        if name == "decay_1":
            plot_errors = [distances[1.0, k] for k in ks]
    data = {}
    if plot_errors is not None:
        data = {"member": "decay_1", "t": 1.0, "k": list(ks), "error": plot_errors}
    return SuiteReport("post_widder", records, data)


def _suite_uniqueness_3_6(scn: Scenario) -> SuiteReport:
    tol = scn.tolerance("uniqueness")
    floor = scn.tolerance("uniqueness_detection")
    grid = (1.0, 2.0, 4.0, 8.0)
    space = make_space([1.0])  # atom-constant curves, as in post_widder
    base = dict(inversion_test_family(space, scn.dim))
    twin = dict(inversion_test_family(space, scn.dim))
    same = transforms_equal(base["decay_1"], twin["decay_1"], grid, tol)

    coords = np.full(scn.dim, 1.0 / math.sqrt(scn.dim))
    x_t = RnVector.constant(space, coords).values.T.copy()

    def perturbed(s: np.ndarray) -> np.ndarray:  # in (times, dim, atoms) memory
        bump = np.exp(-s) + 0.1 * np.exp(-((s - 1.0) ** 2) / 0.02)
        return (bump[:, None, None] * x_t).transpose(0, 2, 1)

    pert_spec = LaplaceSpec(
        CurveSampler.from_batch(
            space, scn.dim, 0.0, math.inf, perturbed,
            bound=ExponentialBound.constant(space, 1.1, 0.0),
        )
    )
    differ = transforms_equal(base["decay_1"], pert_spec, grid, tol)
    records = [
        CheckRecord.le("identical_within_tol", same.worst_gap, 0.0, tol),
        CheckRecord.ge("perturbation_detected", differ.worst_gap, floor, 0.0),
    ]
    data = {
        "witness_eta": float(differ.worst_eta.values.max()),
        "gaps": [float(g) for g in differ.gaps],
    }
    return SuiteReport("uniqueness_3_6", records, data)


def _suite_semigroup_law(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "semigroup_law")
    tol = scn.tolerance("semigroup_law")
    law = _Worst()
    zero_gap = 0.0
    for _ in range(scn.instances):
        A, C, bound = random_commuting_pair(rng, scn.space, scn.dim)
        W = make_matrix_semigroup(A, C, bound)  # the law is checked on a validated family
        s, t = rng.uniform(0.0, 2.0, 2)
        x = random_vector(rng, scn.space, scn.dim, -2.0, 2.0).values
        w_st, w_t, w_s, w_0 = W.at([s + t, t, s, 0.0])
        lhs = np.einsum("aij,aj->ai", C.matrices, np.einsum("aij,aj->ai", w_st, x))
        rhs = np.einsum("aij,aj->ai", w_t, np.einsum("aij,aj->ai", w_s, x))
        law.add(block_norms(lhs - rhs))
        start = w_0 - C.matrices
        zero_gap = max(zero_gap, float(block_norms(start.reshape(len(start), -1)).max()))
    records = [
        law.le("composition_law", tol),
        CheckRecord.le("time_zero", zero_gap, 0.0, 1e-10),
    ]
    return SuiteReport("semigroup_law", records)


def _suite_lemma_4_6(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "lemma_4_6")
    quad = scn.tolerance("quadrature")
    tol = scn.tolerance("resolvent_route")
    count = max(5, scn.instances // 5)
    route, ident = _Worst(), _Worst()
    for i in range(count):
        A, C, bound = random_commuting_pair(rng, scn.space, scn.dim)
        W = make_matrix_semigroup(A, C, bound)
        x = random_vector(rng, scn.space, scn.dim, -1.0, 1.0)
        gamma = scn.eta_grid[i % len(scn.eta_grid)]
        eta = L0Scalar.of(scn.space, bound.xi.values + gamma)
        via_integral = c_resolvent_integral(W, eta, x, quad)
        via_solve = c_resolvent_direct(A, C, eta, x)
        route.add(l0_norm(via_integral - via_solve).values)
        ident.add(l0_norm(
            via_integral.module_mul(eta) - op_apply(A, via_integral) - op_apply(C, x)
        ).values)
    records = [
        route.le("route_agreement", tol),
        ident.le("transform_identity", tol),
    ]
    return SuiteReport("lemma_4_6", records)


def _suite_eq_5(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "eq_5")
    tol = scn.tolerance("eq_5")
    worst = _Worst()
    for i in range(scn.instances):
        A, C, bound = random_commuting_pair(rng, scn.space, scn.dim)
        top = float(bound.xi.values.max())
        g1 = scn.eta_grid[i % len(scn.eta_grid)]
        g2 = scn.eta_grid[(i + 1) % len(scn.eta_grid)]
        if g1 == g2:
            g2 = g1 + 1.0
        eta, mu = top + g1, top + g2
        r_eta = resolvent_operator(A, C, eta)
        r_mu = resolvent_operator(A, C, mu)
        lhs = (r_eta @ C).matrices - (r_mu @ C).matrices
        rhs = (mu - eta) * (r_mu @ r_eta).matrices
        worst.add(block_norms((lhs - rhs).reshape(len(lhs), -1)))
    records = [worst.le("resolvent_identity", tol)]
    return SuiteReport("eq_5", records)


def _suite_prop_4_3(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "prop_4_3")
    quad = scn.tolerance("quadrature")
    tol = scn.tolerance("prop_4_3")
    count = max(5, scn.instances // 10)
    deriv, integ = _Worst(), _Worst()
    lip_ratio = 1.0
    for _ in range(count):
        A, C, bound = random_commuting_pair(rng, scn.space, scn.dim)
        W = make_matrix_semigroup(A, C, bound)
        x = random_vector(rng, scn.space, scn.dim, -1.0, 1.0)
        orbit = _orbit_curve(W, x)
        t0 = 0.8
        slope = derivative(orbit, t0, 1e-3)
        w_t0 = W.operator_at(t0)
        front = op_apply(w_t0, op_apply(A, x))
        back = op_apply(A, op_apply(w_t0, x))
        deriv.add(np.maximum(
            l0_norm(slope - front).values, l0_norm(slope - back).values
        ))

        s0 = 1.2
        area = riemann_integral(orbit, 0.0, s0, quad).value
        integ.add(l0_norm(
            op_apply(A, area) - (evaluate(W, s0, x) - op_apply(C, x))
        ).values)

        def steepest(n: int) -> float:
            # the largest difference quotient of the smooth orbit s -> C C W(s) x
            ts = np.linspace(0.0, 2.0, n)
            vals = np.einsum("taij,aj->tai", W.at(ts), x.values)
            for _ in range(2):
                vals = np.einsum("aij,taj->tai", C.matrices, vals)
            return float(block_norms(np.diff(vals, axis=0)).max()) / (ts[1] - ts[0])

        coarse, fine = steepest(17), steepest(33)
        if coarse > 1e-12:
            lip_ratio = max(lip_ratio, fine / coarse)
    records = [
        deriv.le("derivative_identity", tol),
        integ.le("integral_identity", tol),
        CheckRecord.le("lipschitz_refinement", lip_ratio, 1.1, 0.0),
    ]
    return SuiteReport("prop_4_3", records)


def _suite_hille_yosida(scn: Scenario) -> SuiteReport:
    rep = hille_yosida_report(
        scn.A,
        scn.C,
        scn.bound,
        scn.eta_grid,
        n_max=8,
        b4_tol=scn.tolerance("b4"),
        route_tol=scn.tolerance("resolvent_route"),
        quad_tol=scn.tolerance("quadrature"),
    )
    records = [
        CheckRecord.le(
            "commutation", float(rep.commutation_gap.max()), 0.0, COMMUTE_TOL,
            worst_atom(rep.commutation_gap),
        )
    ]
    for entry in rep.entries:
        tag = format(float(entry.eta.values.max()), "g")
        records.append(
            CheckRecord.ge(
                f"invertible_eta_{tag}",
                float(entry.min_sv_ratio.min()),
                INJECTIVITY_THRESHOLD,
                0.0,
                worst_atom(-entry.min_sv_ratio),
            )
        )
        for row in entry.power_rows:
            records.append(
                CheckRecord.le(
                    f"b4_eta_{tag}_n_{row.n}", row.gap, 0.0, rep.b4_tol,
                    row.worst_atom,
                )
            )
        for row in entry.route_rows:
            records.append(
                CheckRecord.le(
                    f"route_eta_{tag}_n_{row.n}", row.gap, 0.0, rep.route_tol
                )
            )
    return SuiteReport("hille_yosida_4_11", records, _columns("b4_ladder", rep.b4_rows()))


def _suite_yosida_convergence(scn: Scenario) -> SuiteReport:
    spread_cap = scn.tolerance("yosida_rate_spread")
    t = scn.yosida_time
    n, m = scn.space.n_atoms, len(scn.eta_sequence)
    coords = np.full(scn.dim, 1.0 / math.sqrt(scn.dim))
    x = RnVector.constant(scn.space, coords)
    reference = op_apply(matrix_exp(scn.A, t) @ scn.C, x)
    # the eta sequence as one call on stacked copies of the space, eta constant
    # per copy; the kernels are batch-neutral, so copy j holds eta_j's approximant
    stack = stacked_space(scn.space, m)
    A, C = (L0Operator.of(stack, np.tile(op.matrices, (m, 1, 1))) for op in (scn.A, scn.C))
    etas = L0Scalar.of(stack, np.repeat(scn.eta_sequence, n))
    with own_atoms(n):
        approx = yosida_approximant(A, C, etas, t, RnVector.constant(stack, coords))
    errors = [
        vector_distance(RnVector.of(scn.space, copy), reference, "locally_convex")
        for copy in by_copy(approx.values, n)
    ]
    if errors[0] <= 1e-14:
        shrink = 0.0
        spread = 1.0
    else:
        shrink = errors[-1] / errors[0]
        q = [e * eta for e, eta in zip(errors, scn.eta_sequence)]
        spread = max(q) / max(min(q), 1e-300)
    records = [
        CheckRecord.le("error_decreases", shrink, 1.0, 0.0),
        CheckRecord.le("rate_spread", spread, spread_cap, 0.0),
    ]
    data = {"t": t, "eta": [float(e) for e in scn.eta_sequence], "error": errors}
    return SuiteReport("yosida_convergence", records, data)


def _suite_lemma_4_10(scn: Scenario) -> SuiteReport:
    coords = np.full(scn.dim, 1.0 / math.sqrt(scn.dim))
    x = RnVector.constant(scn.space, coords)
    rep = abel_limit_check(scn.A, scn.C, scn.bound, x, scn.eta_sequence)
    max_gaps = np.asarray(rep.max_gaps)
    worst_rise = float(np.diff(max_gaps).max()) if len(max_gaps) > 1 else 0.0
    over = rep.gaps[-1] - rep.envelope
    records = [
        CheckRecord.le("gaps_nonincreasing", worst_rise, 0.0, rep.rise_slack),
        CheckRecord.le(
            "rate_envelope", float(over.max()), 0.0, ABEL_ENVELOPE_TOL, worst_atom(over)
        ),
    ]
    data = {
        "eta": [float(e.values.max()) for e in rep.etas],
        "gap": [float(g) for g in rep.max_gaps],
    }
    return SuiteReport("lemma_4_10", records, data)


def _scalar_reference(space: ProbabilitySpace) -> tuple[Trajectory, Trajectory, Trajectory]:
    """v' = -v with C = I on ``space``: runs from 1 on 21 and 41 points of [0, 1], and from the resolvent at eta = 2 on 11."""
    A1 = L0Operator.from_diag(space, np.full(1, -1.0))
    C1 = L0Operator.identity(space, 1)
    W1 = make_matrix_semigroup(A1, C1, ExponentialBound.constant(space, 1.0, -1.0))
    ones = RnVector.constant(space, np.ones(1))
    coarse, fine = (
        solve_acp(direct_value_problem(W1, ones, tuple(np.linspace(0.0, 1.0, n)))) for n in (21, 41)
    )
    seeded = solve_acp(
        resolvent_seeded_problem(W1, 2.0, ones, tuple(np.linspace(0.0, 1.0, 11)))
    )
    return coarse, fine, seeded


def _suite_acp_5_1(scn: Scenario) -> SuiteReport:
    rng = rng_for(scn.seed, "acp_5_1")
    value_tol = scn.tolerance("acp_value")
    oracle_tol = scn.tolerance("acp_oracle")
    records = []

    # scalar reference v' = -v, u(1) = exp(-1), with a known residual order; the
    # problem is the same on every atom, so it runs on one atom, as post_widder does
    coarse, fine, seeded = _scalar_reference(make_space([1.0]))
    end_gap = float(np.abs(coarse.states[-1, :, 0] - math.exp(-1.0)).max())
    records.append(CheckRecord.le("scalar_endpoint", end_gap, 0.0, value_tol))
    ratio = coarse.max_interior_residual() / max(fine.max_interior_residual(), 1e-300)
    records.append(CheckRecord.ge("residual_order_low", ratio, 3.2, 0.0))
    records.append(CheckRecord.le("residual_order_high", ratio, 4.8, 0.0))

    flags = coarse.one_sided
    flag_errors = float((not flags[0]) + (not flags[-1]) + flags[1:-1].sum())
    records.append(CheckRecord.le("one_sided_flags", flag_errors, 0.0, 0.0))

    seed_gap = float(np.abs(seeded.states[0, :, 0] - 1.0 / 3.0).max())
    records.append(CheckRecord.le("seeded_start", seed_gap, 0.0, 1e-9))

    # randomized pairs against the independent fixed-step integrator
    count = min(scn.instances, 50)
    agree = _Worst()
    for _ in range(count):
        A, C, bound = random_commuting_pair(rng, scn.space, scn.dim)
        W = make_matrix_semigroup(A, C, bound)
        v0 = random_vector(rng, scn.space, scn.dim, -1.0, 1.0)
        traj = solve_acp(direct_value_problem(W, v0, scn.time_grid))
        check = rk4_oracle(A, v0, C, scn.time_grid, 2e-3)
        gaps = block_norms(traj.states - check.states)  # (times, atoms)
        # adding the times in turn keeps only the first time at the pair's largest gap
        agree.add(gaps[int(gaps.max(axis=1).argmax())])
    records.append(agree.le("oracle_agreement", oracle_tol))

    # the one-atom rows, atom 0: every atom of the scenario holds them bit for bit
    data = {"trajectory": _columns("acp_trajectory", coarse.to_csv_rows())}
    return SuiteReport("acp_5_1", records, data)


SUITES: dict[str, Callable[[Scenario], SuiteReport]] = {
    "rn_axioms": _suite_rn_axioms,
    "calculus_ftc": _suite_calculus_ftc,
    "laplace_bound": _suite_laplace_bound,
    "lemma_3_4": _suite_lemma_3_4,
    "post_widder": _suite_post_widder,
    "uniqueness_3_6": _suite_uniqueness_3_6,
    "semigroup_law": _suite_semigroup_law,
    "lemma_4_6": _suite_lemma_4_6,
    "eq_5": _suite_eq_5,
    "prop_4_3": _suite_prop_4_3,
    "hille_yosida_4_11": _suite_hille_yosida,
    "yosida_convergence": _suite_yosida_convergence,
    "lemma_4_10": _suite_lemma_4_10,
    "acp_5_1": _suite_acp_5_1,
}

SUITE_NAMES = tuple(SUITES)


def _check_suite_names(names: Sequence[str]) -> None:
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(
                f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}"
            )


def resolve_out_dir(cli_value: str | None, scn: Scenario) -> str:
    if cli_value:
        return cli_value
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    if scn.out_dir:
        return scn.out_dir
    return DEFAULT_OUT_DIR


def run_scenario(
    scn: Scenario,
    out_dir: str | None = None,
    suites: Sequence[str] | None = None,
    seed: int | None = None,
):
    """Run the requested suites and write report.json, CSVs, and meta.json.

    Returns (payload, passed, target_dir).  report.json depends only on the
    scenario content and the effective seed; wall-clock data goes to
    meta.json so reruns stay byte-identical.
    """
    requested = tuple(suites) if suites else scn.suites
    _check_suite_names(requested)
    effective = scn if seed is None else dataclasses.replace(scn, seed=int(seed))
    reports = []
    timings = {}
    for name in requested:
        started = time.perf_counter()
        reports.append(SUITES[name](effective))
        timings[name] = time.perf_counter() - started
    payload = report_payload(scn.digest, effective.seed, reports)
    target = resolve_out_dir(out_dir, scn)
    os.makedirs(target, exist_ok=True)
    report_bytes = write_json(os.path.join(target, "report.json"), payload)
    for rep in reports:
        write_csv(
            os.path.join(target, f"{rep.suite}.csv"),
            RECORDS_CSV_HEADER,
            records_csv_rows(rep.records),
        )
    meta = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "suites": list(requested),
        "wall_times": timings,
        "report_bytes": report_bytes,
    }
    write_json(os.path.join(target, "meta.json"), meta)
    return payload, payload["passed"], target


def _suite_data(report: dict, suite: str) -> dict:
    for entry in report.get("suites", ()):
        if entry.get("suite") == suite and entry.get("data"):
            return entry["data"]
    raise MissingSuiteData(
        f"the report holds no data from suite {suite!r}; rerun with it enabled"
    )


def emit_plot_data(report: dict, kind: str, out_path: str) -> None:
    """Write plot-ready CSV columns for one of the known plot kinds."""
    if kind not in PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {kind!r}")
    suite, key, columns = PLOT_COLUMNS[kind]
    data = _suite_data(report, suite)
    if key is not None:
        data = data[key]
    write_csv(out_path, columns, zip(*(data[c] for c in columns)))
