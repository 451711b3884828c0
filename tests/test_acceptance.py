"""Acceptance gate: thirteen desk-scale checks, one printed verdict line each.

Desk configuration: 4-atom space with probabilities (0.1, 0.2, 0.3, 0.4),
module dimensions cycling through {1, 2, 4}, 200 randomized instances where
a count is stated.  Each check prints exactly one PASS/FAIL line.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rnsl import (
    CurveSampler,
    ExponentialBound,
    L0Operator,
    L0Scalar,
    LaplaceSpec,
    RnVector,
    abel_limit_check,
    c_resolvent_direct,
    c_resolvent_integral,
    direct_value_problem,
    evaluate,
    hille_yosida_report,
    l0_norm,
    laplace_derivative,
    laplace_transform,
    make_matrix_semigroup,
    make_space,
    op_apply,
    post_widder,
    provider_from_curve,
    resolvent_operator,
    riemann_integral,
    rk4_oracle,
    solve_acp,
    transforms_equal,
    vector_distance,
    yosida_approximant,
)
from rnsl.instances import (
    constant_transform_provider,
    oscillating_decay_specs,
    random_commuting_pair,
    rng_for,
    smooth_curve_family,
)
from rnsl.rn import block_norms

_T0 = time.monotonic()

SPACE = make_space([0.1, 0.2, 0.3, 0.4])
DIMS = (1, 2, 4)


_CAPFD = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Let verdict lines reach the terminal even under fd-level capture."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _decay_spec(space, n_atoms_dim=1):
    bound = ExponentialBound.constant(space, 1.0, -1.0)
    return LaplaceSpec(CurveSampler(
        space, 1, 0.0, math.inf,
        lambda s: RnVector.of(space, np.full((space.n_atoms, 1), math.exp(-s))),
        bound=bound,
    ))


def test_criterion_01_rn_axioms():
    rng = rng_for(101, "acceptance-rn-axioms")
    worst_hom = 0.0
    worst_tri = -math.inf
    zero_norm_implies_zero = True
    for i in range(200):
        d = DIMS[i % 3]
        x = RnVector.of(SPACE, rng.uniform(-2.0, 2.0, (4, d)))
        y = RnVector.of(SPACE, rng.uniform(-2.0, 2.0, (4, d)))
        zeta = L0Scalar.of(SPACE, rng.uniform(-2.0, 2.0, 4))
        nx, ny = l0_norm(x).values, l0_norm(y).values
        if np.any((nx == 0.0) & np.any(x.values != 0.0, axis=1)):
            zero_norm_implies_zero = False
        hom = np.abs(l0_norm(x.module_mul(zeta)).values - np.abs(zeta.values) * nx)
        worst_hom = max(worst_hom, float(hom.max()))
        tri = l0_norm(x + y).values - (nx + ny)
        worst_tri = max(worst_tri, float(tri.max()))
    zero = RnVector.zeros(SPACE, 2)
    zero_norm_implies_zero &= bool(np.all(l0_norm(zero).values == 0.0))
    ok = zero_norm_implies_zero and worst_hom <= 1e-12 and worst_tri <= 1e-12
    _report(
        1, ok,
        "Def 2.1 axioms on 200 triples: worst homogeneity gap "
        f"{worst_hom:.2e}, worst triangle excess {worst_tri:.2e} (tol 1e-12)",
    )


def test_criterion_02_calculus():
    rng = rng_for(102, "acceptance-calculus")
    tol = 1e-8
    worst_ftc = 0.0
    for i, (big_g, small_g) in enumerate(
        smooth_curve_family(rng, SPACE, 2, n=10)
    ):
        res = riemann_integral(small_g, 0.0, 2.0, tol)
        want = big_g(2.0).values - big_g(0.0).values
        worst_ftc = max(worst_ftc, float(np.abs(res.value.values - want).max()))
    probs = SPACE.probs
    worst_fub = 0.0
    for _, small_g in smooth_curve_family(rng, SPACE, 1, n=10):
        vec = riemann_integral(small_g, 0.0, 2.0, tol).value.values[:, 0]
        mean_curve = CurveSampler(
            SPACE, 1, 0.0, 2.0,
            lambda u: RnVector.of(
                SPACE, np.full((4, 1), float(probs @ small_g(u).values[:, 0]))
            ),
        )
        swapped = riemann_integral(mean_curve, 0.0, 2.0, tol).value.values[0, 0]
        worst_fub = max(worst_fub, abs(float(probs @ vec) - swapped))
    ok = worst_ftc <= 10 * tol and worst_fub <= 10 * tol
    _report(
        2, ok,
        f"calculus on 10 smooth curves: worst FTC gap {worst_ftc:.2e}, "
        f"worst expectation-exchange gap {worst_fub:.2e} (tol 1e-7)",
    )


SPECS_20 = None


def _admissible_specs():
    global SPECS_20
    if SPECS_20 is None:
        rng = rng_for(103, "acceptance-laplace-specs")
        SPECS_20 = oscillating_decay_specs(rng, SPACE, 2, n=20)
    return SPECS_20


def test_criterion_03_laplace_bound():
    gammas = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
    worst = -math.inf
    for spec in _admissible_specs():
        m = spec.bound.M.values
        xi = spec.bound.xi.values
        for g in gammas:
            eta = L0Scalar.of(SPACE, xi + g)
            norms = l0_norm(laplace_transform(spec, eta, 1e-9)).values
            worst = max(worst, float((norms - m / g).max()))
    ok = worst <= 1e-8
    _report(
        3, ok,
        "transform bound on 20 specs x 8 damping points: worst excess over "
        f"M/(eta-xi) is {worst:.2e} (tol 1e-8)",
    )


def test_criterion_04_derivative_formula():
    delta = 3e-4
    worst = 0.0
    for spec in _admissible_specs():
        xi = spec.bound.xi.values
        eta = L0Scalar.of(SPACE, xi + 2.0)
        analytic = laplace_derivative(spec, eta, 1, 1e-9)
        hp = laplace_transform(spec, eta + L0Scalar.constant(SPACE, delta), 1e-10)
        hm = laplace_transform(spec, eta - L0Scalar.constant(SPACE, delta), 1e-10)
        fd = (hp - hm).scale(1.0 / (2.0 * delta))
        worst = max(worst, vector_distance(analytic, fd, "locally_convex"))
    ok = worst <= 1e-6
    _report(
        4, ok,
        "analytic vs difference-quotient transform derivative on the same "
        f"20 specs: worst gap {worst:.2e} (tol 1e-6)",
    )


def test_criterion_05_inversion():
    spec = _decay_spec(SPACE)
    provider = provider_from_curve(spec, 1e-11)
    t = 1.0
    k64 = float(post_widder(provider, t, 64).values[0, 0])
    oracle64 = (64.0 / 65.0) ** 65
    pin_ok = abs(k64 - 0.365030) <= 1e-4 and abs(k64 - oracle64) <= 1e-6
    k512 = float(post_widder(provider, t, 512).values[0, 0])
    err512 = abs(k512 - math.exp(-1.0))
    errs = [
        abs(float(post_widder(provider, t, k).values[0, 0]) - math.exp(-1.0))
        for k in (8, 64, 512)
    ]
    decreasing = errs[0] > errs[1] > errs[2]
    x = RnVector.of(SPACE, [[1.0, -2.0], [0.5, 3.0], [2.0, 0.25], [-1.5, 1.0]])
    const = constant_transform_provider(x)
    worst_const = max(
        float(np.abs(post_widder(const, t, k).values - x.values).max())
        for k in range(1, 1025)
    )
    ok = pin_ok and err512 < 4e-4 and decreasing and worst_const <= 1e-12
    _report(
        5, ok,
        f"inversion of exp(-s): k=64 gives {k64:.6f} (pin 0.365030±1e-4), "
        f"k=512 error {err512:.2e} (<4e-4), errors along k=(8,64,512) "
        f"{'strictly decrease' if decreasing else 'fail to decrease'}, "
        f"constants exact to {worst_const:.1e} for every k <= 1024",
    )


def test_criterion_06_uniqueness():
    bound = ExponentialBound.constant(SPACE, 1.5, 0.0)

    def plain(s: float) -> RnVector:
        return RnVector.of(SPACE, np.full((4, 1), math.exp(-s)))

    def bumped(s: float) -> RnVector:
        extra = 0.1 * math.exp(-((s - 1.0) ** 2) / 0.02)
        return RnVector.of(SPACE, np.full((4, 1), math.exp(-s) + extra))

    spec1 = LaplaceSpec(CurveSampler(SPACE, 1, 0.0, math.inf, plain, bound=bound))
    spec2 = LaplaceSpec(CurveSampler(SPACE, 1, 0.0, math.inf, bumped, bound=bound))
    grid = [1.0, 2.0, 4.0, 8.0]
    same = transforms_equal(spec1, spec1, grid, 1e-6)
    diff = transforms_equal(spec1, spec2, grid, 1e-6)
    witness = float(diff.worst_eta.values.max())
    ok = same.equal and (not diff.equal) and diff.worst_gap > 1e-4
    _report(
        6, ok,
        f"transform equality: identical pair equal (gap {same.worst_gap:.1e}), "
        f"bump-perturbed pair flagged with witness eta={witness:g} and gap "
        f"{diff.worst_gap:.2e}",
    )


def test_criterion_07_composition_law():
    rng = rng_for(107, "acceptance-composition")
    worst_law = 0.0
    worst_zero = 0.0
    for i in range(200):
        d = DIMS[i % 3]
        A, C, bound = random_commuting_pair(rng, SPACE, d)
        W = make_matrix_semigroup(A, C, bound)
        x = RnVector.of(SPACE, rng.uniform(-1.0, 1.0, (4, d)))
        s, t = rng.uniform(0.0, 3.0, 2)
        lhs = op_apply(C, evaluate(W, float(s) + float(t), x))
        rhs = evaluate(W, float(t), evaluate(W, float(s), x))
        worst_law = max(worst_law, float(l0_norm(lhs - rhs).values.max()))
        zero_gap = l0_norm(evaluate(W, 0.0, x) - op_apply(C, x)).values.max()
        worst_zero = max(worst_zero, float(zero_gap))
    ok = worst_law <= 1e-9 and worst_zero <= 1e-9
    _report(
        7, ok,
        "composition law on 200 commuting pairs: worst C W(s+t) vs W(t)W(s) "
        f"gap {worst_law:.2e}, worst W(0) vs C gap {worst_zero:.2e} (tol 1e-9)",
    )


def test_criterion_08_resolvent_identities():
    rng = rng_for(108, "acceptance-resolvent")
    worst_route = 0.0
    worst_cx = 0.0
    for i in range(30):
        d = DIMS[i % 3]
        A, C, bound = random_commuting_pair(rng, SPACE, d)
        W = make_matrix_semigroup(A, C, bound)
        x = RnVector.of(SPACE, rng.uniform(-1.0, 1.0, (4, d)))
        eta = L0Scalar.of(SPACE, bound.xi.values + 2.0)
        integral = c_resolvent_integral(W, eta, x, 1e-8)
        direct = c_resolvent_direct(A, C, eta, x)
        worst_route = max(
            worst_route, float(l0_norm(integral - direct).values.max())
        )
        shifted = L0Operator.scaled_identity(SPACE, d, eta) - A
        back = op_apply(shifted, integral)
        worst_cx = max(
            worst_cx, float(l0_norm(back - op_apply(C, x)).values.max())
        )
    worst_eq5 = 0.0
    for i in range(200):
        d = DIMS[i % 3]
        A, C, bound = random_commuting_pair(rng, SPACE, d)
        xi_max = float(bound.xi.values.max())
        eta, mu = xi_max + 1.0, xi_max + 3.0
        r_eta = resolvent_operator(A, C, eta)
        r_mu = resolvent_operator(A, C, mu)
        gap = np.abs(
            ((r_eta @ C) - (r_mu @ C)).matrices
            - (r_mu @ r_eta).scale(mu - eta).matrices
        ).max()
        worst_eq5 = max(worst_eq5, float(gap))
    ok = worst_route <= 1e-6 and worst_cx <= 1e-6 and worst_eq5 <= 1e-8
    _report(
        8, ok,
        f"resolvent identities: route gap {worst_route:.2e} (tol 1e-6), "
        f"shift-recovers-Cx gap {worst_cx:.2e} (tol 1e-6), resolvent-equation "
        f"gap {worst_eq5:.2e} on 200 pairs (tol 1e-8)",
    )


def test_criterion_09_power_bound_ladder():
    rates = np.array([0.5, -1.0, -0.3, 0.2])
    A = L0Operator.of(SPACE, rates[:, None, None] * np.ones((4, 1, 1)))
    C = L0Operator.identity(SPACE, 1)
    bound = ExponentialBound(L0Scalar.one(SPACE), L0Scalar.of(SPACE, rates))
    good = hille_yosida_report(A, C, bound, [2.0, 4.0, 8.0, 16.0], n_max=8)
    worst_gap = max(
        abs(row.gap) for e in good.entries for row in e.power_rows
    )
    good_ok = good.passed and worst_gap <= 1e-9

    nil_space = make_space([1.0])
    An = L0Operator.of(nil_space, [[[0.0, 1.0], [0.0, 0.0]]])
    Cn = L0Operator.identity(nil_space, 2)
    bad_cert = ExponentialBound.constant(nil_space, 2.0, 0.0)
    bad = hille_yosida_report(An, Cn, bad_cert, [1.0], n_max=3)
    rows = bad.entries[0].power_rows
    measured = [float(r.norms.max()) for r in rows]
    closed = [
        (n + math.sqrt(n * n + 4.0)) / 2.0 for n in (1, 2, 3)
    ]  # shear powers: golden ratio, 1+sqrt(2), (3+sqrt(13))/2
    forms_ok = all(abs(m - c) <= 1e-9 for m, c in zip(measured, closed))
    bad_ok = (not bad.passed) and forms_ok and measured[1] > 2.0
    ok = good_ok and bad_ok
    _report(
        9, ok,
        "power-bound ladder: diagonal reference holds to gap "
        f"{worst_gap:.1e} for n <= 8 (tol 1e-9); nilpotent bad certificate "
        f"rejected with measured norms {measured[0]:.3f}, {measured[1]:.3f}, "
        f"{measured[2]:.3f} vs bound 2.0 (violation from n=2 on)",
    )


def test_criterion_10_bounded_surrogates():
    space1 = make_space([1.0])
    A = L0Operator.of(space1, [[[1.0]]])
    C = L0Operator.identity(space1, 1)
    x = RnVector.of(space1, [[1.0]])
    v10 = float(yosida_approximant(A, C, 10.0, 1.0, x).values[0, 0])
    v100 = float(yosida_approximant(A, C, 100.0, 1.0, x).values[0, 0])
    gap10 = abs(v10 - math.exp(10.0 / 9.0))
    gap100 = abs(v100 - math.exp(100.0 / 99.0))
    errs = [
        abs(float(yosida_approximant(A, C, e, 1.0, x).values[0, 0]) - math.e)
        for e in (10.0, 20.0, 40.0, 80.0, 160.0)
    ]
    mono = all(b < a for a, b in zip(errs, errs[1:]))
    ok = gap10 <= 1e-6 and gap100 <= 1e-6 and mono
    _report(
        10, ok,
        f"bounded surrogates at a=1: eta=10 gives {v10:.6f} "
        f"(closed-form gap {gap10:.1e}), eta=100 gives {v100:.6f} "
        f"(gap {gap100:.1e}), error to e {'decreases' if mono else 'stalls'} "
        "along eta=(10,20,40,80,160)",
    )


def test_criterion_11_abel_limit():
    space1 = make_space([1.0])
    A = L0Operator.of(space1, [[[0.5]]])
    C = L0Operator.identity(space1, 1)
    bound = ExponentialBound.constant(space1, 1.0, 0.5)
    x = RnVector.of(space1, [[1.0]])
    report = abel_limit_check(A, C, bound, x, [2.0, 4.0, 8.0, 16.0])
    want = (1.0 / 3.0, 1.0 / 7.0, 1.0 / 15.0, 1.0 / 31.0)
    worst = max(abs(g - w) for g, w in zip(report.max_gaps, want))
    ok = worst <= 1e-9 and report.decreasing and report.envelope_ok
    _report(
        11, ok,
        f"damped-limit gaps at a=0.5 match (1/3, 1/7, 1/15, 1/31) to "
        f"{worst:.1e} (tol 1e-9), decreasing with the 1/(eta-xi) envelope "
        "at slack 1.5",
    )


def test_criterion_12_initial_value_problems():
    rng = rng_for(112, "acceptance-ivp")
    times = tuple(2.0 * i / 8 for i in range(9))
    worst = 0.0
    for i in range(50):
        d = DIMS[i % 3]
        A, C, bound = random_commuting_pair(rng, SPACE, d)
        W = make_matrix_semigroup(A, C, bound)
        v0 = RnVector.of(SPACE, rng.uniform(-1.0, 1.0, (4, d)))
        ours = solve_acp(direct_value_problem(W, v0, times))
        ref = rk4_oracle(A, v0, C, times, 2e-3)
        worst = max(
            worst,
            max(
                float(block_norms(a - b).max())
                for a, b in zip(ours.states, ref.states)
            ),
        )
    space1 = make_space([1.0])
    As = L0Operator.of(space1, [[[-1.0]]])
    Cs = L0Operator.identity(space1, 1)
    Ws = make_matrix_semigroup(As, Cs, ExponentialBound.constant(space1, 1.0, -1.0))
    v0 = RnVector.of(space1, [[1.0]])
    grid21 = tuple(i / 20 for i in range(21))
    grid41 = tuple(i / 40 for i in range(41))
    coarse = solve_acp(direct_value_problem(Ws, v0, grid21))
    fine = solve_acp(direct_value_problem(Ws, v0, grid41))
    endpoint = float(coarse.states[-1, 0, 0])
    endpoint_ok = abs(endpoint - 0.367879) <= 1e-6
    ratio = coarse.max_interior_residual() / fine.max_interior_residual()
    ratio_ok = 3.2 <= ratio <= 4.8
    ok = worst <= 1e-6 and endpoint_ok and ratio_ok
    _report(
        12, ok,
        f"initial value problems: worst oracle gap {worst:.2e} over 50 "
        f"problems (tol 1e-6), scalar endpoint u(1)={endpoint:.6f} "
        f"(pin 0.367879±1e-6), residual refinement ratio {ratio:.3f} "
        "(window [3.2, 4.8])",
    )


def test_criterion_13_runner_determinism(tmp_path):
    passing = {
        "space": {"probs": [0.1, 0.2, 0.3, 0.4]},
        "dim": 2,
        "operators": {
            "A": {"matrix": [[-1.0, 0.3], [0.3, -0.5]]},
            "C": {"matrix": [[1.25, -0.075], [-0.075, 1.125]]},
        },
        "bound": {"M": 1.3, "xi": -0.359},
        "suites": ["rn_axioms", "semigroup_law"],
        "seed": 7,
        "instances": 25,
    }
    failing = {
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
    p_path = tmp_path / "passing.json"
    p_path.write_text(json.dumps(passing))
    f_path = tmp_path / "failing.json"
    f_path.write_text(json.dumps(failing))

    def run(path, out):
        return subprocess.run(
            [sys.executable, "-m", "rnsl", "run", str(path), "--out", str(out)],
            capture_output=True,
            text=True,
        )

    blobs = []
    codes = []
    for name in ("r1", "r2"):
        proc = run(p_path, tmp_path / name)
        codes.append(proc.returncode)
        blobs.append((tmp_path / name / "report.json").read_bytes())
    identical = blobs[0] == blobs[1]
    pass_code_ok = codes == [0, 0]
    fail_proc = run(f_path, tmp_path / "rf")
    fail_code_ok = fail_proc.returncode == 1
    ok = identical and pass_code_ok and fail_code_ok
    elapsed = time.monotonic() - _T0
    _report(
        13, ok,
        "runner: identical scenario+seed reruns are "
        f"{'byte-identical' if identical else 'NOT identical'}, exit codes "
        f"{codes[0]}/{codes[1]} on pass and {fail_proc.returncode} on fail "
        f"(acceptance wall time {elapsed:.1f}s)",
    )
