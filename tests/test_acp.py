"""Initial value problems: trajectories, defect residuals, oracle agreement."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from rnsl import (
    AcpProblem,
    DimMismatch,
    EtaInSpectrum,
    ExponentialBound,
    L0Operator,
    NonFiniteValue,
    RnVector,
    SpaceMismatch,
    StepUnderflow,
    direct_value_problem,
    make_matrix_semigroup,
    make_space,
    op_apply,
    resolvent_seeded_problem,
    rk4_oracle,
    solve_acp,
)
from rnsl.acp import _trajectory
from rnsl.instances import random_commuting_pair, rng_for
from rnsl.rn import block_norms
from rnsl.reporting import write_json
from rnsl.scenario import scenario_from_dict
from rnsl.suites import SUITES, _columns, _scalar_reference


def scalar_contraction(space, rate=-1.0, c=1.0):
    A = L0Operator.of(space, [[[rate]]] * space.n_atoms)
    C = L0Operator.identity(space, 1).scale(c)
    bound = ExponentialBound.constant(space, abs(c), rate)
    return A, C, make_matrix_semigroup(A, C, bound)


def grid(n, end=1.0):
    return tuple(end * i / (n - 1) for i in range(n))


class TestSolveAcp:
    def test_scalar_decay_endpoint(self, space1):
        _, _, W = scalar_contraction(space1)
        v0 = RnVector.of(space1, [[1.0]])
        traj = solve_acp(direct_value_problem(W, v0, grid(21)))
        assert traj.states[-1, 0, 0] == pytest.approx(
            math.exp(-1.0), abs=1e-9
        )

    def test_initial_condition_is_cv0(self, space1):
        _, C, W = scalar_contraction(space1, c=2.0)
        v0 = RnVector.of(space1, [[1.5]])
        traj = solve_acp(direct_value_problem(W, v0, grid(5)))
        np.testing.assert_allclose(
            traj.states[0], op_apply(C, v0).values, atol=1e-14
        )

    def test_zero_generator_constant_trajectory(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.identity(space2, 2)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space2, 1.0, 0.0))
        v0 = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        traj = solve_acp(direct_value_problem(W, v0, grid(5)))
        for state in traj.states:
            np.testing.assert_allclose(state, v0.values, atol=1e-14)
        assert traj.max_interior_residual() <= 1e-12

    def test_resolvent_seeded_start(self, space1):
        _, C, W = scalar_contraction(space1, c=2.0)
        y0 = RnVector.of(space1, [[1.0]])
        p = resolvent_seeded_problem(W, 2.0, y0, grid(5))
        # v0 = (eta - a)^{-1} y0 = 1/3, so u0 = C v0 = (eta - a)^{-1} C y0 = 2/3.
        assert p.v0.values[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)
        traj = solve_acp(p)
        assert traj.states[0, 0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_seeded_start_never_inverts_an_ill_conditioned_c(self, space1):
        # A and C share the eigenbasis of a rotation by 0.3; C's condition number is 1e10
        q = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        a = q @ np.diag([-1.0, -2.0]) @ q.T
        c = q @ np.diag([1.0, 1e-10]) @ q.T
        A, C = L0Operator.of(space1, [a]), L0Operator.of(space1, [c])
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 1.0, -1.0))
        y0 = np.array([1.0, 1.0])
        p = resolvent_seeded_problem(W, 2.0, RnVector.of(space1, [y0]), grid(5))
        with mpmath.workdps(50):
            shift = 2 * mpmath.eye(2) - mpmath.matrix(a.tolist())
            v0 = mpmath.lu_solve(shift, mpmath.matrix(y0.tolist()))
            u0 = mpmath.matrix(c.tolist()) * v0
            want_v0 = np.array([float(v) for v in v0])
            want_u0 = np.array([float(u) for u in u0])
        np.testing.assert_allclose(p.v0.values[0], want_v0, rtol=1e-14)
        np.testing.assert_allclose(solve_acp(p).states[0, 0], want_u0, rtol=1e-14)

    def test_seeded_start_is_checked_before_any_solve(self, space2):
        _, _, W = scalar_contraction(space2)
        other = make_space([0.5, 0.5])
        # eta = -1 is A's eigenvalue: a solve would raise EtaInSpectrum
        with pytest.raises(SpaceMismatch, match="start vector lives on a different space"):
            resolvent_seeded_problem(W, -1.0, RnVector.of(other, [[1.0], [1.0]]), grid(5))
        with pytest.raises(DimMismatch, match="start vector has dim 2, expected 1"):
            resolvent_seeded_problem(W, -1.0, RnVector.of(space2, np.ones((2, 2))), grid(5))

    def test_seeded_eta_in_spectrum_raises_when_built(self, space2):
        _, _, W = scalar_contraction(space2)
        with pytest.raises(EtaInSpectrum, match="eta - A is numerically singular on atom 0"):
            resolvent_seeded_problem(W, -1.0, RnVector.of(space2, [[1.0], [1.0]]), grid(5))

    def test_one_sided_flags(self, space1):
        _, _, W = scalar_contraction(space1)
        traj = solve_acp(
            direct_value_problem(W, RnVector.of(space1, [[1.0]]), grid(6))
        )
        assert traj.one_sided[0] and traj.one_sided[-1]
        assert not any(traj.one_sided[1:-1])

    def test_graph_norm_values(self, space1):
        _, _, W = scalar_contraction(space1)
        traj = solve_acp(
            direct_value_problem(W, RnVector.of(space1, [[1.0]]), grid(5))
        )
        for t, g in zip(traj.times, traj.graph_norms):
            assert g[0] == pytest.approx(2.0 * math.exp(-t), rel=1e-10)

    def test_time_grid_validation(self, space1):
        _, _, W = scalar_contraction(space1)
        v0 = RnVector.of(space1, [[1.0]])
        with pytest.raises(ValueError):
            direct_value_problem(W, v0, [0.0])
        with pytest.raises(ValueError):
            direct_value_problem(W, v0, [0.5, 1.0])
        with pytest.raises(ValueError):
            direct_value_problem(W, v0, [0.0, 0.5, 0.5])

    def test_v0_is_required(self, space1):
        _, _, W = scalar_contraction(space1)
        with pytest.raises(TypeError):
            AcpProblem(W=W, times=(0.0, 1.0))


class TestRk4Oracle:
    def test_scalar_decay(self, space1):
        A, C, _ = scalar_contraction(space1)
        v0 = RnVector.of(space1, [[1.0]])
        traj = rk4_oracle(A, v0, C, grid(11), 1e-3)
        assert traj.states[-1, 0, 0] == pytest.approx(
            math.exp(-1.0), abs=1e-10
        )

    def test_zero_generator_exact(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.identity(space2, 2)
        v0 = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        traj = rk4_oracle(A, v0, C, grid(5), 1e-2)
        for state in traj.states:
            np.testing.assert_array_equal(state, v0.values)

    def test_nilpotent_polynomial_solution(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        C = L0Operator.identity(space1, 2)
        v0 = RnVector.of(space1, [[0.0, 1.0]])
        traj = rk4_oracle(A, v0, C, grid(5, end=2.0), 1e-3)
        np.testing.assert_allclose(
            traj.states[-1], [[2.0, 1.0]], atol=1e-10
        )

    def test_step_underflow(self, space1):
        A, C, _ = scalar_contraction(space1)
        with pytest.raises(StepUnderflow):
            rk4_oracle(A, RnVector.of(space1, [[1.0]]), C, grid(5), 1e-13)

    def test_one_power_per_distinct_step(self, monkeypatch):
        # the default 21-point grid and acp_5_1's step: 20 intervals, 5 distinct rounded steps
        space = make_space(np.full(16, 1.0 / 16))
        rng = rng_for(0, "rk4")
        A, C, _ = random_commuting_pair(rng, space, 4)
        v0 = RnVector.of(space, rng.uniform(-1.0, 1.0, (16, 4)))
        times, step = tuple(np.linspace(0.0, 1.0, 21)), 2e-3
        powers = []
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda P, n: powers.append(n) or matrix_power(P, n))
        got = rk4_oracle(A, v0, C, times, step)
        assert len(powers) == 5
        # the same P(hA)^n per interval, as one power per interval forms it
        eye, v = np.eye(4), [v0.values]
        for a, b in zip(times, times[1:]):
            n_sub = max(1, int(math.ceil((b - a) / step - 1e-12)))
            hA = ((b - a) / n_sub) * A.matrices
            P = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
            v.append(np.einsum("aij,aj->ai", matrix_power(P, n_sub), v[-1]))
        assert np.array_equal(got.states, np.einsum("aij,taj->tai", C.matrices, np.stack(v)))


class TestResidualsAndCsv:
    def test_residual_refinement_ratio(self, space1):
        _, _, W = scalar_contraction(space1)
        v0 = RnVector.of(space1, [[1.0]])
        coarse = solve_acp(direct_value_problem(W, v0, grid(21)))
        fine = solve_acp(direct_value_problem(W, v0, grid(41)))
        ratio = coarse.max_interior_residual() / fine.max_interior_residual()
        assert 3.2 <= ratio <= 4.8

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_residuals_scale_with_the_start_across_the_double_range(self, space1, scale):
        # u' = -u is linear, so the residuals scale with u(0); at 1e-160 the
        # squared gaps are subnormal and at 1e160 they overflow
        _, _, W = scalar_contraction(space1)
        plain, scaled = [
            [solve_acp(direct_value_problem(W, RnVector.of(space1, [[c]]), grid(n))) for n in (21, 41)]
            for c in (1.0, scale)
        ]
        for unit, run in zip(plain, scaled):
            interior = ~unit.one_sided
            np.testing.assert_allclose(run.residuals[interior], scale * unit.residuals[interior], rtol=1e-9)
        ratio = scaled[0].max_interior_residual() / scaled[1].max_interior_residual()
        assert ratio == pytest.approx(3.90, abs=0.005)

    def test_csv_rows_sorted_and_complete(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.identity(space2, 2)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space2, 1.0, 0.0))
        v0 = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        traj = solve_acp(direct_value_problem(W, v0, grid(3)))
        rows = traj.to_csv_rows()
        assert len(rows) == 3 * 2 * 2
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        t, atom, comp, u, resid, graph = rows[0]
        assert (t, atom, comp) == (0.0, 0, 0)
        assert u == pytest.approx(1.0, abs=1e-14)

    def test_graph_norm_continuity(self, space1):
        _, _, W = scalar_contraction(space1)
        v0 = RnVector.of(space1, [[1.0]])
        for n in (21, 41):
            traj = solve_acp(direct_value_problem(W, v0, grid(n)))
            dt = 1.0 / (n - 1)
            vals = [float(g.max()) for g in traj.graph_norms]
            gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
            # |d/dt (2 e^{-t})| <= 2, so the Lipschitz budget 2.2 dt holds.
            assert max(gaps) <= 2.2 * dt


class TestOracleAgreement:
    def test_randomized_problems(self):
        space = make_space([0.1, 0.2, 0.3, 0.4])
        rng = rng_for(17, "acp-tests")
        times = grid(9, end=2.0)
        for _ in range(10):
            A, C, bound = random_commuting_pair(rng, space, 2)
            W = make_matrix_semigroup(A, C, bound)
            v0 = RnVector.of(space, rng.uniform(-1, 1, (4, 2)))
            ours = solve_acp(direct_value_problem(W, v0, times))
            ref = rk4_oracle(A, v0, C, times, 2e-3)
            worst = max(
                block_norms(a - b).max()
                for a, b in zip(ours.states, ref.states)
            )
            assert worst <= 1e-6


def stage_rk4(A, v0, C, times, step):
    """Reference integrator in stage form: four einsums per substep."""
    v = v0.values.copy()
    states = [np.einsum("aij,aj->ai", C.matrices, v)]
    for a, b in zip(times, times[1:]):
        n_sub = max(1, int(math.ceil((b - a) / step - 1e-12)))
        h = (b - a) / n_sub
        for _ in range(n_sub):
            k1 = np.einsum("aij,aj->ai", A.matrices, v)
            k2 = np.einsum("aij,aj->ai", A.matrices, v + 0.5 * h * k1)
            k3 = np.einsum("aij,aj->ai", A.matrices, v + 0.5 * h * k2)
            k4 = np.einsum("aij,aj->ai", A.matrices, v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(np.einsum("aij,aj->ai", C.matrices, v))
    return np.stack(states)


BLOCK_KINDS = ("stiff", "jordan", "nilpotent", "random")


def block_family(kind, rng, n, d):
    """(n, d, d) generator blocks of one kind."""
    shift = np.eye(d, k=1)
    if kind == "stiff":
        # symmetric, eigenvalues in [-40, -1]: h |lambda| <= 0.4 at h = 0.01
        q, _ = np.linalg.qr(rng.normal(size=(n, d, d)))
        lam = -rng.uniform(1.0, 40.0, (n, d))
        lam[:, 0] = -40.0
        return np.einsum("aij,aj,akj->aik", q, lam, q)
    if kind == "jordan":
        return rng.uniform(-2.0, 1.0, (n, 1, 1)) * np.eye(d) + shift
    if kind == "nilpotent":
        return rng.uniform(0.5, 2.0, (n, 1, 1)) * shift
    return rng.normal(size=(n, d, d)) / math.sqrt(d)


class TestPolynomialRk4:
    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    @pytest.mark.parametrize("n", [1, 1024])
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_matches_stage_form(self, kind, n, d):
        rng = np.random.default_rng([n, d, BLOCK_KINDS.index(kind)])
        space = make_space(np.full(n, 1.0 / n))
        A = L0Operator.of(space, block_family(kind, rng, n, d))
        C = L0Operator.identity(space, d)
        v0 = RnVector.of(space, rng.uniform(-1.0, 1.0, (n, d)))
        times = grid(5)
        ours = rk4_oracle(A, v0, C, times, 0.01).states
        ref = stage_rk4(A, v0, C, times, 0.01)
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nilpotent_index_five_is_exact_taylor(self, space1):
        A = L0Operator.of(space1, [np.eye(5, k=1)])
        C = L0Operator.identity(space1, 5)
        v0 = RnVector.of(space1, [[0.0, 0.0, 0.0, 0.0, 1.0]])
        times = grid(5, end=2.0)
        traj = rk4_oracle(A, v0, C, times, 1e-3)
        # u_j(t) = t^(4-j) / (4-j)!
        exact = [[[t ** (4 - j) / math.factorial(4 - j) for j in range(5)]] for t in times]
        np.testing.assert_allclose(traj.states, exact, rtol=0.0, atol=1e-13)

    def test_overflow_is_reported_without_numpy_warnings(self, space1):
        A = L0Operator.of(space1, [[[800.0]]])
        C = L0Operator.identity(space1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteValue, match="vector coordinates must be finite"):
                rk4_oracle(A, RnVector.of(space1, [[1.0]]), C, grid(5, end=2.0), 2e-3)


class TestTrajectoryArrays:
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_residuals_and_graph_norms_match_per_time_loop(self, d):
        rng = np.random.default_rng(d)
        space = make_space(np.full(64, 1.0 / 64))
        A = L0Operator.of(space, rng.normal(size=(64, d, d)))
        times = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.05, 0.2, 8)]))
        u = rng.normal(size=(len(times), 64, d))
        traj = _trajectory(A, times, u)
        last = len(times) - 1
        for i in range(len(times)):
            lo, hi = max(i - 1, 0), min(i + 1, last)
            au = op_apply(A, RnVector.of(space, u[i])).values
            gap = (u[hi] - u[lo]) / (times[hi] - times[lo]) - au
            np.testing.assert_array_equal(traj.residuals[i], block_norms(gap))
            np.testing.assert_array_equal(
                traj.graph_norms[i], block_norms(u[i]) + block_norms(au)
            )
            assert traj.one_sided[i] == (i in (0, last))

    def test_arrays_are_read_only_with_documented_shapes(self, space2):
        A = L0Operator.of(space2, [[[-1.0, 0.5], [0.0, -2.0]]] * 2)
        C = L0Operator.identity(space2, 2)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space2, 2.0, -0.5))
        v0 = RnVector.of(space2, [[1.0, -1.0], [0.5, 2.0]])
        for traj in (
            solve_acp(direct_value_problem(W, v0, grid(7))),
            rk4_oracle(A, v0, C, grid(7), 1e-2),
        ):
            shapes = {"states": (7, 2, 2), "residuals": (7, 2), "one_sided": (7,), "graph_norms": (7, 2)}
            for name, shape in shapes.items():
                arr = getattr(traj, name)
                assert arr.shape == shape
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    @pytest.mark.parametrize("n", [1, 64, 1024])
    def test_derived_arrays_are_formed_on_first_read_and_kept(self, n):
        rng = np.random.default_rng(n)
        space = make_space(np.full(n, 1.0 / n))
        A = L0Operator.of(space, rng.normal(size=(n, 3, 3)))
        times = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.05, 0.2, 6)]))
        u = rng.normal(size=(len(times), n, 3))
        traj = _trajectory(A, times, u)
        derived = ("residuals", "one_sided", "graph_norms")
        assert not set(derived) & set(vars(traj))
        last = len(times) - 1
        lo, hi = [max(i - 1, 0) for i in range(last + 1)], [min(i + 1, last) for i in range(last + 1)]
        au = [op_apply(A, RnVector.of(space, row)).values for row in u]
        want = {
            "residuals": [block_norms((u[h] - u[l]) / (times[h] - times[l]) - a) for l, h, a in zip(lo, hi, au)],
            "one_sided": [i in (0, last) for i in range(last + 1)],
            "graph_norms": [block_norms(row) + block_norms(a) for row, a in zip(u, au)],
        }
        for name in derived:
            arr = getattr(traj, name)
            np.testing.assert_array_equal(arr, np.array(want[name]))
            assert not arr.flags.writeable
            assert getattr(traj, name) is arr
        assert not traj.states.flags.writeable

    @pytest.mark.parametrize("n", [1, 64, 1024])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_states_raise_at_construction(self, n, bad):
        space = make_space(np.full(n, 1.0 / n))
        u = np.ones((3, n, 2))
        u[1, n - 1, 1] = bad
        with pytest.raises(NonFiniteValue, match="vector coordinates must be finite"):
            _trajectory(L0Operator.identity(space, 2), (0.0, 0.5, 1.0), u)


class TestAtomConstantReference:
    """acp_5_1 runs its scalar reference v' = -v, C = I, on one atom.

    That is sound because the problem is the same on every atom: on any
    space, every atom holds the one-atom states, residuals and graph norms
    bit for bit, so each record's largest gap over the atoms is the one-atom
    gap, and the trajectory table holds the one-atom rows once, as atom 0.
    """

    @pytest.mark.parametrize("space", [make_space([0.1, 0.2, 0.3, 0.4]), make_space(np.full(64, 1.0 / 64))])
    def test_every_atom_holds_the_one_atom_run(self, space):
        runs = zip(_scalar_reference(make_space([1.0])), _scalar_reference(space))
        for (one, many), points in zip(runs, (21, 41, 11)):
            assert one.times == many.times and len(many.times) == points
            for name in ("states", "residuals", "graph_norms"):
                want, got = getattr(one, name), getattr(many, name)
                assert got.shape[1] == space.n_atoms
                np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))

    @pytest.mark.parametrize("atoms", [1, 4, 64])
    def test_the_table_holds_the_one_atom_rows_once(self, atoms, tmp_path):
        doc = {
            "space": {"probs": [1.0 / atoms] * atoms},
            "dim": 2,
            "operators": {"A": {"matrix": [[-1.0, 0.0], [0.0, -0.5]]}, "C": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
            "bound": {"M": 1.0, "xi": -0.5},
            "suites": ["acp_5_1"],
            "seed": 0,
            "instances": 2,
        }
        data = SUITES["acp_5_1"](scenario_from_dict(doc)).data
        coarse = _scalar_reference(make_space([1.0]))[0]
        one_atom = {"trajectory": _columns("acp_trajectory", coarse.to_csv_rows())}
        table = data["trajectory"]
        assert len(table["t"]) == 21 and table["atom"] == [0] * 21
        # the same bytes whatever the atom count
        for name, written in (("got", data), ("want", one_atom)):
            write_json(str(tmp_path / name), written)
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()

