"""Module layer: vectors, operators, norms, injectivity, matrix exponentials."""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsl import (
    ExponentialBound,
    L0Operator,
    L0Scalar,
    NonFiniteValue,
    RnVector,
    SpaceMismatch,
    check_injective,
    l0_norm,
    make_space,
    matrix_exp,
    matrix_exp_times,
    op_apply,
    op_norm,
    vector_distance,
)
from rnsl.rn import (
    _THETA18,
    _expm_times,
    _squarings,
    spectral_norm_bounds,
    spectral_norms,
    worst_atom,
)
from rnsl.suites import _Worst

entries = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
).map(lambda v: 0.0 if abs(v) < 1e-100 else v)


def matrices(n_atoms: int, d: int):
    flat = st.lists(entries, min_size=n_atoms * d * d, max_size=n_atoms * d * d)
    return flat.map(lambda v: np.array(v).reshape(n_atoms, d, d))


def vectors(n_atoms: int, d: int):
    flat = st.lists(entries, min_size=n_atoms * d, max_size=n_atoms * d)
    return flat.map(lambda v: np.array(v).reshape(n_atoms, d))


class TestL0Norm:
    def test_three_four_five(self, space2):
        x = RnVector.from_components(
            [L0Scalar.of(space2, [3, 1]), L0Scalar.of(space2, [4, 0])]
        )
        np.testing.assert_allclose(l0_norm(x).values, [5, 1], rtol=0, atol=0)

    def test_zero_vector(self, space2):
        np.testing.assert_array_equal(
            l0_norm(RnVector.zeros(space2, 3)).values, [0, 0]
        )

    def test_module_scaling_scales_norm(self, space2):
        x = RnVector.from_components(
            [L0Scalar.of(space2, [3, 1]), L0Scalar.of(space2, [4, 0])]
        )
        zeta = L0Scalar.of(space2, [2, 3])
        np.testing.assert_allclose(
            l0_norm(x.module_mul(zeta)).values, [10, 3], rtol=1e-15
        )

    def test_vector_json_round_trip(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        doc = x.to_json()
        assert doc == {"components": [{"values": [1.0, 3.0]}, {"values": [2.0, 4.0]}]}
        back = RnVector.from_json(space2, doc)
        np.testing.assert_array_equal(back.values, x.values)

    def test_non_finite_rejected(self, space2):
        with pytest.raises(NonFiniteValue):
            RnVector.of(space2, [[np.nan, 0.0], [0.0, 0.0]])


class TestOpApply:
    def test_identity(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        out = op_apply(L0Operator.identity(space2, 2), x)
        np.testing.assert_array_equal(out.values, x.values)

    def test_per_atom_diagonals(self, space2):
        T = L0Operator.of(space2, [np.diag([2.0, 3.0]), np.diag([1.0, 1.0])])
        x = RnVector.of(space2, np.ones((2, 2)))
        out = op_apply(T, x)
        np.testing.assert_array_equal(out.values, [[2.0, 3.0], [1.0, 1.0]])

    def test_zero_operator(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        out = op_apply(L0Operator.zeros(space2, 2), x)
        np.testing.assert_array_equal(out.values, np.zeros((2, 2)))

    def test_space_mismatch(self, space2, space4):
        with pytest.raises(SpaceMismatch):
            op_apply(L0Operator.identity(space2, 2), RnVector.zeros(space4, 2))

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 2), (1024, 16)])
    def test_from_diag_equals_per_atom_diagonals(self, n, d):
        space = make_space(np.full(n, 1.0 / n))
        diag = np.random.default_rng([n, d]).normal(size=(n, d))
        expected = np.stack([np.diag(row) for row in diag])
        np.testing.assert_array_equal(L0Operator.from_diag(space, diag).matrices, expected)
        np.testing.assert_array_equal(
            L0Operator.from_diag(space, diag[0]).matrices, np.repeat(expected[:1], n, axis=0)
        )

    def test_operator_json_round_trip(self, space2):
        T = L0Operator.of(space2, [np.diag([2.0, 3.0]), np.eye(2)])
        doc = T.to_json()
        assert doc["matrices"][0] == [[2.0, 0.0], [0.0, 3.0]]
        back = L0Operator.from_json(space2, doc)
        np.testing.assert_array_equal(back.matrices, T.matrices)


class TestOpNorm:
    def test_diagonal(self, space2):
        T = L0Operator.of(space2, [np.diag([2.0, 3.0]), np.diag([1.0, 1.0])])
        np.testing.assert_allclose(op_norm(T).values, [3.0, 1.0], rtol=1e-12)

    def test_identity(self, space2):
        np.testing.assert_allclose(
            op_norm(L0Operator.identity(space2, 3)).values, [1.0, 1.0], rtol=1e-12
        )

    def test_nilpotent_shift(self, space1):
        T = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        np.testing.assert_allclose(op_norm(T).values, [1.0], rtol=1e-12)

    def test_zero_operator(self, space2):
        np.testing.assert_array_equal(op_norm(L0Operator.zeros(space2, 2)).values, [0, 0])

    def test_matches_svd_on_random_matrices(self, rng):
        # oracle: LAPACK's SVD, which op_norm's Gram eigenvalues do not use
        def oracle(mats):
            return np.linalg.svd(mats, compute_uv=False)[:, 0]

        cases = [rng.normal(size=(3, 4, 4)) for _ in range(50)]
        cases += [
            rng.normal(size=(1, 1, 1)),
            rng.normal(size=(64, 1, 1)),
            rng.normal(size=(64, 2, 2)),
            rng.normal(size=(1024, 4, 4)),
            rng.normal(size=(8, 16, 16)),
            np.stack([
                np.triu(rng.normal(size=(4, 4)), k=1),  # nilpotent
                np.zeros((4, 4)),
                1e150 * rng.normal(size=(4, 4)),
            ]),
        ]
        cases += [scale * rng.normal(size=(16, d, d)) for scale in (1e200, 1e-200) for d in (1, 2, 4, 16)]
        for mats in cases:
            n = mats.shape[0]
            T = L0Operator.of(make_space(np.full(n, 1.0 / n)), mats)
            np.testing.assert_allclose(op_norm(T).values, oracle(mats), rtol=1e-10)

    def test_repeated_singular_values(self, space1):
        q = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        mats = [q @ np.diag([2.0, 2.0, 1.0]) @ q.T]
        T = L0Operator.of(space1, mats)
        np.testing.assert_allclose(op_norm(T).values, [2.0], rtol=1e-10)


def bound_test_stacks(rng, d: int) -> list:
    """Random, rank-one and (d >= 1) hostile blocks, plain and scaled by 1e+-200."""
    stacks = [rng.normal(size=(64, d, d)), rng.normal(size=(8, 64, d, d))]
    x, y = rng.normal(size=(2, 64, d))
    stacks.append(x[:, :, None] * y[:, None, :])  # one singular value: the bound is tightest
    if d >= 1:
        stacks.append(hostile_blocks(rng, d))
    return [scale * m for m in stacks for scale in (1.0, 1e200, 1e-200)]


class TestSpectralNormBounds:
    @pytest.mark.parametrize("d", [0, 1, 2, 4, 16, 64])
    def test_never_below_the_svd_or_the_gram_norm(self, rng, d):
        for mats in bound_test_stacks(rng, d):
            bounds, norms = spectral_norm_bounds(mats), spectral_norms(mats)
            assert bounds.shape == mats.shape[:-2] and np.isfinite(bounds).all()
            assert (bounds >= norms).all()
            # G^8 has Frobenius norm at most sqrt(d) lambda_max^8, so the bound is useful
            assert (bounds <= max(d, 1) ** (1 / 32) * norms * (1.0 + 1e-10)).all()
            if d:
                assert (bounds >= np.linalg.svd(mats, compute_uv=False)[..., 0]).all()
            zero = np.abs(mats).max(axis=(-2, -1), initial=0.0) == 0.0
            assert (bounds[zero] == 0.0).all()

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_exact_norms_do_not_depend_on_the_other_blocks(self, rng, d):
        # the growth gate takes exact norms of the blocks its bounds leave open
        for mats in bound_test_stacks(rng, d):
            some = rng.random(mats.shape[:-2]) < 0.3
            assert np.array_equal(spectral_norms(mats)[some], spectral_norms(mats[some]))


class TestCheckInjective:
    def test_identity(self, space2):
        report = check_injective(L0Operator.identity(space2, 2))
        assert report.injective
        assert report.witness_atom is None

    def test_zero_column_names_witness(self, space2):
        mats = [np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]])]
        report = check_injective(L0Operator.of(space2, mats))
        assert not report.injective
        assert report.witness_atom == 1

    def test_small_but_clear_ratio(self, space1):
        report = check_injective(L0Operator.of(space1, [np.diag([1e-6, 1.0])]))
        assert report.injective
        assert report.min_sv_ratio[0] == pytest.approx(1e-6, rel=1e-9)

    def test_zero_dimension_is_injective_with_norm_zero(self, space2):
        T = L0Operator.zeros(space2, 0)
        report = check_injective(T)
        assert report.injective
        assert report.witness_atom is None
        np.testing.assert_array_equal(report.min_sv_ratio, [1.0, 1.0])
        np.testing.assert_array_equal(op_norm(T).values, [0.0, 0.0])


class TestMatrixExp:
    def test_zero_generator(self, space2):
        out = matrix_exp(L0Operator.zeros(space2, 3), 5.0)
        np.testing.assert_allclose(
            out.matrices, np.tile(np.eye(3), (2, 1, 1)), atol=1e-15
        )

    def test_diagonal(self, space2):
        A = L0Operator.of(space2, [np.diag([0.5, -1.0]), np.diag([2.0, 0.0])])
        out = matrix_exp(A, 2.0)
        want = [np.diag(np.exp([1.0, -2.0])), np.diag(np.exp([4.0, 0.0]))]
        np.testing.assert_allclose(out.matrices, want, rtol=1e-13)

    def test_nilpotent_truncates(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        out = matrix_exp(A, 2.0)
        np.testing.assert_allclose(
            out.matrices[0], [[1.0, 2.0], [0.0, 1.0]], atol=1e-15
        )

    def test_matches_scipy_on_random_matrices(self, rng):
        space = make_space([0.5, 0.5])
        for _ in range(25):
            mats = rng.normal(size=(2, 5, 5))
            t = float(rng.uniform(0.1, 2.0))
            ours = matrix_exp(L0Operator.of(space, mats), t).matrices
            for a in range(2):
                want = scipy.linalg.expm(t * mats[a])
                np.testing.assert_allclose(ours[a], want, rtol=1e-11, atol=1e-11)

    def test_one_parameter_group_law(self, rng):
        space = make_space([1.0])
        for _ in range(20):
            m = rng.normal(size=(1, 4, 4))
            m *= 3.0 / max(1.0, np.abs(m).sum())
            A = L0Operator.of(space, m)
            left = (matrix_exp(A, 1.3) @ matrix_exp(A, 0.9)).matrices
            right = matrix_exp(A, 2.2).matrices
            assert np.linalg.norm(left - right) <= 1e-10


def hostile_blocks(rng, d: int) -> np.ndarray:
    """Stiff, defective, nilpotent, tiny and large blocks of size d.

    Their 1-norms run from about 1e-3 to far past theta_18, so one stack
    mixes scaling exponents from 0 to about 10.  The large blocks are
    skew-symmetric and symmetric, whose exponentials are well conditioned.
    """
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    g = rng.normal(size=(d, d))
    stiff = q @ np.diag(np.concatenate([[-1000.0], rng.uniform(-1.0, 0.5, d - 1)])) @ q.T
    jordan = -0.5 * np.eye(d) + np.eye(d, k=1)
    nilpotent = np.triu(rng.normal(size=(d, d)), 1)
    return np.stack([
        stiff,
        np.diag(rng.uniform(-50.0, 1.0, d)),
        jordan,
        nilpotent,
        40.0 * (g - g.T) + 300.0 * np.eye(d, k=-1) - 300.0 * np.eye(d, k=1),
        -20.0 * (g @ g.T) + 30.0 * np.eye(d),
        1e-3 * rng.normal(size=(d, d)),
        np.zeros((d, d)),
    ])


def assert_close_to_expm(ours: np.ndarray, m: np.ndarray) -> None:
    want = scipy.linalg.expm(m)
    assert np.linalg.norm(ours - want) <= 1e-12 * np.linalg.norm(want)


class TestStackedExp:
    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_stack_is_bitwise_the_one_matrix_stacks(self, rng, d):
        stack = hostile_blocks(rng, d)
        norms = np.abs(stack).sum(axis=1).max(axis=1)
        assert norms.min() < _THETA18 < 100.0 * _THETA18 < norms.max()
        ts = np.array([1.0, -0.3, 0.0])
        out = _expm_times(stack, ts)
        for i, m in enumerate(stack):
            assert np.array_equal(out[:, i], _expm_times(stack[i : i + 1], ts)[:, 0])
            for j in range(len(ts)):
                assert np.array_equal(out[j, i], _expm_times(stack[i : i + 1], ts[j : j + 1])[0, 0])
            assert_close_to_expm(out[0, i], m)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_50_digit_expm_at_every_time(self, rng, d):
        # scipy's expm is itself off by up to 6e-12 on these blocks at t = -0.3
        stack = hostile_blocks(rng, d)
        ts = [1.0, -0.3, 2.5]
        out = _expm_times(stack, np.array(ts))
        with mpmath.workdps(50):
            for j, t in enumerate(ts):
                for i, m in enumerate(stack):
                    exact = mpmath.expm(mpmath.mpf(t) * mpmath.matrix(m.tolist()))
                    want = np.array(exact.tolist(), dtype=float)
                    assert np.linalg.norm(out[j, i] - want) <= 1e-12 * np.linalg.norm(want)

    def test_theta_is_the_double_precision_taylor_bound(self):
        assert _THETA18 == scipy.sparse.linalg._expm_multiply._theta[18]

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_each_time_is_squared_the_least_scaling_exponent(self, rng, d):
        stack = hostile_blocks(rng, d)
        nu = np.abs(stack).sum(axis=1).max(axis=1)
        stack, nu = stack[nu > 0.0], nu[nu > 0.0]  # a zero block needs no squaring
        # times on both sides of each squaring boundary |t| nu = theta_18 2^j
        edges = _THETA18 * 2.0 ** np.arange(-2, 9) / nu[:, None]
        ts = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)], axis=1)
        for a, m in enumerate(stack):
            for t in np.concatenate([ts[a], -ts[a, ::7]]):
                s = 0
                while abs(t) * nu[a] / 2.0**s > _THETA18:
                    s += 1
                assert _squarings(np.array([abs(t) * nu[a]]))[0] == s
                # exp(tM) is exactly s squarings of exp(t M / 2^s), which needs none
                f = _expm_times(m[None], np.array([t / 2.0**s]))[0, 0]
                for _ in range(s):
                    f = f @ f
                assert np.array_equal(f, _expm_times(m[None], np.array([t]))[0, 0])

    def test_no_linear_solve(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exponential must not solve a linear system")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        A = L0Operator.of(make_space([0.5, 0.5]), hostile_blocks(rng, 4)[[0, 4]])
        assert np.isfinite(matrix_exp_times(A, [0.0, 0.5, 2.0])).all()

    @pytest.mark.parametrize("n_atoms, d", [(1, 1), (1, 16), (1024, 1), (1024, 4), (64, 16)])
    def test_time_axis_matches_scipy_and_single_times(self, rng, n_atoms, d):
        # symmetric and skew-symmetric blocks, whose exponentials are well conditioned
        g = rng.normal(size=(n_atoms, d, d))
        sign = np.where(np.arange(n_atoms) % 2, 1.0, -1.0)[:, None, None]
        scale = rng.choice([1e-3, 1.0, 5.0], (n_atoms, 1, 1)) / np.sqrt(d)
        mats = (g + sign * np.swapaxes(g, 1, 2)) * scale
        A = L0Operator.of(make_space(np.full(n_atoms, 1.0 / n_atoms)), mats)
        ts = [0.0, 0.7, 3.0]
        out = matrix_exp_times(A, ts)
        assert out.shape == (len(ts), n_atoms, d, d)
        np.testing.assert_allclose(out[0], np.broadcast_to(np.eye(d), out[0].shape), atol=1e-15)
        for i, t in enumerate(ts):
            assert np.array_equal(out[i], matrix_exp(A, t).matrices)
        for a in range(0, n_atoms, max(1, n_atoms // 64)):
            assert_close_to_expm(out[2, a], 3.0 * mats[a])

    def test_empty_time_axis_and_empty_blocks(self, space2):
        A = L0Operator.of(space2, np.ones((2, 3, 3)))
        assert matrix_exp_times(A, []).shape == (0, 2, 3, 3)
        assert matrix_exp(L0Operator.zeros(space2, 0), 1.0).matrices.shape == (2, 0, 0)

    def test_overflow_raises_without_warning(self, space2):
        A = L0Operator.of(space2, [[[1.0]], [[1000.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                matrix_exp_times(A, [0.0, 1.0])
            with pytest.raises(NonFiniteValue):
                matrix_exp(A, 1.0)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, space2, t):
        A = L0Operator.zeros(space2, 2)
        with pytest.raises(NonFiniteValue, match="time must be finite"):
            matrix_exp_times(A, [0.0, t])
        with pytest.raises(NonFiniteValue, match="time must be finite"):
            matrix_exp(A, t)


class TestWorstAtom:
    def test_last_ulp_tie_picks_the_lowest_atom(self):
        assert worst_atom([1.0, 1.0 + 2.2e-16]) == 0
        assert worst_atom([-1e-17, 3e-17, 1e-16, -5.0]) == 0

    def test_a_clear_maximum_wins(self):
        assert worst_atom([0.0, 1.0, 0.5]) == 1
        assert worst_atom([1.0, 1.0 + 4e-12, 1.0 + 4e-12]) == 1
        assert worst_atom([1e6, 1e6 * (1 + 1e-11)]) == 1

    def test_tolerance_scales_with_the_maximum(self):
        assert worst_atom([1e6, 1e6 + 1e-7]) == 0
        assert worst_atom([1e-3, 1e-3 + 2e-12]) == 1

    def test_non_finite_maximum_is_its_own_atom(self):
        assert worst_atom([1.0, np.inf, np.inf]) == 1
        assert worst_atom([-np.inf, -np.inf]) == 0

    def test_first_instance_to_reach_the_largest_gap_names_the_atom(self):
        worst = _Worst()
        for gaps in ([0.5, 2.0, 0.0], [2.0, 0.0, 1.0], [1.0, 1.5, 1.9]):
            worst.add(np.array(gaps))
        record = worst.le("gap", 0.0)
        assert (record.measured, record.worst_atom) == (2.0, 1)

    def test_worst_gap_floor(self):
        assert (_Worst().gap, _Worst().atom) == (0.0, 0)
        negative = _Worst(-np.inf)
        negative.add(np.array([-3.0, -2.0]))
        assert (negative.gap, negative.atom) == (-2.0, 1)
        clipped = _Worst()
        clipped.add(np.array([-3.0, -2.0]))
        assert (clipped.gap, clipped.atom) == (0.0, 0)


class TestExponentialBound:
    def test_envelope(self, space2):
        b = ExponentialBound.constant(space2, 2.0, -1.0)
        np.testing.assert_allclose(b.envelope(1.0), 2.0 * np.exp(-1.0))

    def test_negative_m_rejected(self, space2):
        with pytest.raises(NonFiniteValue):
            ExponentialBound.constant(space2, -1.0, 0.0)

    def test_space_mismatch(self, space2, space4):
        with pytest.raises(SpaceMismatch):
            ExponentialBound(L0Scalar.one(space2), L0Scalar.zero(space4))


@settings(max_examples=50, deadline=None)
@given(vals=vectors(2, 3), zeta=st.lists(entries, min_size=2, max_size=2))
def test_norm_axioms(vals, zeta):
    space = make_space([0.3, 0.7])
    x = RnVector.of(space, vals)
    norms = l0_norm(x).values
    assert (norms >= 0).all()
    if np.all(norms == 0.0):
        assert np.all(x.values == 0.0)
    z = L0Scalar.of(space, zeta)
    scaled = l0_norm(x.module_mul(z)).values
    want = np.abs(z.values) * norms
    assert np.max(np.abs(scaled - want)) <= 1e-12 * (1.0 + np.max(want))


@settings(max_examples=50, deadline=None)
@given(a=vectors(2, 3), b=vectors(2, 3))
def test_triangle_inequality(a, b):
    space = make_space([0.3, 0.7])
    x, y = RnVector.of(space, a), RnVector.of(space, b)
    lhs = l0_norm(x + y).values
    rhs = l0_norm(x).values + l0_norm(y).values
    assert (lhs <= rhs + 1e-12 * (1.0 + rhs.max())).all()


@settings(max_examples=30, deadline=None)
@given(m=matrices(2, 3), v=vectors(2, 3))
def test_operator_norm_dominates_action(m, v):
    space = make_space([0.3, 0.7])
    T = L0Operator.of(space, m)
    x = RnVector.of(space, v)
    lhs = l0_norm(op_apply(T, x)).values
    rhs = op_norm(T).values * l0_norm(x).values
    assert (lhs <= rhs + 1e-9 * (1.0 + rhs.max())).all()


@settings(max_examples=30, deadline=None)
@given(m=matrices(2, 3), s=matrices(2, 3))
def test_operator_norm_submultiplicative(m, s):
    space = make_space([0.3, 0.7])
    T, S = L0Operator.of(space, m), L0Operator.of(space, s)
    lhs = op_norm(T @ S).values
    rhs = op_norm(T).values * op_norm(S).values
    assert (lhs <= rhs + 1e-9 * (1.0 + rhs.max())).all()


def test_vector_distance_is_metric_on_norm_gap(space2):
    x = RnVector.of(space2, [[3.0, 4.0], [0.0, 0.0]])
    y = RnVector.zeros(space2, 2)
    assert vector_distance(x, y, "locally_convex") == 5.0
    assert vector_distance(x, y, "eps_lambda") == pytest.approx(0.3)
