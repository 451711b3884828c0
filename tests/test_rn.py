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
    INJECTIVITY_THRESHOLD,
    _THETA18,
    _expm_times,
    _squarings,
    block_norms,
    exp_norm_bounds,
    log_norm_bounds,
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
        x = RnVector.of(space2, [[3, 4], [1, 0]])
        np.testing.assert_allclose(l0_norm(x).values, [5, 1], rtol=0, atol=0)

    def test_zero_vector(self, space2):
        np.testing.assert_array_equal(
            l0_norm(RnVector.zeros(space2, 3)).values, [0, 0]
        )

    def test_module_scaling_scales_norm(self, space2):
        x = RnVector.of(space2, [[3, 4], [1, 0]])
        zeta = L0Scalar.of(space2, [2, 3])
        np.testing.assert_allclose(
            l0_norm(x.module_mul(zeta)).values, [10, 3], rtol=1e-15
        )

    def test_non_finite_rejected(self, space2):
        with pytest.raises(NonFiniteValue):
            RnVector.of(space2, [[np.nan, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "row, length",
        # the first sum of squares underflows to 0, which would break definiteness
        [([1e-170, 0.0], 1e-170), ([1e200], 1e200), ([3e-300, -4e-300], 5e-300), ([3e300, 4e300], 5e300)],
    )
    def test_lengths_across_the_double_range(self, space1, row, length):
        np.testing.assert_allclose(l0_norm(RnVector.of(space1, [row])).values, [length], rtol=1e-15)

    def test_in_range_rows_are_the_plain_square_root(self, rng):
        values = rng.standard_normal((64, 5)) * np.logspace(-150, 150, 64)[:, None]
        plain = np.sqrt(np.einsum("ad,ad->a", values, values))
        assert np.array_equal(block_norms(values), plain)
        # rows the rescale path takes leave the bits of the others alone
        mixed = np.vstack([values, np.full((1, 5), 1e-170), np.full((1, 5), 1e200)])
        assert np.array_equal(block_norms(mixed)[:64], plain)


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


def svd_norms(mats: np.ndarray) -> np.ndarray:
    """Each block's largest singular value from LAPACK's SVD, as check_injective takes it."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


class TestSpectralNormBounds:
    """The accuracy bounds the growth gate's margin takes from the computed norms."""

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_within_the_stated_rounding_of_the_50_digit_norm(self, rng, d):
        # spectral_norms at most (1.01 d^2 + d^(1/2) + 2) u above the norm, and the
        # SVD's largest value at most (d + 1)^2 u below it, u = eps / 2
        u = 0.5 * np.finfo(float).eps
        mats = np.concatenate([hostile_blocks(rng, d), rng.normal(size=(4, d, d))])
        mats = np.concatenate([mats, 1e200 * mats[:2], 1e-200 * mats[:2]])
        gram, svd = spectral_norms(mats), svd_norms(mats)
        with mpmath.workdps(50):
            for m, above, below in zip(mats, gram, svd):
                exact = max(mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False))
                assert above <= exact * (1 + (1.01 * d * d + d**0.5 + 2) * mpmath.mpf(u))
                assert below >= exact * (1 - (d + 1) ** 2 * mpmath.mpf(u))

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

    def test_ratio_at_the_threshold_is_injective(self, space1):
        # equal passes and only a ratio below INJECTIVITY_THRESHOLD is singular
        report = check_injective(L0Operator.of(space1, [np.diag([1.0, 1e-12])]))
        assert report.min_sv_ratio[0] == INJECTIVITY_THRESHOLD
        assert report.injective and report.witness_atom is None
        below = check_injective(L0Operator.of(space1, [np.diag([1.0, np.nextafter(1e-12, 0.0)])]))
        assert not below.injective and below.witness_atom == 0

    def test_largest_singular_value_is_the_svd_norm(self, space2, rng):
        mats = rng.normal(size=(2, 3, 3))
        report = check_injective(L0Operator.of(space2, mats))
        assert np.array_equal(report.max_sv, svd_norms(mats))
        np.testing.assert_allclose(report.max_sv, spectral_norms(mats), rtol=1e-14)
        np.testing.assert_array_equal(check_injective(L0Operator.zeros(space2, 0)).max_sv, [0.0, 0.0])

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


def exp_bound_pairs(rng, d: int) -> list:
    """(A, C) stacks: Gaussian, normal and hostile generators at scales 1e-3, 1 and 1e3."""
    q = np.linalg.qr(rng.normal(size=(32, d, d)))[0]
    normal = (q * rng.uniform(-2.0, 0.5, (32, 1, d))) @ np.swapaxes(q, 1, 2)
    pairs = []
    for a in (rng.normal(size=(32, d, d)), normal, hostile_blocks(rng, d)):
        c = rng.normal(size=a.shape) + 3.0 * np.eye(d)  # the bound does not need AC = CA
        pairs += [(scale * a, c) for scale in (1e-3, 1.0, 1e3)]
    return pairs


class TestExpNormBounds:
    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_log_norm_bound_is_tight_above_the_50_digit_value(self, rng, d):
        blocks = np.concatenate([hostile_blocks(rng, d), rng.normal(size=(4, d, d))])
        blocks = np.concatenate([blocks, 1e200 * blocks[:2], 1e-200 * blocks[:2]])
        bounds = log_norm_bounds(blocks)
        with mpmath.workdps(50):
            for m, bound in zip(blocks, bounds):
                sym = mpmath.matrix(m.tolist())
                exact = max(mpmath.eigsy((sym + sym.T) / 2, eigvals_only=True))
                scale = np.abs(m).max()
                assert bound >= exact
                assert bound - exact <= 2.0 * (d + 1) ** 3 * np.finfo(float).eps * scale

    def test_log_norm_of_zero_and_empty_blocks_is_zero(self):
        assert (log_norm_bounds(np.zeros((3, 2, 2))) == 0.0).all()
        assert log_norm_bounds(np.zeros((3, 0, 0))).shape == (3,)

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_never_below_the_norm_of_the_computed_exponential(self, rng, d):
        ts = np.linspace(0.0, 10.0, 32)
        given = total = 0
        for a, c in exp_bound_pairs(rng, d):
            bounds = exp_norm_bounds(a, svd_norms(c), ts)
            with np.errstate(over="ignore", invalid="ignore"):
                mats = _expm_times(a, ts) @ c
            held = np.isfinite(bounds)
            assert bounds.shape == (32, len(a)) and (bounds[~held] == np.inf).all()
            assert np.isfinite(mats[held]).all()
            assert (bounds[held] >= spectral_norms(mats[held])).all()
            assert (bounds[held] >= np.linalg.svd(mats[held], compute_uv=False)[:, 0]).all()
            given, total = given + held.sum(), total + held.size
        assert given >= 0.5 * total  # not vacuous: about 70% of the blocks get a bound

    def test_margin_covers_the_kernels_rounding(self):
        # scalar rates: the computed exp(t a) can exceed exp(t mu+) by rounding,
        # and only the margin keeps the bound above it
        rng = np.random.default_rng(1)
        a = rng.uniform(-12.0, 12.0, (4000, 1, 1))  # |10 a| <= 128: every block gets a bound
        c = np.ones_like(a)
        ts = np.linspace(0.0, 10.0, 32)
        got = spectral_norms(_expm_times(a, ts) @ c)
        raw = svd_norms(c) * (1.0 + 8.0 * np.finfo(float).eps) * np.exp(np.multiply.outer(ts, log_norm_bounds(a)))
        bounds = exp_norm_bounds(a, svd_norms(c), ts)
        assert (got > raw).any() and np.isfinite(bounds).all()
        assert (bounds >= got).all()

    def test_bound_without_margin_holds_the_50_digit_norm(self, rng):
        # c+ exp(t mu+) alone is a bound on the exact norm ||exp(tA) C||
        ts = np.array([0.0, 0.5, 3.0])
        for d in (2, 4):
            a = hostile_blocks(rng, d)[[0, 2, 3, 5, 6]]
            c = rng.normal(size=a.shape) + 3.0 * np.eye(d)
            c_plus = svd_norms(c) * (1.0 + 2.0 * (d + 1) ** 2 * np.finfo(float).eps)
            raw = c_plus * np.exp(np.multiply.outer(ts, log_norm_bounds(a)))
            with mpmath.workdps(50):
                for j, t in enumerate(ts):
                    for i in range(len(a)):
                        w = mpmath.expm(mpmath.mpf(t) * mpmath.matrix(a[i].tolist()))
                        w = w * mpmath.matrix(c[i].tolist())
                        exact = max(mpmath.svd_r(w, compute_uv=False))
                        assert raw[j, i] >= exact


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

    def test_envelope_past_the_double_range_is_infinite(self, space2):
        b = ExponentialBound(L0Scalar.of(space2, [1e300, 1e-300]), L0Scalar.of(space2, [1.0, 800.0]))
        env = b.envelope(np.array([0.5, 20.0, 1e3]))
        assert env[0, 0] == 1e300 * np.exp(0.5) and env[0, 1] == 1e-300 * np.exp(400.0)
        assert np.isinf(env[1:]).all() and (env > 0.0).all()

    def test_envelope_is_zero_wherever_m_is_zero(self, space2):
        b = ExponentialBound(L0Scalar.of(space2, [0.0, 2.0]), L0Scalar.of(space2, [1e6, -1.0]))
        ts = np.array([0.0, 1e-3, 1.0, 1e3])
        env = b.envelope(ts)
        assert (env[:, 0] == 0.0).all()
        np.testing.assert_array_equal(env[:, 1], 2.0 * np.exp(-ts))
        assert b.envelope(5.0)[0] == 0.0

    def test_envelope_keeps_the_plain_product_in_range(self, space4):
        rng = np.random.default_rng(3)
        M, xi = rng.uniform(1e-3, 10.0, 4), rng.uniform(-5.0, 5.0, 4)
        b = ExponentialBound(L0Scalar.of(space4, M), L0Scalar.of(space4, xi))
        ts = np.geomspace(1e-3, 1e2, 64)
        np.testing.assert_array_equal(b.envelope(ts), M * np.exp(np.multiply.outer(ts, xi)))
        np.testing.assert_array_equal(b.envelope(0.7), M * np.exp(0.7 * xi))

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
