"""Transform layer: damped integrals, analytic derivatives, inversion."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsl import (
    BoundViolated,
    CertificateMissing,
    CoefficientOverflow,
    CurveSampler,
    DimMismatch,
    EtaNotInGxi,
    ExponentialBound,
    L0Scalar,
    LaplaceSpec,
    NonPositiveTime,
    RnVector,
    SpaceMismatch,
    TransformDerivativeProvider,
    l0_norm,
    laplace_derivative,
    laplace_derivative_scaled,
    laplace_transform,
    load_scenario,
    make_space,
    post_widder,
    post_widder_points,
    provider_from_curve,
    stack_specs,
    stacked_space,
    transforms_equal,
    vector_distance,
)
from rnsl.calculus import _CHUNK_BYTES, _weight_log_scale, damped_weighted_integral
from rnsl.instances import (
    _oscillating_draws,
    _oscillating_spec,
    constant_transform_provider,
    inversion_test_family,
    oscillating_decay_specs,
    oscillating_decay_stack,
    rng_for,
)
from rnsl import suites
from rnsl.suites import _add_by_copy, _Worst

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9


def constant_spec(space, x: RnVector) -> LaplaceSpec:
    bound = ExponentialBound(l0_norm(x), L0Scalar.zero(space))
    return LaplaceSpec(
        CurveSampler(space, x.dim, 0.0, math.inf, lambda s: x, bound=bound)
    )


class TestSpecValidation:
    def test_finite_domain_rejected(self, space1):
        x = RnVector.of(space1, [[1.0]])
        curve = CurveSampler(
            space1, 1, 0.0, 1.0, lambda s: x,
            bound=ExponentialBound.constant(space1, 1.0, 0.0),
        )
        with pytest.raises(ValueError):
            LaplaceSpec(curve)

    def test_certificate_required(self, space1):
        x = RnVector.of(space1, [[1.0]])
        with pytest.raises(CertificateMissing):
            LaplaceSpec(CurveSampler(space1, 1, 0.0, math.inf, lambda s: x))

    def test_escaping_envelope_rejected(self, space2):
        def h(s: float) -> RnVector:
            return RnVector.of(space2, [[1.0, 0.0], [math.exp(0.5 * s), 0.0]])

        curve = CurveSampler(
            space2, 2, 0.0, math.inf, h,
            bound=ExponentialBound.constant(space2, 1.0, 0.0),
        )
        with pytest.raises(BoundViolated) as exc:
            LaplaceSpec(curve)
        assert exc.value.atom == 1
        assert exc.value.t > 0.0

    def test_batched_escape_names_first_time_and_atom(self, space2):
        def batch(s):
            rows = np.stack([np.ones_like(s), np.exp(0.5 * s)], axis=1)
            return np.stack([rows, np.zeros_like(rows)], axis=2)

        curve = CurveSampler.from_batch(
            space2, 2, 0.0, math.inf, batch,
            bound=ExponentialBound.constant(space2, 1.0, 0.0),
        )
        with pytest.raises(BoundViolated) as batched:
            LaplaceSpec(curve)
        unbatched = CurveSampler(space2, 2, 0.0, math.inf, curve.evaluator, bound=curve.bound)
        with pytest.raises(BoundViolated) as scalar:
            LaplaceSpec(unbatched)
        assert (batched.value.atom, batched.value.t) == (1, scalar.value.t)
        assert batched.value.t == float(np.geomspace(1e-3, 1e2, 64)[0])

    @pytest.mark.parametrize("xi", [-3.72, -3.7, -3.65])
    def test_exact_certificate_accepted_below_the_normal_range(self, space1, xi):
        # at s = 100 the curve e^(xi s) is near 2e-161, whose square is subnormal
        curve = CurveSampler.from_batch(
            space1, 1, 0.0, math.inf, lambda s: np.exp(xi * s)[:, None, None],
            bound=ExponentialBound.constant(space1, 1.0, xi),
        )
        LaplaceSpec(curve)

    def test_loose_certificate_past_the_double_range_raises_no_warning(self, space1):
        # 1e300 exp(s) leaves the double range past s = 19: the envelope is +inf there
        curve = CurveSampler.from_batch(
            space1, 1, 0.0, math.inf, lambda s: np.ones((len(s), 1, 1)),
            bound=ExponentialBound.constant(space1, 1e300, 1.0),
        )
        LaplaceSpec(curve)

    def test_fast_growing_curve_is_sampled_where_its_envelope_is_finite(self, space1):
        # e^(8 s) leaves the double range near s = 88.7, before the last check time s = 100
        curve = CurveSampler.from_batch(
            space1, 1, 0.0, math.inf, lambda s: np.exp(8.0 * s)[:, None, None],
            bound=ExponentialBound.constant(space1, 1.0, 8.0),
        )
        spec = LaplaceSpec(curve)
        assert abs(laplace_transform(spec, 10.0, 1e-9).values[0, 0] - 0.5) <= 1e-9

    def test_zero_certificate_rejects_a_nonzero_curve_where_exp_overflows(self, space1):
        # exp(1e6 s) overflows at every sampled time, and 0 * inf must not read as NaN
        curve = CurveSampler.from_batch(
            space1, 1, 0.0, math.inf, lambda s: np.ones((len(s), 1, 1)),
            bound=ExponentialBound.constant(space1, 0.0, 1e6),
        )
        with pytest.raises(BoundViolated) as exc:
            LaplaceSpec(curve)
        assert (exc.value.t, exc.value.atom) == (1e-3, 0)
        assert str(exc.value) == "curve norm 1.0 escapes its envelope 0.0 at s=0.001 on atom 0"

    def test_exact_certificates_of_underflowing_curves_accepted(self, space1):
        # exp(xi s) x with M = ||x||: the curve reaches the subnormal range past
        # s = 67, where rounding alone can put its norm units of 2^-1074 over
        rng = np.random.default_rng(0)
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            x = rng.uniform(-1.0, 1.0, dim)
            xi = float(rng.uniform(-10.5, -7.2))
            curve = CurveSampler.from_batch(
                space1, dim, 0.0, math.inf, lambda s, x=x, xi=xi: np.exp(xi * s)[:, None, None] * x,
                bound=ExponentialBound.constant(space1, float(l0_norm(RnVector.of(space1, [x])).values[0]), xi),
            )
            LaplaceSpec(curve)

    def test_batched_wrong_shape_rejected(self, space2):
        curve = CurveSampler.from_batch(
            space2, 2, 0.0, math.inf, lambda s: np.ones((len(s), 2, 1)),
            bound=ExponentialBound.constant(space2, 2.0, 0.0),
        )
        with pytest.raises(SpaceMismatch):
            LaplaceSpec(curve)


class TestBatchedFamilies:
    """Every batched curve in ``instances`` samples its closed form.

    The closed forms are written out here from the same rng draws, so a
    transcription slip in a family's batched formula shows up; the scalar
    calls are checked against them too.
    """

    TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 17)])

    def assert_closed_form(self, curve, closed_form):
        assert curve.batch is not None
        want = np.stack([closed_form(float(t)) for t in self.TIMES])
        got = curve.sample(self.TIMES)
        assert got.shape == (len(self.TIMES), curve.space.n_atoms, curve.dim)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
        stacked = np.stack([curve(float(t)).values for t in self.TIMES])
        np.testing.assert_allclose(stacked, want, rtol=1e-14, atol=1e-15)

    def test_oscillating_decay_specs(self, space4):
        n, dim = space4.n_atoms, 3
        specs = oscillating_decay_specs(rng_for(2, "batched"), space4, dim, n=5)
        rng = rng_for(2, "batched")
        for spec in specs:
            a = rng.uniform(-1.0, 0.5, n)
            w = float(rng.uniform(0.5, 4.0))
            x = rng.uniform(-1.0, 1.0, (n, dim))
            y = rng.uniform(-1.0, 1.0, (n, dim))

            def h(s, a=a, w=w, x=x, y=y):
                return np.exp(a * s)[:, None] * (math.cos(w * s) * x + math.sin(w * s) * y)

            self.assert_closed_form(spec.curve, h)
            np.testing.assert_array_equal(spec.bound.xi.values, a)
            np.testing.assert_allclose(
                spec.bound.M.values,
                np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1),
                rtol=1e-15,
            )

    def test_oscillating_certificate_is_exact_below_the_normal_range(self, space4):
        # 1e-160 X has squared entries below 2^-1022, where a plain sum of
        # squares keeps only a few digits
        a, w, x, y = _oscillating_draws(rng_for(5, "tiny"), space4, 3, 2)
        plain = _oscillating_spec(space4, a, w, x, y).bound.M.values
        tiny = _oscillating_spec(space4, a, w, 1e-160 * x, 1e-160 * y).bound.M.values
        np.testing.assert_allclose(tiny, 1e-160 * plain, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 16])
    def test_inversion_test_family(self, space4, dim):
        unit = np.full((space4.n_atoms, dim), 1.0 / math.sqrt(dim))
        closed_forms = {
            "constant": (lambda t: 1.0, 1.0, 0.0),
            "decay_1": (lambda t: math.exp(-t), 1.0, -1.0),
            "decay_half": (lambda t: math.exp(-0.5 * t), 1.0, -0.5),
            "modulated": (
                lambda t: math.exp(-t) * (1.0 + 0.5 * math.sin(t)), 1.5, -1.0
            ),
        }
        family = inversion_test_family(space4, dim)
        assert [name for name, _ in family] == list(closed_forms)
        for name, spec in family:
            profile, m, xi = closed_forms[name]
            self.assert_closed_form(spec.curve, lambda t, p=profile: p(t) * unit)
            np.testing.assert_array_equal(spec.bound.M.values, m)
            np.testing.assert_array_equal(spec.bound.xi.values, xi)


class TestLaplaceTransform:
    def test_constant_curve(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        spec = constant_spec(space2, x)
        out = laplace_transform(spec, 2.0, TOL)
        np.testing.assert_allclose(out.values, x.values / 2.0, atol=1e-8)

    def test_growing_exponential_single_atom(self, space1):
        bound = ExponentialBound.constant(space1, 1.0, 0.5)
        spec = LaplaceSpec(CurveSampler(
            space1, 1, 0.0, math.inf,
            lambda s: RnVector.of(space1, [[math.exp(0.5 * s)]]), bound=bound,
        ))
        out = laplace_transform(spec, 2.0, TOL)
        assert out.values[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_eta_on_boundary_rejected(self, space2):
        x = RnVector.of(space2, [[1.0, 0.0], [1.0, 0.0]])
        spec = constant_spec(space2, x)
        eta = L0Scalar.of(space2, [1.0, 0.0])
        with pytest.raises(EtaNotInGxi) as exc:
            laplace_transform(spec, eta, TOL)
        assert exc.value.atom == 1
        with pytest.raises(EtaNotInGxi) as exc:
            laplace_derivative_scaled(spec, eta, 1, TOL)
        assert exc.value.atom == 1

    def test_bound_on_randomized_specs(self, space4):
        rng = rng_for(5, "laplace-bound-tests")
        for spec in oscillating_decay_specs(rng, space4, 2, n=5):
            m = spec.bound.M.values
            xi = spec.bound.xi.values
            for gamma in (0.5, 2.0):
                eta = L0Scalar.of(space4, xi + gamma)
                norms = l0_norm(laplace_transform(spec, eta, TOL)).values
                assert (norms <= m / gamma + 1e-8).all()


class TestLaplaceDerivative:
    def test_constant_first_derivative(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        spec = constant_spec(space2, x)
        out = laplace_derivative(spec, 2.0, 1, TOL)
        np.testing.assert_allclose(out.values, -x.values / 4.0, atol=1e-8)

    def test_order_zero_is_the_transform(self, space2):
        x = RnVector.of(space2, [[1.0, -1.0], [0.5, 2.0]])
        spec = constant_spec(space2, x)
        d0 = laplace_derivative(spec, 3.0, 0, TOL)
        h = laplace_transform(spec, 3.0, TOL)
        assert vector_distance(d0, h, "locally_convex") <= 2.0 * TOL

    def test_decaying_exponential_second_derivative(self, space1):
        bound = ExponentialBound.constant(space1, 1.0, -1.0)
        spec = LaplaceSpec(CurveSampler(
            space1, 1, 0.0, math.inf,
            lambda s: RnVector.of(space1, [[math.exp(-s)]]), bound=bound,
        ))
        out = laplace_derivative(spec, 1.0, 2, TOL)
        assert out.values[0, 0] == pytest.approx(0.25, abs=1e-8)

    def test_matches_difference_quotient(self, space4):
        rng = rng_for(6, "laplace-derivative-tests")
        spec = oscillating_decay_specs(rng, space4, 2, n=1)[0]
        xi_max = spec.bound.xi.values.max()
        eta = L0Scalar.constant(space4, xi_max + 2.0)
        analytic = laplace_derivative(spec, eta, 1, TOL)
        delta = 3e-4
        hp = laplace_transform(spec, eta + L0Scalar.constant(space4, delta), TOL)
        hm = laplace_transform(spec, eta - L0Scalar.constant(space4, delta), TOL)
        fd = (hp - hm).scale(1.0 / (2.0 * delta))
        assert vector_distance(analytic, fd, "locally_convex") <= 1e-6


class TestProviderFromCurve:
    def test_constant_closed_form(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        provider = provider_from_curve(constant_spec(space2, x), TOL)
        k, eta = 3, 2.0
        got = provider.derivative(eta, k)
        want = x.values * ((-1.0) ** k) * math.factorial(k) / eta ** (k + 1)
        np.testing.assert_allclose(got.values, want, atol=1e-8)

    def test_order_zero_consistency(self, space2):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 1.5]])
        spec = constant_spec(space2, x)
        provider = provider_from_curve(spec, TOL)
        got = provider.derivative(2.5, 0)
        want = laplace_transform(spec, 2.5, TOL)
        assert vector_distance(got, want, "locally_convex") <= 2.0 * TOL

    def test_exponential_rates_first_derivative(self, space2):
        rates = np.array([0.5, -1.0])
        x = RnVector.of(space2, np.ones((2, 1)))
        bound = ExponentialBound(L0Scalar.one(space2), L0Scalar.of(space2, rates))
        spec = LaplaceSpec(CurveSampler(
            space2, 1, 0.0, math.inf,
            lambda s: RnVector.of(space2, np.exp(rates * s)[:, None]), bound=bound,
        ))
        got = provider_from_curve(spec, TOL).derivative(2.0, 1)
        want = (-1.0 / (2.0 - rates) ** 2)[:, None]
        np.testing.assert_allclose(got.values, want, atol=1e-8)


class TestProviderChecks:
    @pytest.mark.parametrize(
        "atoms, dim, log_scale, error, message",
        [
            (1, 1, np.zeros(1), SpaceMismatch, "different space"),
            (2, 2, np.zeros(2), DimMismatch, "has dim 2, expected 1"),
            (2, 1, np.zeros(3), SpaceMismatch, "log scale"),
            (2, 1, np.zeros((2, 1)), SpaceMismatch, "log scale"),
            (2, 1, 0.0, SpaceMismatch, "log scale"),
        ],
    )
    def test_malformed_output_rejected(self, space2, atoms, dim, log_scale, error, message):
        space = space2 if atoms == 2 else make_space([1.0])
        out = RnVector.of(space, np.ones((atoms, dim)))
        provider = TransformDerivativeProvider(space2, 1, lambda points: [(out, log_scale) for _ in points])
        with pytest.raises(error, match=message):
            provider.derivative(2.0, 1)

    def test_constant_derivatives_match_closed_form(self, space2):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        provider = constant_transform_provider(x)
        eta = L0Scalar.of(space2, [1.5, 2.5])
        for k in (0, 1, 2, 5, 10, 40):
            got = provider.derivative(eta, k)
            want = (
                (-1.0) ** k * math.factorial(k) * x.values
                / eta.values[:, None] ** (k + 1)
            )
            np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0.0)

    def test_derivative_past_double_range_signalled(self, space1):
        provider = constant_transform_provider(RnVector.of(space1, [[1.0]]))
        mantissa, log_scale = provider.scaled_derivative(1.0, 200)
        assert log_scale[0] == pytest.approx(math.lgamma(201.0))
        with pytest.raises(CoefficientOverflow, match="use the scaled form"):
            provider.derivative(1.0, 200)


class TestPostWidder:
    def test_constants_reproduced_exactly(self, space2):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        provider = constant_transform_provider(x)
        for k in (1, 8, 170, 1024):
            out = post_widder(provider, 0.7, k)
            assert np.abs(out.values - x.values).max() <= 1e-12

    def test_constant_via_quadrature_provider(self, space2):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        provider = provider_from_curve(constant_spec(space2, x), TOL)
        out = post_widder(provider, 1.0, 8)
        assert np.abs(out.values - x.values).max() <= 1e-7

    def test_decaying_exponential_against_closed_form(self, space1):
        bound = ExponentialBound.constant(space1, 1.0, -1.0)
        spec = LaplaceSpec(CurveSampler(
            space1, 1, 0.0, math.inf,
            lambda s: RnVector.of(space1, [[math.exp(-s)]]), bound=bound,
        ))
        provider = provider_from_curve(spec, 1e-11)
        k, t = 64, 1.0
        got = post_widder(provider, t, k).values[0, 0]
        oracle = (k / (k + t)) ** (k + 1)
        assert got == pytest.approx(oracle, abs=1e-7)
        assert got == pytest.approx(0.365030, abs=1e-4)

    def test_high_order_error_small(self, space1):
        bound = ExponentialBound.constant(space1, 1.0, -1.0)
        spec = LaplaceSpec(CurveSampler(
            space1, 1, 0.0, math.inf,
            lambda s: RnVector.of(space1, [[math.exp(-s)]]), bound=bound,
        ))
        provider = provider_from_curve(spec, 1e-11)
        got = post_widder(provider, 1.0, 512).values[0, 0]
        assert abs(got - math.exp(-1.0)) < 4e-4

    def test_error_decreases_with_order(self, space2):
        spec = dict(inversion_test_family(space2, 2))["decay_1"]
        provider = provider_from_curve(spec, 1e-11)
        want = math.exp(-1.0) / math.sqrt(2.0)
        errs = [
            abs(post_widder(provider, 1.0, k).values[0, 0] - want) for k in (8, 64)
        ]
        assert errs[1] < errs[0]

    def test_nonpositive_time_rejected(self, space1):
        provider = constant_transform_provider(RnVector.of(space1, [[1.0]]))
        with pytest.raises(NonPositiveTime):
            post_widder(provider, 0.0, 8)
        with pytest.raises(NonPositiveTime):
            post_widder(provider, -1.0, 8)

    def test_order_below_one_rejected(self, space1):
        provider = constant_transform_provider(RnVector.of(space1, [[1.0]]))
        with pytest.raises(ValueError):
            post_widder(provider, 1.0, 0)

    def test_coefficient_overflow_signalled(self, space1):
        ones = RnVector.of(space1, [[1.0]])
        provider = TransformDerivativeProvider(
            space1, 1, lambda points: [(ones, np.zeros(1)) for _ in points]
        )
        with pytest.raises(CoefficientOverflow):
            post_widder(provider, 1e-160, 1)


# the post_widder suite's quadrature points on the transform_inversion ladder, in its order
SUITE_POINTS = [(t, k) for k in (8, 64, 512, 1024) for t in (0.5, 1.0, 2.0)]


def one_weight_approximant(spec, t, k, tol):
    """The k-th approximant at t from one damped_weighted_integral, with laplace_derivative_scaled's tolerance."""
    gamma = spec.bound.margin(k / t)
    log_env = math.lgamma(k + 1.0) - (k + 1.0) * np.log(gamma) - _weight_log_scale(k, gamma)
    env = spec.bound.M.values * np.exp(log_env)
    res = damped_weighted_integral(spec.curve, k / t, k, tol * env)
    log_coef = (k + 1.0) * math.log(k / t) - math.lgamma(k + 1.0)
    # the two factors (-1)^k, of the derivative and of the coefficient, cancel
    vals = res.scaled_value.values
    return np.sign(vals) * np.exp((log_coef + res.log_scale)[:, None] + np.log(np.abs(vals)))


def closed_form_approximant(x, t, k):
    """The k-th approximant at t of the constant x from its closed-form derivative."""
    eta = np.full(x.space.n_atoms, k / t)
    log_coef = (k + 1.0) * math.log(k / t) - math.lgamma(k + 1.0)
    log_scale = math.lgamma(k + 1.0) - (k + 1.0) * np.log(eta)
    return np.sign(x.values) * np.exp((log_coef + log_scale)[:, None] + np.log(np.abs(x.values)))


def counted_decay(space):
    """The inversion family's decay_1 with a batch that records each call's number of times, from after construction."""
    curve = dict(inversion_test_family(space, 2))["decay_1"].curve
    samples = []

    def batch(s):
        samples.append(len(s))
        return curve.batch(s)

    spec = LaplaceSpec(CurveSampler.from_batch(space, 2, 0.0, math.inf, batch, bound=curve.bound))
    samples.clear()
    return spec, samples


class TestPostWidderPoints:
    """post_widder_points inverts a list of (t, k) from one provider call."""

    @pytest.mark.parametrize("t, k", [(0.7, 1), (0.5, 8), (1.0, 64), (2.0, 1024)])
    def test_one_point_is_the_one_weight_approximant(self, t, k):
        spec = dict(inversion_test_family(make_space([0.25, 0.75]), 2))["modulated"]
        (got,) = post_widder_points(provider_from_curve(spec, 1e-11), [(t, k)])
        np.testing.assert_array_equal(got.values, one_weight_approximant(spec, t, k, 1e-11))
        np.testing.assert_array_equal(post_widder(provider_from_curve(spec, 1e-11), t, k).values, got.values)

    @pytest.mark.parametrize("t, k", [(0.7, 1), (0.5, 8), (1.0, 64), (2.0, 1024)])
    def test_one_point_of_a_constant_is_its_closed_form(self, space2, t, k):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        (got,) = post_widder_points(constant_transform_provider(x), [(t, k)])
        np.testing.assert_array_equal(got.values, closed_form_approximant(x, t, k))

    def test_the_constant_points_from_one_call_are_their_own_calls(self, space2):
        provider = constant_transform_provider(RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]]))
        points = [(t, k) for t in (0.5, 1.0, 2.0) for k in (8, 64, 512, 1024, 1024)]
        for (t, k), got in zip(points, post_widder_points(provider, points), strict=True):
            np.testing.assert_array_equal(got.values, post_widder(provider, t, k).values)

    def test_the_suite_points_from_one_call_match_their_own_calls(self):
        members = [spec for name, spec in inversion_test_family(make_space([1.0]), 2) if name != "constant"]
        provider = provider_from_curve(stack_specs(members), 1e-11)
        listed = post_widder_points(provider, SUITE_POINTS)
        assert len(listed) == 12
        for (t, k), got in zip(SUITE_POINTS, listed):
            np.testing.assert_allclose(got.values, post_widder(provider, t, k).values, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("bad", [
        pytest.param((0.0, 8), id="time-zero"),
        pytest.param((-1.0, 8), id="negative-time"),
        pytest.param((math.inf, 8), id="infinite-time"),
        pytest.param((1.0, 0), id="order-zero"),
        pytest.param((1.0, 2.5), id="fractional-order"),
        pytest.param((1e-320, 8), id="coefficient-overflows"),
    ])
    @pytest.mark.parametrize("where", [0, 7, 12])
    def test_a_bad_point_raises_its_own_error_before_any_sample(self, bad, where):
        spec, samples = counted_decay(make_space([1.0]))
        provider = provider_from_curve(spec, 1e-11)
        with pytest.raises(Exception) as alone:
            post_widder(provider, *bad)
        assert samples == []
        with pytest.raises(type(alone.value)) as listed:
            post_widder_points(provider, SUITE_POINTS[:where] + [bad] + SUITE_POINTS[where:])
        assert str(listed.value) == str(alone.value)
        assert samples == []
        post_widder_points(provider, SUITE_POINTS)
        assert samples  # the counter sees the samples of a good list

    def test_the_first_bad_point_in_list_order_is_named(self):
        spec, samples = counted_decay(make_space([1.0]))
        with pytest.raises(ValueError, match="got 0"):
            post_widder_points(provider_from_curve(spec, 1e-11), [(1.0, 8), (1.0, 0), (0.0, 8)])
        assert samples == []

    def test_overflow_is_named_after_the_provider_call(self, space1):
        ones = RnVector.of(space1, [[1.0]])
        provider = TransformDerivativeProvider(space1, 1, lambda points: [(ones, np.zeros(1)) for _ in points])
        with pytest.raises(CoefficientOverflow, match="k=1, t=1e-160"):
            post_widder_points(provider, [(1.0, 8), (1e-160, 1)])

    def test_a_provider_must_answer_every_point(self, space1):
        ones = RnVector.of(space1, [[1.0]])
        provider = TransformDerivativeProvider(space1, 1, lambda points: [(ones, np.zeros(1))] * 2)
        with pytest.raises(ValueError, match="2 derivatives for 1 points"):
            post_widder(provider, 1.0, 8)


# per atom: decay rate a, log10 of the scale of x, and x's coordinates before
# scaling, each at least 0.1 in size, for d = 1, 2 or 3
COORD = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
DECAYS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.floats(0.3, 5.0), st.floats(-100.0, 100.0), st.lists(COORD, min_size=d, max_size=d)),
    min_size=1,
    max_size=4,
))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(atoms=DECAYS, t=st.floats(0.25, 4.0), k=st.sampled_from([1, 8, 64, 512, 1024]))
def test_post_widder_on_a_decay_matches_its_closed_form(atoms, t, k):
    # H(eta) = x / (eta + a), so the k-th approximant is (1 + a t / k)^-(k+1) x exactly
    a = np.array([rate for rate, _, _ in atoms])
    x = np.array([10.0 ** scale * np.array(coords) for _, scale, coords in atoms])
    space = make_space(np.full(len(atoms), 1.0 / len(atoms)))
    size = l0_norm(RnVector.of(space, x))
    spec = LaplaceSpec(CurveSampler.from_batch(
        space, x.shape[1], 0.0, math.inf, lambda s: np.exp(-np.outer(s, a))[:, :, None] * x,
        bound=ExponentialBound(size, L0Scalar.of(space, -a)),
    ))
    got = post_widder(provider_from_curve(spec, 1e-11), t, k).values
    want = (1.0 + a * t / k)[:, None] ** -(k + 1.0) * x
    assert (np.linalg.norm(got - want, axis=1) <= 1e-9 * size.values).all()


class TestTransformsEqual:
    def make_decay(self, space, scale=1.0):
        bound = ExponentialBound.constant(space, 1.5 * scale, -1.0)
        return LaplaceSpec(CurveSampler(
            space, 1, 0.0, math.inf,
            lambda s: RnVector.of(
                space, np.full((space.n_atoms, 1), scale * math.exp(-s))
            ),
            bound=bound,
        ))

    def test_identical_specs_equal(self, space2):
        spec = self.make_decay(space2)
        report = transforms_equal(spec, spec, [1.0, 2.0, 4.0], 1e-6)
        assert report.equal
        assert report.worst_gap <= 1e-6

    def test_bump_perturbation_detected(self, space2):
        spec1 = self.make_decay(space2)
        bound = ExponentialBound.constant(space2, 1.5, 0.0)

        def bumped(s: float) -> RnVector:
            extra = 0.1 * math.exp(-((s - 1.0) ** 2) / 0.02)
            return RnVector.of(
                space2, np.full((2, 1), math.exp(-s) + extra)
            )

        spec2 = LaplaceSpec(
            CurveSampler(space2, 1, 0.0, math.inf, bumped, bound=bound)
        )
        report = transforms_equal(spec1, spec2, [1.0, 2.0, 4.0], 1e-6)
        assert not report.equal
        assert report.worst_gap > 1e-4
        assert report.worst_eta.values.shape == (2,)

    def test_below_tolerance_perturbation_equal(self, space2):
        spec1 = self.make_decay(space2)
        spec2 = self.make_decay(space2, scale=1.0 + 1e-14)
        report = transforms_equal(spec1, spec2, [1.0, 2.0, 4.0], 1e-6)
        assert report.equal

    @pytest.mark.parametrize("atoms", [1, 4])
    def test_a_curve_against_itself_has_gaps_of_exactly_zero(self, atoms):
        space = random_space(atoms)
        spec = oscillating_decay_specs(rng_for(atoms, "self-gap"), space, 2, n=1)[0]
        report = transforms_equal(spec, spec, [1.0, 2.0, 4.0, 8.0], 1e-6)
        assert report.gaps == (0.0,) * 4
        assert report.equal and report.worst_gap == 0.0

    def test_empty_grid_rejected(self, space2):
        spec = self.make_decay(space2)
        with pytest.raises(ValueError):
            transforms_equal(spec, spec, [], 1e-6)


def random_space(n: int):
    weights = np.random.default_rng(n).uniform(0.5, 1.5, n)
    return make_space(weights / weights.sum())


class TestStackedSpecs:
    """Curves stacked on copies of a space transform as they do one by one."""

    @pytest.mark.parametrize("copies", [1, 3, 20])
    def test_stacked_space_layout(self, copies):
        space = random_space(5)
        stacked = stacked_space(space, copies)
        assert stacked.n_atoms == copies * space.n_atoms
        assert math.fsum(stacked.atom_probs) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(
            stacked.probs.reshape(copies, -1), np.tile(space.probs / copies, (copies, 1))
        )
        if copies == 1:
            assert stacked == space

    @pytest.mark.parametrize("copies", [0, -1, 1.5])
    def test_stacked_space_needs_a_positive_count(self, space2, copies):
        with pytest.raises(ValueError, match="positive integer"):
            stacked_space(space2, copies)

    def test_native_stack_is_the_stacked_list(self, space4):
        # one formula: the native stack samples bitwise what stack_specs does
        specs = oscillating_decay_specs(rng_for(4, "stack"), space4, 3, n=5)
        native = oscillating_decay_stack(rng_for(4, "stack"), space4, 3, n=5)
        stacked = stack_specs(specs)
        assert native.space == stacked.space == stacked_space(space4, 5)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 17)])
        np.testing.assert_array_equal(native.curve.sample(times), stacked.curve.sample(times))
        for field in ("M", "xi"):
            np.testing.assert_array_equal(
                getattr(native.bound, field).values, getattr(stacked.bound, field).values
            )

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("k", [0, 1, 1024])
    def test_copies_match_their_own_transforms(self, n, k):
        space = random_space(n)
        specs = oscillating_decay_specs(rng_for(n, "copies"), space, 2, n=3)
        stack = oscillating_decay_stack(rng_for(n, "copies"), space, 2, n=3)

        def integral(spec):
            # the weight peaks near s = 1; the tolerance is 1e-10 of the scaled
            # certificate integral, as transform derivatives take it
            gamma = 1.5 + k
            eta = spec.bound.xi.values + gamma
            log_env = math.lgamma(k + 1.0) - (k + 1.0) * math.log(gamma) - _weight_log_scale(k, eta)
            tol = 1e-10 * spec.bound.M.values * np.exp(log_env)
            return damped_weighted_integral(spec.curve, L0Scalar.of(spec.space, eta), k, tol)

        whole = integral(stack)
        for j, spec in enumerate(specs):
            rows = slice(j * n, (j + 1) * n)
            one = integral(spec)
            np.testing.assert_array_equal(whole.log_scale[rows], one.log_scale)
            gap = np.abs(whole.scaled_value.values[rows] - one.scaled_value.values).max(axis=1)
            assert (gap <= whole.est_error[rows] + one.est_error).all()

    def test_inversion_members_stack(self, space4):
        family = [spec for name, spec in inversion_test_family(space4, 2) if name != "constant"]
        stack = stack_specs(family)
        assert stack.space == stacked_space(space4, 3)
        k, t = 64, 1.0
        whole = post_widder(provider_from_curve(stack, 1e-11), t, k).values
        for j, spec in enumerate(family):
            one = post_widder(provider_from_curve(spec, 1e-11), t, k).values
            np.testing.assert_allclose(whole[4 * j:4 * (j + 1)], one, rtol=0.0, atol=1e-9)

    def test_mismatched_members_rejected(self, space2, space4):
        a = oscillating_decay_specs(rng_for(1, "mix"), space2, 2, n=1)[0]
        with pytest.raises(SpaceMismatch):
            stack_specs([a, oscillating_decay_specs(rng_for(1, "mix"), space4, 2, n=1)[0]])
        with pytest.raises(DimMismatch):
            stack_specs([a, oscillating_decay_specs(rng_for(1, "mix"), space2, 3, n=1)[0]])
        with pytest.raises(ValueError):
            stack_specs([])

    def test_escape_in_the_last_check_chunk_is_named(self):
        # 1024 atoms of dimension 16 check two times a call: the escape sits
        # in the last call, on atoms 700 and 9 of the last two times
        n, dim = 1024, 16
        space = random_space(n)
        times = np.geomspace(1e-3, 1e2, 64)
        calls = []

        def batch(s):
            calls.append(len(s))
            vals = np.zeros((len(s), n, dim))
            vals[:, :, 0] = 1.0
            vals[s >= times[-2], 700, 0] = 2.0
            vals[s >= times[-1], 9, 0] = 3.0
            return vals

        curve = CurveSampler.from_batch(
            space, dim, 0.0, math.inf, batch, bound=ExponentialBound.constant(space, 1.0, 0.0)
        )
        with pytest.raises(BoundViolated) as exc:
            LaplaceSpec(curve)
        assert (exc.value.t, exc.value.atom) == (float(times[-2]), 700)
        assert f"at s={float(times[-2])!r} on atom 700" in str(exc.value)
        per_call = _CHUNK_BYTES // (8 * n * dim)
        assert calls == [per_call] * (64 // per_call)

    def test_worst_over_copies_keeps_the_first_curve(self):
        # gaps of 3 curves at 2 etas on 4 atoms, tied at 0.5: curve order
        # picks atom 2, eta order atom 1 and reversed curves atom 3
        n = 4
        gaps = np.zeros((3, 2, n))
        gaps[0, 1, 2] = 0.5
        gaps[1, 0, 1] = 0.5
        gaps[2, 0, 3] = 0.5
        looped = _Worst()
        for curve in gaps:
            for per_eta in curve:
                looped.add(per_eta)
        stacked = _Worst()
        _add_by_copy(stacked, n, *(gaps[:, e].reshape(-1) for e in range(2)))
        assert (stacked.gap, stacked.atom) == (looped.gap, looped.atom) == (0.5, 2)


ATOM_SPACES = [
    pytest.param(make_space([0.1, 0.2, 0.3, 0.4]), id="4-atoms"),
    pytest.param(random_space(64), id="64-atoms"),
]


class TestAtomConstantFamily:
    """post_widder and uniqueness_3_6 integrate their curves on one atom.

    That is sound because the inversion family and the bump are
    atom-constant: on any space, every atom holds the one-atom result bit
    for bit, so the largest gap over the atoms is the one-atom gap.
    """

    @pytest.mark.parametrize("space", ATOM_SPACES)
    def test_inversion_stack_is_the_one_atom_result_on_every_atom(self, space):
        def provider(space):
            members = [spec for name, spec in inversion_test_family(space, 2) if name != "constant"]
            return provider_from_curve(stack_specs(members), 1e-11)

        one, many = provider(make_space([1.0])), provider(space)
        # the suite's one list call, and each point's own call
        listed = zip(post_widder_points(one, SUITE_POINTS), post_widder_points(many, SUITE_POINTS))
        single = ((post_widder(one, t, k), post_widder(many, t, k)) for t, k in SUITE_POINTS)
        for want, got in (*listed, *single):
            want, got = want.values.reshape(3, 1, 2), got.values.reshape(3, space.n_atoms, 2)
            np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))

    @pytest.mark.parametrize("space", ATOM_SPACES)
    def test_post_widder_records_are_the_one_atom_records(self, space, monkeypatch):
        # every member's error is the largest over its own copy's atoms, so
        # the suite on ``space`` reports what it reports on one atom
        scn = load_scenario(str(ROOT / "scenarios" / "post_widder.json"))
        one = suites.SUITES["post_widder"](scn)
        monkeypatch.setattr(suites, "make_space", lambda probs: space)
        many = suites.SUITES["post_widder"](scn)
        assert [r.name for r in one.records][1:4] == [
            "strict_decay_decay_1", "final_error_decay_1", "strict_decay_decay_half",
        ]
        assert many.records == one.records
        assert many.data == one.data

    @pytest.mark.parametrize("space", ATOM_SPACES)
    def test_uniqueness_curves_are_the_one_atom_result_on_every_atom(self, space, monkeypatch):
        def compared(space):
            # the suite's transforms_equal calls, with its curves built on ``space``
            calls = []

            def recorded(spec1, spec2, grid, tol):
                report = transforms_equal(spec1, spec2, grid, tol)
                calls.append((spec1, spec2, grid, tol, report))
                return report

            monkeypatch.setattr(suites, "make_space", lambda probs: space)
            monkeypatch.setattr(suites, "transforms_equal", recorded)
            suites.SUITES["uniqueness_3_6"](load_scenario(str(ROOT / "scenarios" / "post_widder.json")))
            return calls

        one, many = compared(make_space([1.0])), compared(space)
        assert len(one) == len(many) == 2
        for (base1, other1, grid, tol, report1), (base, other, _, _, report) in zip(one, many):
            assert grid == (1.0, 2.0, 4.0, 8.0)
            assert report.gaps == report1.gaps
            for eta in grid:
                for spec1, spec in ((base1, base), (other1, other)):
                    want = laplace_transform(spec1, eta, tol / 4.0).values
                    got = laplace_transform(spec, eta, tol / 4.0).values
                    np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))
