"""Curve calculus: quadrature, differentiation, certified improper integrals."""

import math
import os
import subprocess
import sys
import time
import warnings
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
import scipy.special

from rnsl import (
    CertificateMissing,
    CurveSampler,
    EtaNotInGxi,
    ExponentialBound,
    L0Scalar,
    MaxPanelsExceeded,
    NonFiniteValue,
    RnVector,
    SpaceMismatch,
    StepUnderflow,
    TailNotCertified,
    damped_weighted_integral,
    damped_weighted_integrals,
    derivative,
    l0_norm,
    make_space,
    riemann_integral,
)
from rnsl import LaplaceSpec, calculus, laplace_transform, stack_specs
from rnsl.calculus import (
    _HORIZON_MARGIN,
    _adaptive,
    _log_tail,
    _panels,
    _tail_root,
    _tail_time,
)
from rnsl.instances import oscillating_decay_specs, rng_for, smooth_curve_family

TOL = 1e-10


def line_curve(space, x: RnVector, a=0.0, b=1.0) -> CurveSampler:
    return CurveSampler(space, x.dim, a, b, lambda u: x.scale(u))


class TestRiemannIntegral:
    def test_linear_curve(self, space2):
        x = RnVector.of(space2, [[1.0, -2.0], [0.5, 3.0]])
        res = riemann_integral(line_curve(space2, x), 0.0, 1.0, TOL)
        np.testing.assert_allclose(res.value.values, 0.5 * x.values, atol=10 * TOL)

    def test_exponential_single_atom(self, space1):
        g = CurveSampler(space1, 1, 0.0, 1.0, lambda u: RnVector.of(space1, [[math.exp(u)]]))
        res = riemann_integral(g, 0.0, 1.0, TOL)
        assert res.value.values[0, 0] == pytest.approx(math.e - 1.0, abs=10 * TOL)

    def test_empty_interval(self, space2):
        x = RnVector.of(space2, [[1.0, 1.0], [1.0, 1.0]])
        res = riemann_integral(line_curve(space2, x), 0.5, 0.5, TOL)
        assert res.est_error == 0.0
        assert res.panels == 0
        np.testing.assert_array_equal(res.value.values, np.zeros((2, 2)))

    def test_panel_budget_exceeded(self, space1, monkeypatch):
        monkeypatch.setattr(calculus, "MAX_PANELS", 8)
        g = CurveSampler(
            space1, 1, 0.0, 1.0,
            lambda u: RnVector.of(space1, [[math.sin(500.0 / (u + 1e-3))]]),
        )
        with pytest.raises(MaxPanelsExceeded):
            riemann_integral(g, 0.0, 1.0, 1e-13)

    def test_panels_within_tolerance_but_not_together_raise(self):
        # two panels at the resolution, each under tol, their sum over it
        def jumps(s):
            on = (s < 3e-13) | ((s >= 1e-12) & (s < 1.3e-12))
            return on.astype(float)[:, None, None]

        errs = [
            _panels(jumps, np.array([a]), np.array([a + 1e-12]), (1, 1))[1].max()
            for a in (0.0, 1e-12)
        ]
        tol = np.array([1.01 * max(errs)])
        assert sum(errs) > tol[0]
        with pytest.raises(StepUnderflow):
            _adaptive(jumps, (1, 1), [0.0, 1e-12, 2e-12], tol)

    def test_stuck_panel_raises_before_panel_budget(self, space1, monkeypatch):
        # the jump's panel reaches the resolution with its error above tol;
        # splitting the smooth panels could never meet the tolerance
        monkeypatch.setattr(calculus, "MAX_PANELS", 5000)
        g = CurveSampler(
            space1, 1, 0.0, 1.0,
            lambda u: RnVector.of(space1, [[1.0 if u < 1.0 / 3.0 else 0.0]]),
        )
        with pytest.raises(StepUnderflow):
            riemann_integral(g, 0.0, 1.0, 1e-14)

    def test_error_estimate_is_nonnegative(self, space2):
        x = RnVector.of(space2, [[1.0, 0.0], [0.0, 1.0]])
        res = riemann_integral(line_curve(space2, x), 0.0, 1.0, TOL)
        assert res.est_error >= 0.0


class TestDerivative:
    def test_quadratic(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [-1.0, 0.5]])
        g = CurveSampler(space2, 2, 0.0, 2.0, lambda u: x.scale(u * u))
        out = derivative(g, 1.0, 1e-4)
        np.testing.assert_allclose(out.values, 2.0 * x.values, atol=1e-8)

    def test_constant_curve(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [-1.0, 0.5]])
        g = CurveSampler(space2, 2, 0.0, 2.0, lambda u: x)
        np.testing.assert_allclose(derivative(g, 1.0, 1e-4).values, 0.0, atol=1e-12)

    def test_exponential_at_zero(self, space1):
        g = CurveSampler(space1, 1, -1.0, 1.0, lambda u: RnVector.of(space1, [[math.exp(u)]]))
        assert derivative(g, 0.0, 1e-4).values[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_step_underflow(self, space1):
        g = CurveSampler(space1, 1, -1.0, 1.0, lambda u: RnVector.of(space1, [[u]]))
        with pytest.raises(StepUnderflow):
            derivative(g, 0.0, 1e-13)


class TestImproperIntegral:
    def test_constant_curve(self, space2):
        x = RnVector.of(space2, [[3.0, 4.0], [1.0, 0.0]])
        bound = ExponentialBound(l0_norm(x), L0Scalar.zero(space2))
        g = CurveSampler(space2, 2, 0.0, math.inf, lambda s: x, bound=bound)
        res = damped_weighted_integral(g, L0Scalar.constant(space2, 2.0), 0, 1e-9)
        np.testing.assert_allclose(res.scaled_value.values, 0.5 * x.values, atol=1e-8)

    def test_per_atom_exponential_rates(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [1.0, 2.0]])
        rates = np.array([0.5, -1.0])
        bound = ExponentialBound(l0_norm(x), L0Scalar.of(space2, rates))

        def h(s: float) -> RnVector:
            return RnVector.of(space2, np.exp(rates * s)[:, None] * x.values)

        g = CurveSampler(space2, 2, 0.0, math.inf, h, bound=bound)
        res = damped_weighted_integral(g, L0Scalar.constant(space2, 2.0), 0, 1e-9)
        want = (1.0 / (2.0 - rates))[:, None] * x.values
        np.testing.assert_allclose(res.scaled_value.values, want, atol=1e-8)

    @pytest.mark.parametrize("call", [
        lambda g, eta: damped_weighted_integral(g, eta, 2, 1e-9).scaled_value,
        lambda g, eta: damped_weighted_integrals(g, [(eta, 0, 1e-9)])[0].scaled_value,
        lambda g, eta: damped_weighted_integral(g, eta, 0, 1e-9).scaled_value,  # the plain transform
    ], ids=["damped_weighted_integral", "damped_weighted_integrals", "improper_integral"])
    def test_a_number_eta_is_a_constant_scalar(self, space2, call):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 0.0]])
        g = CurveSampler.from_batch(
            space2, 2, 0.0, math.inf, lambda s: np.exp(-s)[:, None, None] * x.values,
            bound=ExponentialBound(l0_norm(x), L0Scalar.constant(space2, -1.0)),
        )
        np.testing.assert_array_equal(call(g, 1.0).values, call(g, L0Scalar.constant(space2, 1.0)).values)

    def test_eta_below_xi_names_atom(self, space2):
        x = RnVector.of(space2, [[1.0, 0.0], [1.0, 0.0]])
        bound = ExponentialBound(l0_norm(x), L0Scalar.zero(space2))
        g = CurveSampler(space2, 2, 0.0, math.inf, lambda s: x, bound=bound)
        with pytest.raises(EtaNotInGxi) as exc:
            damped_weighted_integral(g, L0Scalar.of(space2, [2.0, -2.0]), 0, 1e-9)
        assert exc.value.atom == 1

    def test_certificate_required(self, space2):
        x = RnVector.of(space2, [[1.0, 0.0], [1.0, 0.0]])
        g = CurveSampler(space2, 2, 0.0, math.inf, lambda s: x)
        with pytest.raises(CertificateMissing):
            damped_weighted_integral(g, L0Scalar.constant(space2, 2.0), 0, 1e-9)

    def test_uncertifiable_tail_raises(self, space2):
        x = RnVector.of(space2, [[1.0, 0.0], [1.0, 0.0]])
        bound = ExponentialBound(l0_norm(x), L0Scalar.zero(space2))
        g = CurveSampler(space2, 2, 0.0, math.inf, lambda s: x, bound=bound)
        # half the smallest subnormal rounds to 0: no finite horizon meets it
        with pytest.raises(TailNotCertified):
            damped_weighted_integral(g, L0Scalar.constant(space2, 2.0), 0, 5e-324)

    def test_error_messages_print_plain_floats(self, space2):
        # numpy 2 prints a numpy scalar's repr as np.float64(...)
        x = RnVector.of(space2, [[1.0], [1.0]])
        rates = L0Scalar.of(space2, [-2.0, -2.0])
        g = CurveSampler.from_batch(
            space2, 1, 0.0, math.inf,
            lambda s: np.exp(np.outer(s, rates.values))[:, :, None] * x.values,
            bound=ExponentialBound(l0_norm(x), rates),
        )
        rejects = [
            (EtaNotInGxi, lambda: damped_weighted_integral(g, L0Scalar.constant(space2, -2.5), 0, 1e-9)),
            # raw samples underflow near s = 354, where the tail at gamma = 0.01 is still large
            (MaxPanelsExceeded, lambda: damped_weighted_integral(g, L0Scalar.of(space2, [1.0, -1.99]), 0, 1e-9)),
            # a tolerance far below the double resolution of the certified integral
            (MaxPanelsExceeded, lambda: damped_weighted_integral(g, L0Scalar.one(space2), 0, 1e-300)),
        ]
        for error, reject in rejects:
            with pytest.raises(error) as exc:
                reject()
            assert "np.float64" not in str(exc.value) and "(np." not in str(exc.value)

    def test_tolerance_below_resolution_rejected_before_quadrature(self):
        # the double resolution of the scaled certificate integrals, eps
        # times them, is 4e-16 to 7e-15 here; a tolerance under it used to
        # bisect for minutes on its way to the panel budget
        space = make_space(np.full(1024, 1.0 / 1024))
        spec = oscillating_decay_specs(rng_for(3, "resolution"), space, 2, n=1)[0]
        eta = L0Scalar.constant(space, 2.0)
        start = time.perf_counter()
        with pytest.raises(MaxPanelsExceeded, match="double resolution") as exc:
            damped_weighted_integral(spec.curve, eta, 64, 1e-15)
        assert time.perf_counter() - start < 1.0
        gamma = eta.values - spec.curve.bound.xi.values
        log_scaled = calculus._log_certified_integral(spec.curve.bound.M.values, gamma, 64) - calculus._weight_log_scale(64, gamma)
        a = exc.value.atom
        assert f"atom {a}" in str(exc.value)
        assert a == int(np.argmax(calculus._EPS * np.exp(log_scaled) > 1e-15))

    def test_tolerance_held_up_by_roundoff_refused_before_panel_budget(self, monkeypatch):
        # 1e-14 passes the resolution gate, but the rounding of the weight's
        # exponent keeps the Kronrod estimates above it: splits stop gaining,
        # and bisection used to run to the panel budget
        monkeypatch.setattr(calculus, "MAX_PANELS", 20_000)
        space = make_space(np.full(4, 0.25))
        spec = oscillating_decay_specs(rng_for(3, "resolution"), space, 2, n=1)[0]
        with pytest.raises(MaxPanelsExceeded, match="roundoff") as exc:
            damped_weighted_integral(spec.curve, 2.0, 64, 1e-14)
        a = exc.value.atom
        assert a is not None and f"atom {a}" in str(exc.value)

    def test_roundoff_refusal_names_the_atom_of_a_later_weight(self, monkeypatch):
        # 2 weights x 4 atoms at d = 3: only row 4 + 2, atom 2 of the second
        # weight, asks for 1e-14; the rows lie along the values' last axis,
        # so its stall count is kept by row, not by coordinate
        monkeypatch.setattr(calculus, "MAX_PANELS", 20_000)
        space = make_space(np.full(4, 0.25))
        spec = oscillating_decay_specs(rng_for(3, "resolution"), space, 3, n=1)[0]
        tols = np.array([1e-8, 1e-8, 1e-14, 1e-8])
        with pytest.raises(MaxPanelsExceeded, match="roundoff") as exc:
            damped_weighted_integrals(spec.curve, [(2.0, 0, 1e-8), (2.0, 64, tols)])
        assert exc.value.atom == 2 and "atom 2" in str(exc.value)
        tols[2] = 1e-13  # within reach, the same call passes
        damped_weighted_integrals(spec.curve, [(2.0, 0, 1e-8), (2.0, 64, tols)])


class TestZeroDimension:
    """A d = 0 curve integrates to the empty vector, with est_error 0 and no panel."""

    @staticmethod
    def empty_curve(space, end: float) -> CurveSampler:
        return CurveSampler.from_batch(
            space, 0, 0.0, end, lambda s: np.zeros((len(s), space.n_atoms, 0)),
            bound=ExponentialBound.constant(space, 1.0, 0.5),
        )

    def test_riemann_integral(self, space2):
        res = riemann_integral(self.empty_curve(space2, 2.0), 0.0, 2.0, TOL)
        assert res.value.values.shape == (2, 0)
        assert (res.est_error, res.panels) == (0.0, 0)

    def test_damped_weighted_integral(self, space2):
        res = damped_weighted_integral(self.empty_curve(space2, math.inf), 2.0, 3, TOL)
        assert res.scaled_value.values.shape == (2, 0)
        np.testing.assert_array_equal(res.est_error, [0.0, 0.0])
        np.testing.assert_array_equal(res.log_scale, calculus._weight_log_scale(3, np.full(2, 1.5)))
        assert res.panels == 0

    def test_damped_weighted_integrals(self, space2):
        curve = self.empty_curve(space2, math.inf)
        results = damped_weighted_integrals(curve, [(2.0, 0, TOL), (3.0, 64, TOL)])
        assert [r.scaled_value.values.shape for r in results] == [(2, 0), (2, 0)]
        assert all(not r.est_error.any() and r.panels == 0 for r in results)
        with pytest.raises(EtaNotInGxi):  # the weights are still checked
            damped_weighted_integrals(curve, [(2.0, 0, TOL), (0.5, 1, TOL)])

    def test_improper_integral(self, space2):
        res = damped_weighted_integral(self.empty_curve(space2, math.inf), 2.0, 0, TOL)
        assert res.scaled_value.values.shape == (2, 0)
        assert (float(res.est_error.max()), res.panels) == (0.0, 0)


class TestCalculusTheorems:
    """Randomized curve families against the integral/derivative identities."""

    def setup_method(self):
        self.space = make_space([0.1, 0.2, 0.3, 0.4])
        self.rng = rng_for(11, "calculus-tests")

    def test_fundamental_theorem(self):
        for big_g, small_g in smooth_curve_family(self.rng, self.space, 3, n=6):
            res = riemann_integral(small_g, 0.0, 2.0, 1e-9)
            want = big_g(2.0).values - big_g(0.0).values
            gap = np.abs(res.value.values - want).max()
            assert gap <= 1e-8 * (1.0 + np.abs(want).max())

    def test_integral_norm_bound(self):
        for big_g, small_g in smooth_curve_family(self.rng, self.space, 3, n=6):
            vec = riemann_integral(small_g, 0.0, 2.0, 1e-9).value
            norm_curve = CurveSampler(
                self.space, 1,
                0.0, 2.0,
                lambda u: RnVector.of(
                    self.space, l0_norm(small_g(u)).values[:, None]
                ),
            )
            rhs = riemann_integral(norm_curve, 0.0, 2.0, 1e-9).value.values[:, 0]
            assert (l0_norm(vec).values <= rhs + 1e-8).all()

    def test_expectation_commutes_with_integral(self):
        probs = self.space.probs
        for _, small_g in smooth_curve_family(self.rng, self.space, 1, n=6):
            vec = riemann_integral(small_g, 0.0, 2.0, 1e-9).value.values[:, 0]
            mean_curve = CurveSampler(
                self.space, 1,
                0.0, 2.0,
                lambda u: RnVector.of(
                    self.space,
                    np.full((4, 1), float(probs @ small_g(u).values[:, 0])),
                ),
            )
            swapped = riemann_integral(mean_curve, 0.0, 2.0, 1e-9).value.values[0, 0]
            assert abs(float(probs @ vec) - swapped) <= 1e-7

    def test_indefinite_integral_derivative(self):
        for _, small_g in smooth_curve_family(self.rng, self.space, 2, n=4):
            def indefinite(l: float) -> RnVector:
                return riemann_integral(small_g, 0.0, l, 1e-10).value

            big = CurveSampler(self.space, 2, 0.0, 2.0, indefinite)
            mid = 1.1
            got = derivative(big, mid, 1e-4).values
            want = small_g(mid).values
            assert np.abs(got - want).max() <= 1e-6


def without_batch(g: CurveSampler) -> CurveSampler:
    """The same curve sampled through its scalar evaluator only."""
    return CurveSampler(g.space, g.dim, g.start, g.end, g.evaluator, g.bound)


def bounded_wave(rng, space, dim: int) -> CurveSampler:
    """exp(a s) cos(2.5 s) x with a per-atom rate a <= 0, so scaled weights stay O(1)."""
    rates = rng.uniform(-1.0, 0.0, space.n_atoms)
    x = RnVector.of(space, rng.uniform(-1.0, 1.0, (space.n_atoms, dim)))

    def batch(s: np.ndarray) -> np.ndarray:
        return np.exp(np.outer(s, rates))[:, :, None] * np.cos(2.5 * s)[:, None, None] * x.values

    bound = ExponentialBound(l0_norm(x), L0Scalar.of(space, rates))
    return CurveSampler.from_batch(space, dim, 0.0, math.inf, batch, bound=bound)


def uniform_space(atoms: int):
    return make_space(np.full(atoms, 1.0 / atoms))


SHAPES = [(1, 1), (1, 16), (1024, 1), (1024, 16)]


class TestBatchedSampling:
    def test_smooth_family_samples_its_closed_form(self, space4):
        # the closed forms are written out from the same rng draws, and both
        # the batched and the scalar path are checked against them
        n, dim = space4.n_atoms, 3
        ts = np.linspace(0.0, 2.0, 31)
        family = smooth_curve_family(rng_for(3, "batch"), space4, dim, n=4)
        rng = rng_for(3, "batch")
        for big_g, small_g in family:
            w = float(rng.uniform(0.5, 3.0))
            al = float(rng.uniform(-1.0, 0.8))
            x, y, z = (rng.uniform(-1.0, 1.0, (n, dim)) for _ in range(3))
            want_big = np.stack(
                [math.sin(w * u) * x + math.exp(al * u) * y + u**3 * z for u in ts]
            )
            want_small = np.stack(
                [
                    w * math.cos(w * u) * x + al * math.exp(al * u) * y + 3.0 * u**2 * z
                    for u in ts
                ]
            )
            for g, want in ((big_g, want_big), (small_g, want_small)):
                assert g.batch is not None
                np.testing.assert_allclose(g.sample(ts), want, rtol=1e-14, atol=1e-14)
                stacked = np.stack([g(float(t)).values for t in ts])
                np.testing.assert_allclose(stacked, want, rtol=1e-14, atol=1e-14)

    def test_fallback_stacks_scalar_calls(self, space2):
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        g = line_curve(space2, x)
        got = g.sample([0.0, 0.5, 1.0])
        assert got.shape == (3, 2, 2)
        np.testing.assert_array_equal(got[1], 0.5 * x.values)

    def test_wrong_batch_shape_raises(self, space2):
        g = CurveSampler.from_batch(
            space2, 2, 0.0, 1.0, lambda ts: np.zeros((len(ts), 2, 3))
        )
        with pytest.raises(SpaceMismatch):
            g.sample(np.linspace(0.0, 1.0, 5))
        with pytest.raises(SpaceMismatch):
            riemann_integral(g, 0.0, 1.0, TOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_raises(self, space2, bad):
        def batch(ts):
            out = np.ones((len(ts), 2, 2))
            out[-1, 1, 0] = bad
            return out

        g = CurveSampler.from_batch(space2, 2, 0.0, 1.0, batch)
        with pytest.raises(NonFiniteValue):
            g.sample(np.linspace(0.0, 1.0, 5))
        with pytest.raises(NonFiniteValue):
            riemann_integral(g, 0.0, 1.0, TOL)

    @pytest.mark.parametrize("atoms,dim", SHAPES)
    def test_riemann_batched_equals_scalar(self, atoms, dim):
        space = uniform_space(atoms)
        _, g = smooth_curve_family(rng_for(atoms, "riemann-batch"), space, dim, n=1)[0]
        fast = riemann_integral(g, 0.0, 2.0, 1e-10)
        slow = riemann_integral(without_batch(g), 0.0, 2.0, 1e-10)
        assert fast.panels == slow.panels
        np.testing.assert_allclose(fast.value.values, slow.value.values, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("k", [0, 64, 1024])
    @pytest.mark.parametrize("atoms,dim", SHAPES)
    def test_damped_batched_equals_scalar(self, atoms, dim, k):
        space = uniform_space(atoms)
        g = bounded_wave(rng_for(atoms, "damped-batch"), space, dim)
        eta = L0Scalar.constant(space, 2.0)
        fast = damped_weighted_integral(g, eta, k, 1e-10)
        slow = damped_weighted_integral(without_batch(g), eta, k, 1e-10)
        assert fast.panels == slow.panels
        np.testing.assert_array_equal(fast.log_scale, slow.log_scale)
        np.testing.assert_allclose(
            fast.scaled_value.values, slow.scaled_value.values, rtol=0, atol=1e-13
        )


def layout_batch(rates: np.ndarray, x: np.ndarray, layout: str):
    """exp(a s) cos(2.5 s) x, x of shape (dim, atoms), as a batch that returns the given memory layout.

    The values are the same numbers in every layout: a C-contiguous (times,
    atoms, dim) array, a transposed view of (times, dim, atoms) memory, or
    a strided slice of a wider array.
    """

    def batch(s: np.ndarray) -> np.ndarray:
        rows_inner = np.exp(np.outer(s, rates))[:, None, :] * np.cos(2.5 * s)[:, None, None] * x
        if layout == "contiguous":
            return np.ascontiguousarray(rows_inner.transpose(0, 2, 1))
        if layout == "transposed":
            return rows_inner.transpose(0, 2, 1)
        wide = np.zeros((len(s), x.shape[1], 2 * x.shape[0]))
        wide[:, :, 1::2] = rows_inner.transpose(0, 2, 1)
        return wide[:, :, 1::2]

    return batch


LAYOUTS = ("contiguous", "transposed", "sliced")


class TestSampleLayout:
    """The memory layout a batch returns reaches no value: results agree bit for bit."""

    @staticmethod
    def results(atoms: int, dim: int, layout: str) -> list[np.ndarray]:
        rng = rng_for(16 * atoms + dim, "layout")
        space = uniform_space(atoms)
        rates = rng.uniform(-1.0, 0.0, atoms)
        x = rng.uniform(-1.0, 1.0, (dim, atoms))
        batch = layout_batch(rates, x, layout)
        bound = ExponentialBound(
            L0Scalar.of(space, 2.0 * np.sqrt((x * x).sum(axis=0))), L0Scalar.of(space, rates)
        )
        finite = CurveSampler.from_batch(space, dim, 0.0, 2.0, batch)
        curve = CurveSampler.from_batch(space, dim, 0.0, math.inf, batch, bound=bound)
        quad = riemann_integral(finite, 0.0, 2.0, 1e-10)
        out = [quad.value.values, np.array([quad.est_error, quad.panels])]
        for res in damped_weighted_integrals(curve, [(1.5, 0, 1e-10), (2.0, 64, 1e-9)]):
            out += [res.scaled_value.values, res.log_scale, res.est_error, np.array([res.panels])]
        stack = stack_specs([LaplaceSpec(curve), LaplaceSpec(curve)])
        out.append(laplace_transform(stack, 1.5, 1e-10).values)
        return out

    @pytest.mark.parametrize("atoms", [1, 64])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_layouts_give_equal_bits(self, atoms, dim):
        want = self.results(atoms, dim, "contiguous")
        for layout in LAYOUTS[1:]:
            got = self.results(atoms, dim, layout)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), layout


class TestOneCallPerRound:
    @pytest.mark.parametrize("atoms,dim", SHAPES)
    def test_panels_in_one_call_equal_one_panel_calls(self, atoms, dim):
        space = uniform_space(atoms)
        g, _ = smooth_curve_family(rng_for(atoms, "one-call"), space, dim, n=1)[0]
        edges = np.sort(np.random.default_rng(atoms).uniform(-2.0, 5.0, 12))
        k15, err = _panels(g.sample, edges[:-1], edges[1:], (atoms, dim))
        one = [
            _panels(g.sample, edges[i : i + 1], edges[i + 1 : i + 2], (atoms, dim))
            for i in range(11)
        ]
        scale = 1e-15 * np.abs(k15).max()
        np.testing.assert_allclose(k15, np.concatenate([o[0] for o in one]), rtol=0, atol=scale)
        np.testing.assert_allclose(err, np.concatenate([o[1] for o in one]), rtol=0, atol=scale)

    @pytest.mark.parametrize("atoms,dim", SHAPES)
    def test_chunks_are_bitwise_neutral(self, atoms, dim, monkeypatch):
        space = uniform_space(atoms)
        g, _ = smooth_curve_family(rng_for(atoms, "chunks"), space, dim, n=1)[0]
        edges = np.sort(np.random.default_rng(atoms).uniform(-2.0, 5.0, 13))
        panel_bytes = 15 * 8 * atoms * dim
        calls = []

        def values_at(s):
            calls.append(len(s) // 15)
            return g.sample(s)

        def run(budget_panels):
            monkeypatch.setattr(calculus, "_CHUNK_BYTES", int(budget_panels * panel_bytes))
            calls.clear()
            return _panels(values_at, edges[:-1], edges[1:], (atoms, dim))

        whole = run(12)
        assert calls == [12]
        # a budget of five panels' values leaves a short last chunk; one
        # below a panel's values still samples a panel a call.  numpy takes
        # a one-column product as a matrix-vector product, whose rounding
        # differs, so one-panel chunks of a single value are left out: the
        # real budget cuts a 1 x 1 round that fine only past 2,184 panels
        budgets = [(5, [5, 5, 2])] + [(0.5, [1] * 12)] * (atoms * dim > 1)
        for budget, chunks in budgets:
            chunked = run(budget)
            assert calls == chunks
            for got, want in zip(chunked, whole):
                np.testing.assert_array_equal(got, want)

    # panel counts of the loop that sampled one panel per call, for the three
    # curve pairs of smooth_curve_family on [-3, 9] at tolerance 1e-11
    RIEMANN_PANELS = {
        (1, 1): [4, 4, 3, 4, 3, 4],
        (1, 16): [4, 4, 4, 5, 3, 4],
        (1024, 1): [8, 8, 9, 16, 9, 16],
        (1024, 16): [8, 8, 5, 8, 8, 16],
    }

    @pytest.mark.parametrize("atoms,dim", SHAPES)
    def test_riemann_panel_counts_unchanged(self, atoms, dim):
        space = uniform_space(atoms)
        family = smooth_curve_family(rng_for(atoms, "riemann-panels"), space, dim, n=3)
        got = [riemann_integral(g, -3.0, 9.0, 1e-11).panels for pair in family for g in pair]
        assert got == self.RIEMANN_PANELS[atoms, dim]


def exponential_orbit(rng, atoms: int, dim: int, k: int):
    """h(s) = e^(a s) x per atom, with eta - a spread over 100x; returns (curve, eta)."""
    space = uniform_space(atoms)
    gamma = np.geomspace(0.05, 5.0, atoms) if atoms > 1 else np.array([0.7])
    # eta = gamma + a lies within gamma/(k+1) of gamma, so (eta/gamma)^k stays
    # above e^-1 and every scaled value stays representable up to k = 1024
    rates = -gamma * rng.uniform(0.0, 0.9, atoms) / (k + 1.0)
    x = rng.uniform(-1.0, 1.0, (atoms, dim))

    def batch(s: np.ndarray) -> np.ndarray:
        return np.exp(np.outer(s, rates))[:, :, None] * x

    bound = ExponentialBound(l0_norm(RnVector.of(space, x)), L0Scalar.of(space, rates))
    curve = CurveSampler.from_batch(space, dim, 0.0, math.inf, batch, bound=bound)
    return curve, L0Scalar.of(space, rates + gamma)


def decimal_scaled_integral(k: int, eta, rates, log_scale) -> np.ndarray:
    """k! (eta - a)^-(k+1) e^-log_scale per atom in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        log_fact = sum((Decimal(j).ln() for j in range(2, k + 1)), Decimal(0))
        return np.array([
            float((log_fact - (k + 1) * (Decimal(e) - Decimal(a)).ln() - Decimal(ls)).exp())
            for e, a, ls in zip(eta, rates, log_scale)
        ])


# seeded panels allowed per call at eta spread 100x, whatever the atom count
SEED_PANEL_BOUND = 100


class TestDampedOracle:
    """int_0^inf s^k e^(-eta s) e^(a s) x ds = k! (eta - a)^-(k+1) x per atom."""

    @pytest.mark.parametrize("k", [0, 1, 64, 1024])
    @pytest.mark.parametrize("atoms,dim", [(1, 1), (1, 16), (64, 1), (64, 16), (1024, 1)])
    def test_exact_value_within_estimate(self, atoms, dim, k, monkeypatch):
        curve, eta = exponential_orbit(rng_for(atoms + k, "oracle"), atoms, dim, k)
        rates = curve.bound.xi.values
        seeded = []

        def adaptive(values_at, shape, breaks, tol_per_atom):
            seeded.append(len(breaks) - 1)
            return _adaptive(values_at, shape, breaks, tol_per_atom)

        monkeypatch.setattr(calculus, "_adaptive", adaptive)
        log_scale = calculus._weight_log_scale(k, eta.values - rates)
        scaled = decimal_scaled_integral(k, eta.values, rates, log_scale)
        tol = 1e-10 * scaled  # relative to each atom's scaled integral
        res = damped_weighted_integral(curve, eta, k, tol)
        assert np.array_equal(res.log_scale, log_scale)
        exact = scaled[:, None] * curve.sample([0.0])[0]
        error = np.abs(res.scaled_value.values - exact).max(axis=1)
        assert (error <= res.est_error).all()
        assert (res.est_error <= tol).all()
        assert seeded[0] <= SEED_PANEL_BOUND


    @pytest.mark.parametrize("k", [1, 8])
    def test_nonpositive_eta_above_xi_is_integrated(self, k):
        # eta = -1 > xi = -2: the weight is scaled at its peak k / (eta - xi)
        space = uniform_space(2)
        x = RnVector.of(space, [[1.0], [1.0]])
        rates = L0Scalar.of(space, [-2.0, -2.0])
        curve = CurveSampler.from_batch(
            space, 1, 0.0, math.inf,
            lambda s: np.exp(np.outer(s, rates.values))[:, :, None] * x.values,
            bound=ExponentialBound(l0_norm(x), rates),
        )
        eta = L0Scalar.of(space, [1.0, -1.0])
        log_scale = calculus._weight_log_scale(k, eta.values - rates.values)
        scaled = decimal_scaled_integral(k, eta.values, rates.values, log_scale)
        res = damped_weighted_integral(curve, eta, k, 1e-10 * scaled)
        np.testing.assert_array_equal(res.log_scale, log_scale)
        assert (np.abs(res.scaled_value.values[:, 0] - scaled) <= res.est_error).all()
        assert (res.est_error <= 1e-10 * scaled).all()


class TestRawSampleRefusal:
    """Raw samples h(s) that leave the double range before the horizon refuse; the damped profile answers."""

    @staticmethod
    def decay(M: float, a: float) -> CurveSampler:
        space = uniform_space(1)
        return CurveSampler.from_batch(
            space, 1, 0.0, math.inf, lambda s: M * np.exp(a * s)[:, None, None],
            bound=ExponentialBound.constant(space, M, a),
        )

    @pytest.mark.parametrize("M", [5.8e-140, 1e-200])
    def test_underflowing_samples_refuse_before_the_panels(self, M, monkeypatch):
        # h = M e^(-0.8 s) at eta = -0.7656: the sample underflows while
        # e^(-eta s) h(s) = M e^(-gamma s) is still above the tolerance
        eta, gamma = -0.7656, 0.0344
        tol = 1e-9 * M / gamma
        damped = damped_weighted_integral(self.decay(M, 0.0), gamma, 0, tol)
        assert abs(damped.scaled_value.values[0, 0] - M / gamma) <= tol

        def unreachable(*args, **kwargs):
            raise AssertionError("the refusal must come before the first panel")

        monkeypatch.setattr(calculus, "_adaptive", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MaxPanelsExceeded, match="atom 0.*damped profile") as exc:
                damped_weighted_integral(self.decay(M, -0.8), eta, 0, tol)
        assert exc.value.atom == 0

    def test_overflowing_weight_refuses_without_a_warning(self):
        # e^(-100 s) at eta = -99: the weight e^(99 s) and the sample leave the
        # range near s = 7.08, where the tail is 8.4e-4 of the whole
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MaxPanelsExceeded, match=r"s=7\.08.* on atom 0") as exc:
                damped_weighted_integral(self.decay(1.0, -100.0), -99.0, 0, 1e-9)
            assert exc.value.atom == 0
            res = damped_weighted_integral(self.decay(1.0, 0.0), 1.0, 0, 1e-9)
        assert abs(res.scaled_value.values[0, 0] - 1.0) <= 1e-9

    def test_reach_per_atom(self):
        space = uniform_space(5)
        bound = ExponentialBound(
            L0Scalar.of(space, [1.0, 1.0, 1.0, 0.0, 1e-310]),
            L0Scalar.of(space, [-100.0, 0.0, 8.0, -1.0, 0.0]),
        )
        reach = calculus._sample_reach(bound)
        assert reach[0] == pytest.approx(-calculus._LOG_TINY / 100.0)
        assert reach[1] == math.inf
        assert reach[2] == pytest.approx(709.0 / 8.0)
        assert reach[3] == reach[4] == 0.0  # M = 0 and a subnormal M hold no normal sample


# (k, eta / gamma) per weight: orders 0 to 1024 at damping spread 16x
MIXED_WEIGHTS = [(0, 4.0), (1, 0.5), (64, 2.0), (1024, 1.0), (0, 0.25), (64, 0.5)]


def failing_curve() -> CurveSampler:
    """A certified 3-atom curve, e^(-2 s) per atom, that raises when sampled."""
    space = uniform_space(3)

    def batch(s):
        raise AssertionError("sampled before every weight was checked")

    bound = ExponentialBound(L0Scalar.constant(space, 1.0), L0Scalar.constant(space, -2.0))
    return CurveSampler.from_batch(space, 1, 0.0, math.inf, batch, bound=bound)


def own_seeds(plan) -> np.ndarray:
    """A weight's seeds as one weight alone draws them: on its own lattice, with its atoms' own
    horizons snapped up, or unsnapped at k = 0 with the horizons snapped up to powers of 2."""
    if plan.k == 0:
        points = np.array([1.0, 5.0]) / float(plan.gamma.min())
        return np.array(sorted(set(points.tolist()) | set(np.exp2(np.ceil(np.log2(plan.own))).tolist())))
    offsets = np.array([-6.0, -2.0, 0.0, 2.0, 6.0])[:, None]
    seeds = (plan.k + offsets * math.sqrt(plan.k)) / plan.gamma
    rho = 1.0 + 2.0 / math.sqrt(plan.k)
    lattice = set(np.rint(np.log(seeds[seeds > 0.0]) / math.log(rho)).tolist())
    lattice |= set(np.ceil(np.log(plan.own) / math.log(rho)).tolist())
    return rho ** np.array(sorted(lattice))


def seed_points(plan) -> np.ndarray:
    """A weight's unsnapped seed points: around each atom's peak, or 1 and 5 over gamma_min at k = 0."""
    if plan.k == 0:
        return np.array([1.0, 5.0]) / float(plan.gamma.min())
    offsets = np.array([-6.0, -2.0, 0.0, 2.0, 6.0])[:, None]
    points = (plan.k + offsets * math.sqrt(plan.k)) / plan.gamma
    return points[points > 0.0]


def recorded_breaks(monkeypatch) -> list:
    """The break lists that calls of calculus._adaptive get, from now on."""
    seen = []

    def adaptive(values_at, shape, breaks, tol_per_atom):
        seen.append(list(breaks))
        return _adaptive(values_at, shape, breaks, tol_per_atom)

    monkeypatch.setattr(calculus, "_adaptive", adaptive)
    return seen


class TestSharedPanels:
    """damped_weighted_integrals: every weight on one panel set and one sample a chunk."""

    @pytest.mark.parametrize("k", [0, 1, 64, 1024])
    def test_one_weights_breaks_are_its_own_seeds(self, k, monkeypatch):
        curve, eta = exponential_orbit(rng_for(k, "one-weight"), 64, 4, k)
        seen = recorded_breaks(monkeypatch)
        damped_weighted_integral(curve, eta, k, 1e-9)
        plan = calculus._checked_weight(curve.bound, eta, k, 1e-9)
        want = [0.0] + [s for s in sorted(own_seeds(plan).tolist()) if s < plan.horizon] + [plan.horizon]
        assert seen == [want]  # bitwise

    def test_mixed_orders_share_the_finest_lattice(self, monkeypatch):
        # the route integrals' shape: k = 0, 1, 2 at four damping levels
        curve, eta = exponential_orbit(rng_for(2, "lattice"), 64, 4, 2)
        weights = [
            (L0Scalar.of(curve.space, c * eta.values), k, 1e-9)
            for c in (1.0, 2.0, 4.0, 8.0)
            for k in (0, 1, 2)
        ]
        seen = recorded_breaks(monkeypatch)
        damped_weighted_integrals(curve, weights)
        plans = [calculus._checked_weight(curve.bound, e, k, tol) for e, k, tol in weights]
        horizon = max(p.horizon for p in plans)
        edges = np.array(seen[0][1:-1])
        rho = 1.0 + 2.0 / math.sqrt(2.0)
        assert (edges[1:] / edges[:-1] >= rho * (1.0 - 1e-12)).all()  # no near-duplicate edges
        for plan in plans:
            points = seed_points(plan)
            points = points[points * math.sqrt(rho) < horizon]
            nearest = np.abs(np.log(points[:, None] / edges[None, :])).min(axis=1)
            assert (nearest <= 0.5 * math.log(rho) * (1.0 + 1e-12)).all()
        # one lattice leaves fewer edges than each weight's own seeds would
        assert len(edges) < len(set().union(*(own_seeds(p).tolist() for p in plans)))

    @pytest.mark.parametrize("atoms,dim", [(1, 1), (64, 16), (1024, 1)])
    def test_mixed_weights_within_estimate(self, atoms, dim):
        # rates built for k = 1024 keep every weight's scaled value representable
        curve, eta = exponential_orbit(rng_for(atoms, "shared"), atoms, dim, 1024)
        rates = curve.bound.xi.values
        gamma = eta.values - rates
        weights, scaled = [], []
        for k, ratio in MIXED_WEIGHTS:
            ev = rates + ratio * gamma
            scaled.append(decimal_scaled_integral(k, ev, rates, calculus._weight_log_scale(k, ratio * gamma)))
            weights.append((L0Scalar.of(curve.space, ev), k, 1e-10 * scaled[-1]))
        results = damped_weighted_integrals(curve, weights)
        x = curve.sample([0.0])[0]
        for res, (_, _, tol), want in zip(results, weights, scaled):
            error = np.abs(res.scaled_value.values - want[:, None] * x).max(axis=1)
            assert (error <= res.est_error).all()
            assert (res.est_error <= tol).all()
        assert len({res.panels for res in results}) == 1

    @pytest.mark.parametrize("k", [0, 1, 64, 1024])
    def test_one_weight_is_the_single_call(self, k):
        curve, eta = exponential_orbit(rng_for(k, "one-weight"), 64, 4, k)
        one = damped_weighted_integral(curve, eta, k, 1e-9)
        [res] = damped_weighted_integrals(curve, [(eta, k, 1e-9)])
        assert res.panels == one.panels
        for got, want in (
            (res.scaled_value.values, one.scaled_value.values),
            (res.log_scale, one.log_scale),
            (res.est_error, one.est_error),
        ):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("eta,k,tol", [
        ([1.0, -3.0, 1.0], 1, 1e-8),  # eta <= xi on atom 1
        ([1.0, 1.0, -1.99], 1, 1e-8),  # raw samples leave the double range too early on atom 2
        ([1.0, 1.0, 1.0], 0, [1e-8, 1e-30, 1e-8]),  # below the resolution on atom 1
        ([1.0, 1.0, 1.0], -1, 1e-8),
        ([1.0, 1.0, 1.0], 2, [1e-8, 0.0, 1e-8]),
    ])
    def test_bad_weight_raises_the_single_error_before_sampling(self, eta, k, tol):
        curve = failing_curve()
        bad = (L0Scalar.of(curve.space, eta), k, tol)
        good = (L0Scalar.constant(curve.space, 1.0), 3, 1e-8)
        with pytest.raises(Exception) as single:
            damped_weighted_integral(curve, *bad)
        with pytest.raises(single.type) as shared:
            damped_weighted_integrals(curve, [good, bad, good])
        assert not isinstance(single.value, AssertionError)
        assert str(shared.value) == str(single.value)
        assert getattr(shared.value, "atom", None) == getattr(single.value, "atom", None)


def test_wide_high_order_call_stays_within_its_memory():
    # 84 seeded panels of 1024 atoms x 16 values: sampled at once, one round
    # held three copies of them and raised the max RSS by about 360 MB
    script = """
import math, resource
import numpy as np
from rnsl import (CurveSampler, ExponentialBound, L0Scalar, RnVector, l0_norm,
                  make_space, damped_weighted_integral)
atoms, dim, k = 1024, 16, 1024
space = make_space(np.full(atoms, 1.0 / atoms))
rng = np.random.default_rng(7)
gamma = np.geomspace(0.05, 5.0, atoms)
rates = -gamma * rng.uniform(0.0, 0.9, atoms) / (k + 1.0)
x = rng.uniform(-1.0, 1.0, (atoms, dim))
curve = CurveSampler.from_batch(
    space, dim, 0.0, math.inf, lambda s: np.exp(np.outer(s, rates))[:, :, None] * x,
    bound=ExponentialBound(l0_norm(RnVector.of(space, x)), L0Scalar.of(space, rates)),
)
eta = L0Scalar.of(space, rates + gamma)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
res = damped_weighted_integral(curve, eta, k, 1e-6)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024, res.panels)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    grown_mb, panels = done.stdout.split()
    assert int(panels) >= 84
    assert float(grown_mb) < 150.0


GAMMA_ORDERS = [0, 1, 2, 8, 64, 512, 1024]


def mp_log_q(k: int, x: float) -> float:
    """log Q(k+1, x), the regularized upper incomplete gamma function, at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.gammainc(k + 1, a=x, regularized=True)))


class TestClosedFormGamma:
    """The tangent-line bound on the gamma tail and its horizon, against scipy.special and mpmath."""

    @pytest.mark.parametrize("k", GAMMA_ORDERS)
    def test_tail_bound_covers_the_exact_tail(self, k):
        xs = k + np.geomspace(1e-6, 3.0 * (k + 1) + 700.0, 2000)
        ours = _log_tail(k, xs)
        want = scipy.special.gammaincc(k + 1.0, xs)
        normal = want > 1e-300
        assert normal.sum() > 1000
        logs = np.log(want[normal])
        slack = 1e-12 * np.maximum(1.0, np.abs(logs))
        assert (ours[normal] >= logs - slack).all()
        if k == 0:  # the tangent of a linear exponent is the exponent itself
            assert (np.abs(ours[normal] - logs) <= slack).all()
        # where Q underflows in double precision, the bound still holds
        for x in xs[~normal][:: max(1, (~normal).sum() // 8)]:
            want_log = mp_log_q(k, float(x))
            got = _log_tail(k, np.array([x]))[0]
            assert got >= want_log - 1e-12 * abs(want_log)
            if k == 0:
                assert abs(got - want_log) <= 1e-12 * abs(want_log)

    @pytest.mark.parametrize("k", GAMMA_ORDERS)
    def test_tail_time_certifies_without_doubling(self, k, rng):
        gamma = rng.uniform(0.05, 3.0, 64)
        log_target = np.log(np.geomspace(1e-250, 0.9, 64))
        rng.shuffle(log_target)
        T, own = _tail_time(gamma, k, log_target)
        assert (_log_tail(k, gamma * T) <= log_target).all()
        assert (_log_tail(k, gamma * own) <= log_target).all()  # each atom's own horizon certifies it
        assert np.array_equal(own, _tail_root(k, log_target) / gamma * (1.0 + _HORIZON_MARGIN))
        a = k + 1.0
        reach = float(np.max(_tail_root(k, log_target) / gamma)) * (1.0 + _HORIZON_MARGIN)
        assert T == max(reach, 0.5 * float(np.max(a / gamma)), 1e-3)
        inverse = scipy.special.gammainccinv(a, np.exp(log_target)) / gamma
        exact = max(inverse.max(), 0.5 * (a / gamma).max(), 1e-3)
        assert exact <= T <= 1.1 * exact

    def test_root_at_k_0_takes_no_step_on_a_target_above_the_integral(self, monkeypatch):
        calls = []

        def counted(k, x):
            calls.append(len(x))
            return _log_tail(k, x)

        monkeypatch.setattr(calculus, "_log_tail", counted)
        roots = _tail_root(0, np.array([-20.0, 0.0, 3.0]))
        assert np.array_equal(roots, [20.0, 0.0, 0.0])
        assert calls == [1, 1]  # the two steps of the first atom alone
        gamma = np.array([0.5, 2.0, 4.0])
        assert _tail_time(gamma, 0, np.zeros(3))[0] == 1.0  # the floor 1 / (2 min gamma)

    @pytest.mark.parametrize("k", GAMMA_ORDERS)
    def test_tail_time_is_batch_neutral(self, k, rng):
        gamma = rng.uniform(0.01, 10.0, 64)
        log_target = rng.uniform(-3000.0, 0.5, 64)
        T, own = _tail_time(gamma, k, log_target)
        assert (_log_tail(k, gamma * T) <= log_target).all()
        singles = [_tail_time(gamma[[a]], k, log_target[[a]])[0] for a in range(64)]
        assert T == max(singles)
        subset = np.union1d(rng.choice(64, 8, replace=False), [int(np.argmax(singles))])
        T_sub, own_sub = _tail_time(gamma[subset], k, log_target[subset])
        assert T_sub == T
        assert np.array_equal(own_sub, own[subset])


def test_panels_split_by_error_over_their_rows_tolerance(monkeypatch):
    # four atoms of scales 1e-8 to 1e29 take 4 panels each alone; keyed by
    # absolute error, the joint call kept splitting the largest atom's
    # panels, which had passed, until the panel budget
    monkeypatch.setattr(calculus, "MAX_PANELS", 5000)
    M = np.array([5.37e-6, 1.36e29, 5.49e-8, 1.03e4])
    rates = np.array([-3.66, -0.97, -2.97, -2.38])
    gamma = np.array([13.4, 0.3, 1.58, 85.6])
    space = uniform_space(4)
    curve = CurveSampler.from_batch(
        space, 1, 0.0, math.inf, lambda s: (M * np.exp(np.outer(s, rates)))[:, :, None],
        bound=ExponentialBound(L0Scalar.of(space, M), L0Scalar.of(space, rates)),
    )
    tol = 1e-9 * M / gamma
    res = damped_weighted_integral(curve, L0Scalar.of(space, rates + gamma), 0, tol)
    assert res.panels <= 4 * 4  # no more than the four calls alone take together
    assert (np.abs(res.scaled_value.values[:, 0] - M / gamma) <= tol).all()


def test_one_atom_keeps_its_horizon_in_a_batch():
    # a root-finder that stops only once every atom's step is small moves
    # atom 0's horizon here by about 1e-13 with atom 1 beside it
    gamma = np.array([0.48, 3.25])
    log_target = np.array([-0.6, -19.8])
    T, _ = _tail_time(gamma, 1024, log_target)
    assert (_log_tail(1024, gamma * T) <= log_target).all()
    assert T == _tail_time(gamma[:1], 1024, log_target[:1])[0]
    assert T > _tail_time(gamma[1:], 1024, log_target[1:])[0]
