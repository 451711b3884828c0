"""Operator families: construction gates, resolvents, generation conditions."""

import inspect
import itertools
import math
import warnings

import numpy as np
import pytest

from rnsl import (
    BoundViolated,
    EtaInSpectrum,
    EtaNotInGxi,
    ExponentialBound,
    L0Operator,
    L0Scalar,
    NegativeTime,
    NonCommuting,
    NonFiniteValue,
    NotInjective,
    RnVector,
    abel_limit_check,
    c_resolvent_direct,
    c_resolvent_integral,
    check_injective,
    direct_value_problem,
    evaluate,
    hille_yosida_report,
    l0_norm,
    make_matrix_semigroup,
    make_space,
    matrix_exp,
    matrix_exp_times,
    op_apply,
    op_norm,
    resolvent_operator,
    riemann_integral,
    solve_acp,
    yosida_approximant,
)
from rnsl import semigroup as semigroup_module
from rnsl.calculus import CurveSampler, _checked_weight, damped_weighted_integral
from rnsl.instances import random_commuting_pair, random_vector, rng_for
from rnsl.laplace import LaplaceSpec
from rnsl.rn import GROWTH_SLACK, _check_envelope, block_norms, exp_norm_bounds, log_norm_bounds, spectral_norms
from rnsl.scenario import TOLERANCES, scenario_from_dict
from rnsl.suites import SUITES


def diag_semigroup(space):
    """Per-atom scalar rates (0.5, -1) with C = identity and a tight envelope."""
    A = L0Operator.of(space, [[[0.5]], [[-1.0]]])
    C = L0Operator.identity(space, 1)
    bound = ExponentialBound(
        L0Scalar.one(space), L0Scalar.of(space, [0.5, -1.0])
    )
    return A, C, bound, make_matrix_semigroup(A, C, bound)


def exact_growth_gate(A, C, bound):
    """The growth check with exact norms of every block, as before certified bounds."""
    ts = np.linspace(0.0, semigroup_module.GROWTH_HORIZON, semigroup_module.GROWTH_SAMPLES)
    norms = spectral_norms(matrix_exp_times(A, ts) @ C.matrices)
    _check_envelope(
        "family", "t", ts, norms, bound.envelope(ts), A.dim, check_injective(C).max_sv, np.arange(A.space.n_atoms)
    )


def growth_loop(A, C, bound):
    """The growth gate one time at a time, with exact norms of matrix_exp(A, t) C."""
    c_norms, atoms = check_injective(C).max_sv, np.arange(A.space.n_atoms)
    for t in np.linspace(0.0, semigroup_module.GROWTH_HORIZON, semigroup_module.GROWTH_SAMPLES):
        norms = op_norm(matrix_exp(A, float(t)) @ C).values
        _check_envelope("family", "t", t[None], norms[None], bound.envelope(t)[None], A.dim, c_norms, atoms)


def growth_outcome(check, A, C, bound):
    """"passed", or the message, time and atom of the BoundViolated that ``check`` raises.

    An overflow gives its error's message.
    """
    try:
        check(A, C, bound)
    except BoundViolated as exc:
        return str(exc), exc.t, exc.atom
    except NonFiniteValue as exc:
        return str(exc)
    return "passed"


def check_growth(A, C, bound):
    """The growth gate, given ||C|| from the injectivity SVD as make_matrix_semigroup gives it."""
    semigroup_module._check_growth(A, C, bound, check_injective(C).max_sv)


def gate_outcome(A, C, bound):
    """The growth gate's outcome, after checking that both reference gates agree with it."""
    got = growth_outcome(check_growth, A, C, bound)
    assert got == growth_outcome(exact_growth_gate, A, C, bound)
    assert got == growth_outcome(growth_loop, A, C, bound)
    return got


def settled_atoms(A, C, bound) -> np.ndarray:
    """The atoms the logarithmic-norm tier settles at every time of the gate."""
    ts = np.linspace(0.0, semigroup_module.GROWTH_HORIZON, semigroup_module.GROWTH_SAMPLES)
    bounds = exp_norm_bounds(A.matrices, check_injective(C).max_sv, ts)
    envelope = GROWTH_SLACK * bound.envelope(ts)
    return ((bounds <= envelope) & np.isfinite(bounds)).all(axis=0)


def jordan_stack(space, dim, rng):
    """Per atom A = r (-I/4 + N) for a random r in [0.5, 2] and C = I + A/2: non-normal and commuting."""
    r = rng.uniform(0.5, 2.0, space.n_atoms)[:, None, None]
    a = r * (-0.25 * np.eye(dim) + np.eye(dim, k=1))
    return L0Operator.of(space, a), L0Operator.of(space, np.eye(dim) + 0.5 * a)


class TestLogNormTier:
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_non_normal_jordan_pairs_settle_no_atom(self, dim):
        space = make_space(np.full(8, 1.0 / 8))
        A, C = jordan_stack(space, dim, np.random.default_rng(dim))
        # mu_2(A) >= r/4 is above the spectral abscissa -r/4, so ||C|| exp(t mu_2)
        # outgrows the envelope M of the family, which rises and then decays
        assert (log_norm_bounds(A.matrices) >= 0.125).all()
        ts = np.linspace(0.0, semigroup_module.GROWTH_HORIZON, semigroup_module.GROWTH_SAMPLES)
        top = spectral_norms(matrix_exp_times(A, ts) @ C.matrices).max(axis=0)
        for factor, passes in ((1.01, True), (0.99, False)):
            bound = ExponentialBound(L0Scalar.of(space, factor * top), L0Scalar.zero(space))
            assert not settled_atoms(A, C, bound).any()
            assert (gate_outcome(A, C, bound) == "passed") == passes

    def test_mixed_stack_settles_all_but_the_escaping_atom(self):
        space = make_space(np.full(8, 1.0 / 8))
        A, C, bound = random_commuting_pair(rng_for(5, "tier"), space, 4)
        xi = bound.xi.values.copy()
        xi[5] -= 0.05  # atom 5's envelope falls behind its family after t = 0
        bound = ExponentialBound(bound.M, L0Scalar.of(space, xi))
        assert settled_atoms(A, C, bound).tolist() == [a != 5 for a in range(8)]
        outcome = gate_outcome(A, C, bound)
        assert outcome[2] == 5 and outcome[1] > 0.0

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_scaled_generators(self, scale):
        space = make_space(np.full(16, 1.0 / 16))
        # rates within +-0.05 keep exp(10 * 1e3 * rate) finite and normal; from
        # the default -2 up, 1e3 takes some family norms below 2^-1022, where
        # a C of norm far above 6 multiplies the exponential's underflow error
        for spec_lo, c_scale in itertools.product((-0.05, -2.0), (1.0, 1e2, 1e4, 1e8)):
            A, C, bound = random_commuting_pair(rng_for(3, "tier"), space, 4, spec_lo=spec_lo, spec_hi=0.05)
            A, C, M = A.scale(scale), C.scale(c_scale), c_scale * bound.M.values
            exact = ExponentialBound(L0Scalar.of(space, M), L0Scalar.of(space, scale * bound.xi.values))
            assert gate_outcome(A, C, exact) == "passed"
            if scale <= 1.0:
                assert settled_atoms(A, C, exact).all()
            low = ExponentialBound(L0Scalar.of(space, (1.0 - 1e-6) * M), exact.xi)
            assert gate_outcome(A, C, low)[1:] == (0.0, 0)

    def test_a_family_at_twice_a_subnormal_envelope_escapes(self, space1):
        # exp(a t) is about 1e-318 at the first time after 0, and the envelope half that
        t1 = semigroup_module.GROWTH_HORIZON / (semigroup_module.GROWTH_SAMPLES - 1)
        rate = math.log(1e-318) / t1
        A, C = L0Operator.of(space1, [[[rate]]]), L0Operator.identity(space1, 1)
        family = np.exp(rate * t1)
        assert 0.0 < family < np.finfo(float).tiny
        bound = ExponentialBound(L0Scalar.one(space1), L0Scalar.of(space1, [rate - math.log(2.0) / t1]))
        assert gate_outcome(A, C, bound)[1:] == (t1, 0)
        assert gate_outcome(A, C, ExponentialBound.constant(space1, 1.0, rate)) == "passed"

    def test_a_family_and_a_curve_share_one_subnormal_certificate(self, space1):
        # M = ||x|| and xi: exact for exp(xi t) M I and for the curve exp(xi s) x;
        # the envelope is subnormal past t = 8.9, and at s = 9.295 the curve's
        # computed norm is one unit of 2^-1074 above its slackened envelope
        x = np.array([-0.4224914444756691, 0.5614483694668557])
        xi = -79.81846155746133
        M = float(block_norms(x[None])[0])
        bound = ExponentialBound.constant(space1, M, xi)
        A = L0Operator.from_matrix(space1, xi * np.eye(2))
        C = L0Operator.from_matrix(space1, M * np.eye(2))
        assert gate_outcome(A, C, bound) == "passed"
        curve = CurveSampler.from_batch(
            space1, 2, 0.0, math.inf, lambda s: np.exp(xi * s)[:, None, None] * x, bound=bound
        )
        LaplaceSpec(curve)

    def test_norm_of_c_comes_from_the_injectivity_svd(self, monkeypatch):
        space = make_space(np.full(64, 1.0 / 64))
        A, C, bound = random_commuting_pair(rng_for(0, "tier"), space, 4)
        calls = []
        for name in ("svd", "eigvalsh"):
            def counted(mats, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _call(mats, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        make_matrix_semigroup(A, C, bound)
        # one SVD of C, and one eigvalsh, of the symmetric part of A
        assert sorted(calls) == ["eigvalsh", "svd"]

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    @pytest.mark.parametrize("atoms", [1, 1024])
    def test_generated_pairs_settle_and_agree(self, atoms, dim):
        space = make_space(np.full(atoms, 1.0 / atoms))
        A, C, bound = random_commuting_pair(rng_for(atoms + dim, "tier"), space, dim)
        assert settled_atoms(A, C, bound).all()
        assert gate_outcome(A, C, bound) == "passed"
        M = bound.M.values.copy()
        M[-1] *= 1.0 - 1e-6  # the last atom escapes at t = 0
        escaping = ExponentialBound(L0Scalar.of(space, M), bound.xi)
        assert gate_outcome(A, C, escaping)[1:] == (0.0, atoms - 1)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_overflow_before_any_escape(self, dim):
        space = make_space([0.25] * 4)
        A, C, bound = random_commuting_pair(rng_for(dim, "tier"), space, dim)
        shift = np.array([0.0, 0.0, 0.0, 100.0])  # atom 3 overflows at t = 10 and keeps its envelope before
        A = L0Operator.of(space, A.matrices + shift[:, None, None] * np.eye(dim))
        xi = bound.xi.values + shift
        bound = ExponentialBound(bound.M, L0Scalar.of(space, xi))
        assert settled_atoms(A, C, bound).tolist() == [True, True, True, False]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gate_outcome(A, C, bound) == "operator entries must be finite"

    def test_overflow_raises_non_finite_value_without_a_warning(self, space1):
        # 0.5 exp(100 t) stays under 2 exp(100 t) until it overflows, near t = 7.1,
        # where the envelope's product by M overflows too
        A, C = L0Operator.of(space1, [[[100.0]]]), L0Operator.of(space1, [[[0.5]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="operator entries must be finite"):
                make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 2.0, 100.0))

    def test_envelope_at_the_top_of_the_double_range_raises_no_warning(self, space1):
        # GROWTH_SLACK times the largest double is past the range: +inf, as the envelope is there
        A, C = L0Operator.of(space1, [[[-1.0]]]), L0Operator.identity(space1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 1.7976931348623157e308, 0.0))

    def test_an_escape_before_the_overflow_is_raised_at_its_time(self, space1):
        # 0.5 exp(100 t) passes 2 exp(99 t) at t = log 4, long before it overflows
        A, C = L0Operator.of(space1, [[[100.0]]]), L0Operator.of(space1, [[[0.5]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundViolated) as exc:
                make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 2.0, 99.0))
        ts = np.linspace(0.0, semigroup_module.GROWTH_HORIZON, semigroup_module.GROWTH_SAMPLES)
        assert (exc.value.t, exc.value.atom) == (float(ts[ts > math.log(4.0)][0]), 0)

    def test_exact_certificate_builds_no_exponential(self, monkeypatch):
        space = make_space(np.full(64, 1.0 / 64))
        A, C, bound = random_commuting_pair(rng_for(0, "tier"), space, 4)
        calls = []

        def counted(mats, ts):
            calls.append(len(ts) * len(mats))
            return expm_times(mats, ts)

        expm_times = semigroup_module._expm_times
        monkeypatch.setattr(semigroup_module, "_expm_times", counted)
        make_matrix_semigroup(A, C, bound)
        assert calls == []
        xi = bound.xi.values.copy()
        xi[3] -= 0.05
        with pytest.raises(BoundViolated):
            make_matrix_semigroup(A, C, ExponentialBound(bound.M, L0Scalar.of(space, xi)))
        assert 0 < sum(calls) <= semigroup_module.GROWTH_SAMPLES  # atom 3 alone


class TestConstruction:
    def test_diagonal_pair_valid(self, space2):
        diag_semigroup(space2)

    def test_non_injective_c_rejected(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.of(space2, [np.eye(2), [[1.0, 0.0], [2.0, 0.0]]])
        bound = ExponentialBound.constant(space2, 2.0, 0.0)
        with pytest.raises(NotInjective):
            make_matrix_semigroup(A, C, bound)

    def test_generated_pair_from_acp_stream_seed0(self):
        # second acp_5_1 draw at seed 0 on 64 atoms: an iterative spectral
        # norm in the growth check failed to converge on atom 38 of this
        # well-conditioned pair
        space = make_space(np.full(64, 1.0 / 64))
        rng = rng_for(0, "acp_5_1")
        random_commuting_pair(rng, space, 4)
        random_vector(rng, space, 4, -1.0, 1.0)
        A, C, bound = random_commuting_pair(rng, space, 4)
        make_matrix_semigroup(A, C, bound)

    def test_upper_triangular_commuting_pair(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        C = L0Operator.of(space1, [[[1.0, 1.0], [0.0, 1.0]]])
        ac = (A @ C).matrices[0]
        ca = (C @ A).matrices[0]
        np.testing.assert_array_equal(ac, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(ac, ca)
        bound = ExponentialBound.constant(space1, 15.0, 0.5)
        make_matrix_semigroup(A, C, bound)

    def test_noncommuting_rejected(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        C = L0Operator.of(space1, [[[1.0, 0.0], [0.0, 2.0]]])
        bound = ExponentialBound.constant(space1, 5.0, 0.5)
        with pytest.raises(NonCommuting):
            make_matrix_semigroup(A, C, bound)

    def test_escaping_certificate_rejected(self, space1):
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.identity(space1, 1)
        bound = ExponentialBound.constant(space1, 1.0, 0.0)
        with pytest.raises(BoundViolated) as exc:
            make_matrix_semigroup(A, C, bound)
        assert exc.value.t > 0.0

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_stacked_growth_check_fails_where_the_loop_does(self, overflow, dim):
        # atom 2 escapes first in time; with overflow, atom 3 is infinite at t = 10
        space = make_space([0.25] * 4)
        rates = np.array([0.1, -1.0, 0.9, 100.0 if overflow else 0.2])
        q = np.linalg.qr(np.random.default_rng(dim).normal(size=(dim, dim)))[0]
        spectra = rates[:, None] - np.linspace(0.0, 1.5, dim)  # the top eigenvalue is the rate
        A = L0Operator.of(space, (q * spectra[:, None, :]) @ q.T)
        C = L0Operator.identity(space, dim)
        bound = ExponentialBound(L0Scalar.one(space), L0Scalar.of(space, [0.1, -1.0, 0.5, 0.2]))
        if overflow:
            bound = ExponentialBound(bound.M, L0Scalar.of(space, [0.1, -1.0, 0.5, 100.0]))
        with pytest.raises(BoundViolated) as by_loop:
            growth_loop(A, C, bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundViolated) as stacked:
                make_matrix_semigroup(A, C, bound)
        assert (stacked.value.t, stacked.value.atom) == (by_loop.value.t, by_loop.value.atom)
        assert str(stacked.value) == str(by_loop.value)
        assert stacked.value.atom == 2 and stacked.value.t > 0.0
        if not overflow:
            assert growth_outcome(make_matrix_semigroup, A, C, bound) == growth_outcome(
                exact_growth_gate, A, C, bound
            )

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_certified_bounds_keep_the_exact_gates_verdicts(self, dim):
        rng = np.random.default_rng(dim)
        space = make_space(np.full(8, 1.0 / 8))
        q = np.linalg.qr(rng.normal(size=(8, dim, dim)))[0]
        a = rng.uniform(-2.0, 0.5, (8, dim))
        c = rng.uniform(0.5, 2.0, (8, dim))

        def normal(diag):
            return L0Operator.of(space, (q * diag[:, None, :]) @ np.swapaxes(q, 1, 2))

        jordan = -0.5 * np.eye(dim) + np.eye(dim, k=1)  # non-normal: transient growth
        shift = L0Operator.from_matrix(space, jordan)
        big_m, xi = (L0Scalar.of(space, v) for v in (c.max(axis=1), a.max(axis=1)))
        escaping = xi.values.copy()
        escaping[5] = a[5].min() - 1.0  # atom 5's envelope falls behind its family after t = 0
        cases = [
            (normal(a), normal(c), ExponentialBound(big_m, xi)),  # exact at t = 0 up to rounding
            # C = 2I and M = 2: ||C|| = M exactly at t = 0
            (normal(a), L0Operator.from_matrix(space, 2.0 * np.eye(dim)),
             ExponentialBound(L0Scalar.constant(space, 2.0), xi)),
            (normal(a), L0Operator.from_matrix(space, 2.0 * np.eye(dim)),
             ExponentialBound(L0Scalar.constant(space, 2.0 * (1.0 - 1e-8)), xi)),
            (normal(a), normal(c), ExponentialBound(big_m, L0Scalar.of(space, escaping))),
            (shift, L0Operator.from_matrix(space, np.eye(dim) + 0.5 * jordan),
             ExponentialBound.constant(space, 3.0, -0.25)),
            (shift, L0Operator.from_matrix(space, np.eye(dim) + 0.5 * jordan),
             ExponentialBound.constant(space, 1.0, -0.25)),
        ]
        outcomes = []
        for A, C, bound in cases:
            got = growth_outcome(make_matrix_semigroup, A, C, bound)
            assert got == growth_outcome(exact_growth_gate, A, C, bound)
            outcomes.append(got)
        assert outcomes[0] == outcomes[1] == "passed"
        assert outcomes[2][1:] == (0.0, 0)  # M just below ||C||: the first atom at t = 0
        assert outcomes[3] != "passed" and outcomes[3][2] == 5 and outcomes[3][1] > 0.0

    def test_error_messages_print_plain_floats(self, space2):
        # numpy 2 prints a numpy scalar's repr as np.float64(...)
        C = L0Operator.identity(space2, 1)
        rejects = [
            (BoundViolated, lambda: make_matrix_semigroup(
                L0Operator.of(space2, [[[1.0]], [[1.0]]]), C, ExponentialBound.constant(space2, 1.0, 0.0)
            )),
            (NonCommuting, lambda: make_matrix_semigroup(
                L0Operator.from_matrix(space2, [[0.0, 1.0], [0.0, 0.0]]),
                L0Operator.from_matrix(space2, [[1.0, 0.0], [0.0, 2.0]]),
                ExponentialBound.constant(space2, 5.0, 0.5),
            )),
            (NotInjective, lambda: make_matrix_semigroup(
                L0Operator.zeros(space2, 2), L0Operator.from_matrix(space2, [[1.0, 0.0], [2.0, 0.0]]),
                ExponentialBound.constant(space2, 2.0, 0.0),
            )),
            (BoundViolated, lambda: LaplaceSpec(CurveSampler.from_batch(
                space2, 1, 0.0, math.inf, lambda s: np.exp(s)[:, None, None] * np.ones((1, 2, 1)),
                bound=ExponentialBound.constant(space2, 1.0, 0.0),
            ))),
        ]
        for error, reject in rejects:
            with pytest.raises(error) as exc:
                reject()
            assert "np.float64" not in str(exc.value) and "(np." not in str(exc.value)

    def test_zero_dimension_families(self, space2):
        # d = 0: C is the injective map of the zero space, and every norm is 0
        A, C = L0Operator.zeros(space2, 0), L0Operator.identity(space2, 0)
        bound = ExponentialBound.constant(space2, 1.0, 0.0)
        make_matrix_semigroup(A, C, bound)

    def test_zero_dimension_resolvent_integral(self, space2):
        # the transform of the empty orbit is the empty vector, with no panel
        A, C = L0Operator.zeros(space2, 0), L0Operator.identity(space2, 0)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space2, 1.0, 0.0))
        x = RnVector.of(space2, np.zeros((2, 0)))
        assert c_resolvent_integral(W, 2.0, x, 1e-10).values.shape == (2, 0)

    @pytest.mark.parametrize("dim", [1, 4, 16])
    @pytest.mark.parametrize("atoms", [1, 1024])
    def test_commuting_pair_resolvent_integral_matches_direct(self, atoms, dim):
        # absolute per component: tol is the quadrature's target per atom and component, sqrt(d) tol its norm over d
        space = make_space(np.full(atoms, 1.0 / atoms))
        rng = rng_for(atoms * dim, "resolvent-integral")
        A, C, bound = random_commuting_pair(rng, space, dim)
        x = random_vector(rng, space, dim, -1.0, 1.0)
        got = c_resolvent_integral(make_matrix_semigroup(A, C, bound), 3.0, x, 1e-6)
        want = c_resolvent_direct(A, C, 3.0, x)
        np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=math.sqrt(dim) * 1e-6)


def commuting_pair_by_atom(rng, space, dim):
    """random_commuting_pair at its default spectra, one atom at a time: a QR and two products per atom."""
    a_mats, c_mats, big, xi = [], [], [], []
    for _ in range(space.n_atoms):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        a_eigs = rng.uniform(-2.0, 0.5, dim)
        c_eigs = rng.uniform(0.5, 2.0, dim)
        a_mats.append((q * a_eigs) @ q.T)
        c_mats.append((q * c_eigs) @ q.T)
        xi.append(a_eigs.max())
        big.append(np.abs(c_eigs).max())
    return np.array(a_mats), np.array(c_mats), np.array(big), np.array(xi)


@pytest.mark.parametrize("atoms", [1, 4, 64, 1024])
@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_commuting_pair_is_bitwise_the_per_atom_loop(atoms, dim):
    space = make_space(np.full(atoms, 1.0 / atoms))
    for seed in (0, 1, 13):
        A, C, bound = random_commuting_pair(rng_for(seed, "pair"), space, dim)
        want = commuting_pair_by_atom(rng_for(seed, "pair"), space, dim)
        got = (A.matrices, C.matrices, bound.M.values, bound.xi.values)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestEvaluate:
    def test_time_zero_is_c(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        C = L0Operator.of(space1, [[[1.0, 1.0], [0.0, 1.0]]])
        bound = ExponentialBound.constant(space1, 15.0, 0.5)
        W = make_matrix_semigroup(A, C, bound)
        x = RnVector.of(space1, [[1.0, 2.0]])
        np.testing.assert_allclose(
            evaluate(W, 0.0, x).values, op_apply(C, x).values, atol=1e-12
        )

    def test_diagonal_closed_form(self, space2):
        *_, W = diag_semigroup(space2)
        x = RnVector.of(space2, [[2.0], [3.0]])
        got = evaluate(W, 1.0, x).values[:, 0]
        np.testing.assert_allclose(
            got, [2.0 * math.exp(0.5), 3.0 * math.exp(-1.0)], rtol=1e-12
        )

    def test_composition_law(self, space2):
        _, C, _, W = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [-2.0]])
        s, t = 0.7, 1.1
        lhs = op_apply(C, evaluate(W, s + t, x))
        rhs = evaluate(W, t, evaluate(W, s, x))
        assert l0_norm(lhs - rhs).values.max() <= 1e-9

    def test_negative_time_rejected(self, space2):
        *_, W = diag_semigroup(space2)
        with pytest.raises(NegativeTime):
            evaluate(W, -0.1, RnVector.of(space2, [[1.0], [1.0]]))

    def test_at_rejects_a_negative_time(self, space1):
        # with A = -1, exp(-tA) at t = -1 is e: a value outside the family's domain t >= 0
        A = L0Operator.of(space1, [[[-1.0]]])
        C = L0Operator.identity(space1, 1)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 1.0, -1.0))
        for call in (lambda: W.at([-1.0]), lambda: W.at([0.0, 0.5, -1.0]), lambda: W.operator_at(-1.0)):
            with pytest.raises(NegativeTime, match=r"nonnegative, got -1\.0$"):
                call()

    @pytest.mark.parametrize("dim", [1, 4, 16])
    @pytest.mark.parametrize("atoms", [1, 1024])
    def test_at_is_bitwise_the_stacked_exponential_times_c(self, atoms, dim):
        space = make_space(np.full(atoms, 1.0 / atoms))
        A, C, bound = random_commuting_pair(rng_for(atoms + dim, "family-at"), space, dim)
        W = make_matrix_semigroup(A, C, bound)
        ts = np.linspace(0.0, 3.0, 16)  # one time more than a 15-node orbit chunk
        want = matrix_exp_times(A, ts) @ C.matrices
        assert np.array_equal(W.at(ts), want)
        assert np.array_equal(np.concatenate([W.at(ts[:15]), W.at(ts[15:])]), want)

    def test_operator_at_and_evaluate_are_bitwise_the_exponential_route(self):
        space = make_space(np.full(64, 1.0 / 64))
        rng = rng_for(0, "family-at")
        A, C, bound = random_commuting_pair(rng, space, 4)
        W = make_matrix_semigroup(A, C, bound)
        x = random_vector(rng, space, 4, -1.0, 1.0)
        for t in (0.0, 0.3, 1.7, 9.5):
            route = matrix_exp(A, t) @ C
            assert np.array_equal(W.operator_at(t).matrices, route.matrices)
            assert np.array_equal(evaluate(W, t, x).values, op_apply(route, x).values)

    def test_one_family_forms_its_powers_once(self, monkeypatch):
        space = make_space(np.full(8, 1.0 / 8))
        rng = rng_for(1, "family-at")
        A, C, bound = random_commuting_pair(rng, space, 4)
        x = random_vector(rng, space, 4, -1.0, 1.0)
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return taylor_powers(mats)

        taylor_powers = semigroup_module._taylor_powers
        monkeypatch.setattr(semigroup_module, "_taylor_powers", counted)
        W = make_matrix_semigroup(A, C, bound)
        W.at([0.5, 1.0])
        W.operator_at(1.5)
        evaluate(W, 2.0, x)
        solve_acp(direct_value_problem(W, x, (0.0, 0.5, 1.0)))
        c_resolvent_integral(W, L0Scalar.of(space, bound.xi.values + 2.0), x, 1e-8)
        assert calls == [8, 8]  # the family's, then its damped orbit's generator A - xi


class TestResolventRoutes:
    def test_integral_route_diagonal(self, space2):
        *_, W = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [1.0]])
        got = c_resolvent_integral(W, 2.0, x, 1e-9).values[:, 0]
        np.testing.assert_allclose(got, [1.0 / 1.5, 1.0 / 3.0], atol=1e-8)

    def test_integral_route_zero_generator(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.identity(space2, 2)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space2, 1.0, 0.0))
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        got = c_resolvent_integral(W, 2.0, x, 1e-9)
        np.testing.assert_allclose(got.values, x.values / 2.0, atol=1e-8)

    def test_integral_route_at_a_negative_damping(self, space1):
        # eta = -799 > xi = -800: e^(799 s) overflows, the damped orbit e^(s(A - xi)) is 1
        A, C = L0Operator.of(space1, [[[-800.0]]]), L0Operator.identity(space1, 1)
        W = make_matrix_semigroup(A, C, ExponentialBound.constant(space1, 1.0, -800.0))
        x = RnVector.of(space1, [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = c_resolvent_integral(W, -799.0, x, 1e-9)
        assert abs(got.values[0, 0] - 1.0) <= 1e-9
        np.testing.assert_allclose(got.values, c_resolvent_direct(A, C, -799.0, x).values, rtol=0.0, atol=1e-9)

    def test_integral_route_eta_gate(self, space2):
        *_, W = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [1.0]])
        with pytest.raises(EtaNotInGxi) as exc:
            c_resolvent_integral(W, 0.0, x, 1e-9)
        assert exc.value.atom == 0

    def test_direct_route_diagonal(self, space2):
        A, C, _, _ = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [1.0]])
        got = c_resolvent_direct(A, C, 2.0, x).values[:, 0]
        np.testing.assert_allclose(got, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_direct_route_dominant_eta(self, space2):
        A, C, _, _ = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [1.0]])
        eta = 1e8
        got = c_resolvent_direct(A, C, eta, x).values
        np.testing.assert_allclose(got, op_apply(C, x).values / eta, rtol=1e-7)

    def test_direct_route_spectrum_gate(self, space2):
        A, C, _, _ = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.0], [1.0]])
        with pytest.raises(EtaInSpectrum) as exc:
            c_resolvent_direct(A, C, 0.5, x)
        assert exc.value.atom == 0
        assert str(exc.value) == "eta - A is numerically singular on atom 0 (singular value ratio 0.0)"

    def test_resolvent_operator_matches_vector_route(self, space2):
        A, C, _, _ = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.4], [-0.3]])
        R = resolvent_operator(A, C, 2.0)
        lhs = op_apply(R, x)
        rhs = c_resolvent_direct(A, C, 2.0, x)
        assert l0_norm(lhs - rhs).values.max() <= 1e-13

    @pytest.mark.parametrize("atoms", [1, 1024])
    def test_orbit_batch_slices_are_bitwise_neutral(self, atoms):
        # the orbit samples its operators 15 times at a time; 16 times cross a
        # slice edge, and each exponential is computed per matrix
        space = make_space(np.full(atoms, 1.0 / atoms))
        rng = rng_for(atoms, "orbit-slices")
        A, C, bound = random_commuting_pair(rng, space, 4)
        x = random_vector(rng, space, 4, -1.0, 1.0)
        curve = semigroup_module._orbit_curve(make_matrix_semigroup(A, C, bound), x)
        ts = np.linspace(0.0, 3.0, 16)
        want = np.einsum("taij,aj->tai", matrix_exp_times(A, ts) @ C.matrices, x.values)
        assert np.array_equal(curve.sample(ts), want)


def count_calls(monkeypatch, name):
    """Calls of ``semigroup.<name>`` from here on, as a list of their first arguments."""
    original, calls = getattr(semigroup_module, name), []

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(semigroup_module, name, counted)
    return calls


class TestHilleYosida:
    def test_one_singular_value_gate_per_eta(self, space2, monkeypatch):
        # eta = 3 is an eigenvalue of A on atom 1, and the report carries on past it
        A = L0Operator.from_diag(space2, [[1.0, 2.0], [1.0, 3.0]])
        C = L0Operator.identity(space2, 2)
        gates = count_calls(monkeypatch, "check_injective")
        report = hille_yosida_report(A, C, ExponentialBound.constant(space2, 1.0, 2.99), [3.0, 4.0, 5.0], n_max=2)
        assert [e.invertible for e in report.entries] == [False, True, True]
        assert len(gates) == 3

    def test_diagonal_rows_hold_with_equality(self, space2):
        A, C, bound, _ = diag_semigroup(space2)
        report = hille_yosida_report(A, C, bound, [2.0, 4.0], n_max=4)
        assert report.passed
        assert report.commutation_ok
        for entry in report.entries:
            assert entry.invertible
            for row in entry.power_rows:
                assert row.passed
                assert abs(row.gap) <= 1e-10
            for row in entry.route_rows:
                assert row.passed

    def test_zero_dimension_report(self):
        # d = 0: the probe e_1 is the empty vector, every norm is 0 and each
        # ladder row sits M / gamma^n below its bound
        space = make_space([0.5, 0.5])
        A, C = L0Operator.zeros(space, 0), L0Operator.identity(space, 0)
        report = hille_yosida_report(A, C, ExponentialBound.constant(space, 1.0, 0.0), (2.0, 4.0), 4)
        assert report.passed
        for gamma, entry in zip((2.0, 4.0), report.entries):
            assert [row.gap for row in entry.route_rows] == [0.0, 0.0, 0.0]
            assert [row.gap for row in entry.power_rows] == [-1.0 / gamma**n for n in range(1, 5)]

    def test_report_at_a_damping_between_xi_and_zero(self, space1):
        # eta = -1 lies in (xi, 0] = (-2, 0]: the route weights peak at k / (eta - xi)
        A = L0Operator.from_diag(space1, [[-2.0, -3.0]])
        bound = ExponentialBound.constant(space1, 1.0, -2.0)
        report = hille_yosida_report(A, L0Operator.identity(space1, 2), bound, [-1.0], 3)
        assert report.passed
        [entry] = report.entries
        assert [row.n for row in entry.route_rows] == [1, 2, 3]

    def test_nilpotent_bad_certificate_rejected(self, space1):
        A = L0Operator.of(space1, [[[0.0, 1.0], [0.0, 0.0]]])
        C = L0Operator.identity(space1, 2)
        bound = ExponentialBound.constant(space1, 2.0, 0.0)
        report = hille_yosida_report(A, C, bound, [1.0], n_max=3)
        assert not report.passed
        rows = report.entries[0].power_rows
        norms = [float(r.norms.max()) for r in rows]
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(
            norms,
            [golden, 1.0 + math.sqrt(2.0), (3.0 + math.sqrt(13.0)) / 2.0],
            rtol=1e-9,
        )
        assert rows[0].passed  # 1.618 <= 2.0
        assert not rows[1].passed  # 2.414 > 2.0
        assert not rows[2].passed  # 3.303 > 2.0

    def test_eta_on_spectrum_gives_failing_entry(self, space2):
        # xi sits below A's spectrum, so eta = 2 passes the dominance check
        # but is an eigenvalue of A on atom 0 only
        A = L0Operator.from_diag(space2, [[1.0, 2.0], [1.0, 3.0]])
        C = L0Operator.identity(space2, 2)
        bound = ExponentialBound.constant(space2, 1.0, 0.0)
        report = hille_yosida_report(A, C, bound, [2.0], n_max=2)
        entry = report.entries[0]
        assert not entry.invertible
        assert entry.min_sv_ratio[0] <= 1e-12
        assert entry.min_sv_ratio[1] > 1e-12
        assert entry.power_rows == () and entry.route_rows == ()
        assert not report.passed

    def test_ratio_at_the_threshold_is_invertible_in_report_and_suite(self):
        # eta - A = diag(1, 1e-12) exactly: its singular value ratio equals the
        # threshold, so the suite's invertible record passes and the report
        # computes the ladder; the certificate xi = -10 is wrong, so both fail there
        eta = 2.0**-60
        doc = {
            "space": {"probs": [1.0]},
            "dim": 2,
            "operators": {
                "A": {"matrix": [[eta - 1.0, 0.0], [0.0, eta - 1e-12]]},
                "C": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            },
            "bound": {"M": 1.0, "xi": -10.0},
            "eta_grid": [eta],
            "suites": ["hille_yosida_4_11"],
        }
        scn = scenario_from_dict(doc)
        report = hille_yosida_report(scn.A, scn.C, scn.bound, scn.eta_grid, n_max=8)
        entry = report.entries[0]
        assert entry.min_sv_ratio[0] == 1e-12
        assert entry.invertible and len(entry.power_rows) == 8
        assert entry.power_rows[0].gap > 1e11
        suite = SUITES["hille_yosida_4_11"](scn)
        assert not report.passed
        assert suite.passed == report.passed
        failed = {r.name for r in suite.records if not r.passed}
        assert {f"b4_eta_{eta:g}_n_{n}" for n in range(1, 9)} <= failed
        assert f"invertible_eta_{eta:g}" not in failed

    def test_route_integrals_share_one_call_past_a_singular_eta(self, space2, monkeypatch):
        # eta = 3 is an eigenvalue of A on atom 1, above the certificate's
        # xi = 2.99 there; 4 and 5 are resolvent points
        A = L0Operator.from_diag(space2, [[1.0, 2.0], [1.0, 3.0]])
        C = L0Operator.identity(space2, 2)
        bound = ExponentialBound.constant(space2, 1.0, 2.99)
        shared = semigroup_module.damped_weighted_integrals
        calls = []

        def counted(curve, weights):
            calls.append([(float(eta.values[0]), k) for eta, k, _ in weights])
            return shared(curve, weights)

        monkeypatch.setattr(semigroup_module, "damped_weighted_integrals", counted)
        report = hille_yosida_report(A, C, bound, [4.0, 3.0, 5.0], n_max=4)
        # the damped orbit is integrated at gamma = eta - xi
        assert calls == [[(eta - 2.99, k) for eta in (4.0, 5.0) for k in (0, 1, 2)]]
        assert [e.invertible for e in report.entries] == [True, False, True]
        assert [len(e.route_rows) for e in report.entries] == [3, 0, 3]
        for entry in report.entries[::2]:
            assert [row.n for row in entry.route_rows] == [1, 2, 3]
            assert all(row.passed and row.gap <= 1e-7 for row in entry.route_rows)

    def test_route_integrals_share_few_panels(self, monkeypatch):
        # a wide pair on the default damping grid: the 12 route weights seed
        # one lattice, so near-duplicate edges no longer split the set
        space = make_space(np.full(64, 1.0 / 64))
        A, C, bound = random_commuting_pair(rng_for(13, "hille-yosida-panels"), space, 4)
        shared = semigroup_module.damped_weighted_integrals
        panels = []

        def counted(curve, weights):
            results = shared(curve, weights)
            panels.append(results[0].panels)
            return results

        monkeypatch.setattr(semigroup_module, "damped_weighted_integrals", counted)
        report = hille_yosida_report(A, C, bound, [2.0, 4.0, 8.0, 16.0], n_max=8)
        assert len(panels) == 1 and panels[0] <= 10
        gaps = [row.gap for entry in report.entries for row in entry.route_rows]
        assert len(gaps) == 12 and max(gaps) <= report.route_tol

    def test_ladder_norms_match_svd_of_each_power(self, space4, rng):
        A = rng.normal(size=(4, 3, 3)) - 3.0 * np.eye(3)
        C = np.eye(3) + 0.1 * A
        bound = ExponentialBound.constant(space4, 1.0, -1.0)
        report = hille_yosida_report(
            L0Operator.of(space4, A), L0Operator.of(space4, C), bound, [2.0, 5.0], n_max=5
        )
        for eta, entry in zip((2.0, 5.0), report.entries):
            inv = np.linalg.inv(eta * np.eye(3) - A)
            for n, row in enumerate(entry.power_rows, start=1):
                power = np.linalg.matrix_power(inv, n) @ C
                expected = np.linalg.svd(power, compute_uv=False)[:, 0]
                np.testing.assert_allclose(row.norms, expected, rtol=1e-12)

    def test_overflowing_ladder_raises_non_finite(self, space1):
        # ||R(eta)|| = 4, so R(eta)^n C leaves the double range at n = 4
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.of(space1, [[[1e306]]])
        bound = ExponentialBound.constant(space1, 1e306, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="operator entries must be finite"):
                hille_yosida_report(A, C, bound, [1.25], n_max=8)

    def test_empty_grid_gives_empty_report(self, space2):
        A, C, bound, _ = diag_semigroup(space2)
        report = hille_yosida_report(A, C, bound, [], n_max=4)
        assert report.entries == ()
        assert report.passed

    def test_defaults_are_the_scenario_tolerances(self):
        params = inspect.signature(hille_yosida_report).parameters
        defaults = {name: params[name].default for name in ("b4_tol", "route_tol", "quad_tol")}
        assert defaults == {
            "b4_tol": TOLERANCES["b4"],
            "route_tol": TOLERANCES["resolvent_route"],
            "quad_tol": TOLERANCES["quadrature"],
        }

    def test_b4_rows_export_shape(self, space2):
        A, C, bound, _ = diag_semigroup(space2)
        report = hille_yosida_report(A, C, bound, [2.0], n_max=2)
        rows = report.b4_rows()
        assert len(rows) == 2
        eta_repr, n, norm, b, ok = rows[0]
        assert (eta_repr, n) == (2.0, 1)
        assert isinstance(norm, float) and isinstance(b, float) and ok


class TestYosidaApproximant:
    def test_scalar_eta_ten(self, space1):
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.identity(space1, 1)
        x = RnVector.of(space1, [[1.0]])
        got = yosida_approximant(A, C, 10.0, 1.0, x).values[0, 0]
        assert got == pytest.approx(math.exp(10.0 / 9.0), abs=1e-6)

    def test_scalar_eta_hundred(self, space1):
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.identity(space1, 1)
        x = RnVector.of(space1, [[1.0]])
        got = yosida_approximant(A, C, 100.0, 1.0, x).values[0, 0]
        assert got == pytest.approx(math.exp(100.0 / 99.0), abs=1e-6)
        assert abs(got - math.e) < abs(math.exp(10.0 / 9.0) - math.e)

    def test_time_zero_is_c(self, space2):
        A, C, _, _ = diag_semigroup(space2)
        x = RnVector.of(space2, [[1.7], [-0.4]])
        got = yosida_approximant(A, C, 10.0, 0.0, x)
        np.testing.assert_allclose(got.values, op_apply(C, x).values, atol=1e-14)

    def test_eta_in_spectrum_rejected(self, space1):
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.identity(space1, 1)
        x = RnVector.of(space1, [[1.0]])
        with pytest.raises(EtaInSpectrum):
            yosida_approximant(A, C, 1.0, 1.0, x)

    def test_error_to_limit_shrinks_along_eta(self, space1):
        A = L0Operator.of(space1, [[[1.0]]])
        C = L0Operator.identity(space1, 1)
        x = RnVector.of(space1, [[1.0]])
        errs = [
            abs(yosida_approximant(A, C, eta, 1.0, x).values[0, 0] - math.e)
            for eta in (10.0, 20.0, 40.0, 80.0, 160.0)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestAbelLimit:
    def scalar_setup(self, space1, rate=0.5):
        A = L0Operator.of(space1, [[[rate]]])
        C = L0Operator.identity(space1, 1)
        bound = ExponentialBound.constant(space1, 1.0, rate)
        x = RnVector.of(space1, [[1.0]])
        return A, C, bound, x

    def test_scalar_gap_sequence(self, space1):
        A, C, bound, x = self.scalar_setup(space1)
        report = abel_limit_check(A, C, bound, x, [2.0, 4.0, 8.0, 16.0])
        want = [0.5 / (e - 0.5) for e in (2.0, 4.0, 8.0, 16.0)]
        np.testing.assert_allclose(report.max_gaps, want, atol=1e-9)
        assert report.decreasing
        assert report.envelope_ok
        assert report.passed

    def test_gaps_are_the_direct_route_with_one_gate_per_eta(self, monkeypatch):
        space = make_space(np.full(8, 0.125))
        A, C, bound = random_commuting_pair(rng_for(5, "abel"), space, 3)
        x = random_vector(rng_for(6, "abel"), space, 3, -1.0, 1.0)
        etas = [2.0, 4.0, 8.0, 16.0]
        want = [
            l0_norm(c_resolvent_direct(A, C, eta, x).scale(eta) - op_apply(C, x)).values for eta in etas
        ]
        gates, products = (count_calls(monkeypatch, name) for name in ("check_injective", "op_apply"))
        report = abel_limit_check(A, C, bound, x, etas)
        assert np.array_equal(report.gaps, np.stack(want))
        assert (len(gates), len(products)) == (4, 1)

    def test_zero_generator_zero_gaps(self, space2):
        A = L0Operator.zeros(space2, 2)
        C = L0Operator.identity(space2, 2)
        bound = ExponentialBound.constant(space2, 1.0, 0.0)
        x = RnVector.of(space2, [[1.0, 2.0], [3.0, 4.0]])
        report = abel_limit_check(A, C, bound, x, [2.0, 4.0, 8.0])
        np.testing.assert_allclose(report.max_gaps, 0.0, atol=1e-12)
        assert report.passed

    def test_zero_vector_zero_gaps(self, space1):
        A, C, bound, _ = self.scalar_setup(space1)
        x = RnVector.zeros(space1, 1)
        report = abel_limit_check(A, C, bound, x, [2.0, 4.0, 8.0])
        np.testing.assert_allclose(report.max_gaps, 0.0, atol=1e-15)
        assert report.passed

    def test_eta_must_dominate_xi(self, space1):
        A, C, bound, x = self.scalar_setup(space1)
        with pytest.raises(EtaNotInGxi):
            abel_limit_check(A, C, bound, x, [0.4, 2.0])

    def test_sequence_must_increase(self, space1):
        A, C, bound, x = self.scalar_setup(space1)
        with pytest.raises(ValueError):
            abel_limit_check(A, C, bound, x, [2.0, 2.0, 4.0])


class TestRandomizedFamilies:
    """Light randomized sweeps; the scenario suites run the full versions."""

    def setup_method(self):
        self.space = make_space([0.1, 0.2, 0.3, 0.4])
        self.rng = rng_for(13, "semigroup-tests")

    def random_family(self, dim):
        A, C, bound = random_commuting_pair(self.rng, self.space, dim)
        return A, C, bound, make_matrix_semigroup(A, C, bound)

    def test_composition_law_randomized(self):
        for _ in range(10):
            _, C, _, W = self.random_family(2)
            x = RnVector.of(self.space, self.rng.uniform(-1, 1, (4, 2)))
            s, t = self.rng.uniform(0.0, 3.0, 2)
            lhs = op_apply(C, evaluate(W, float(s) + float(t), x))
            rhs = evaluate(W, float(t), evaluate(W, float(s), x))
            assert l0_norm(lhs - rhs).values.max() <= 1e-9

    def test_resolvent_routes_agree(self):
        for _ in range(5):
            A, C, bound, W = self.random_family(2)
            x = RnVector.of(self.space, self.rng.uniform(-1, 1, (4, 2)))
            eta = L0Scalar.of(self.space, bound.xi.values + 2.0)
            integral = c_resolvent_integral(W, eta, x, 1e-8)
            direct = c_resolvent_direct(A, C, eta, x)
            assert l0_norm(integral - direct).values.max() <= 1e-6

    def test_applying_shift_recovers_cx(self):
        for _ in range(5):
            A, C, bound, W = self.random_family(2)
            x = RnVector.of(self.space, self.rng.uniform(-1, 1, (4, 2)))
            eta = L0Scalar.of(self.space, bound.xi.values + 2.0)
            integral = c_resolvent_integral(W, eta, x, 1e-8)
            shifted = L0Operator.scaled_identity(self.space, 2, eta) - A
            back = op_apply(shifted, integral)
            cx = op_apply(C, x)
            assert l0_norm(back - cx).values.max() <= 1e-6

    def test_resolvent_equation(self):
        for _ in range(5):
            A, C, bound, _ = self.random_family(2)
            xi_max = float(bound.xi.values.max())
            eta, mu = xi_max + 1.0, xi_max + 3.0
            r_eta = resolvent_operator(A, C, eta)
            r_mu = resolvent_operator(A, C, mu)
            lhs = (r_eta @ C) - (r_mu @ C)
            rhs = (r_mu @ r_eta).scale(mu - eta)
            gap = np.abs(lhs.matrices - rhs.matrices).max()
            assert gap <= 1e-8

    def test_derivative_of_orbit_is_generator_action(self):
        for _ in range(5):
            A, C, bound, W = self.random_family(2)
            x = RnVector.of(self.space, self.rng.uniform(-1, 1, (4, 2)))
            t0 = 0.8
            orbit = CurveSampler(
                self.space, 2, 0.0, 2.0, lambda u: evaluate(W, u, x)
            )
            from rnsl import derivative

            lhs = derivative(orbit, t0, 1e-3)
            wax = evaluate(W, t0, op_apply(A, x))
            awx = op_apply(A, evaluate(W, t0, x))
            assert l0_norm(lhs - wax).values.max() <= 1e-6
            assert l0_norm(lhs - awx).values.max() <= 1e-6

    def test_integral_of_orbit_identity(self):
        for _ in range(5):
            A, C, bound, W = self.random_family(2)
            x = RnVector.of(self.space, self.rng.uniform(-1, 1, (4, 2)))
            s = 1.2
            orbit = CurveSampler(
                self.space, 2, 0.0, 2.0, lambda u: evaluate(W, u, x)
            )
            integral = riemann_integral(orbit, 0.0, s, 1e-9).value
            lhs = op_apply(A, integral)
            rhs = evaluate(W, s, x) - op_apply(C, x)
            assert l0_norm(lhs - rhs).values.max() <= 1e-6


def _result_objects():
    """A fresh instance of each result class that holds arrays, by class name."""
    space = make_space([0.4, 0.6])
    A = L0Operator.from_diag(space, [-1.0, -2.0])
    C = L0Operator.identity(space, 2)
    bound = ExponentialBound.constant(space, 1.0, -1.0)
    W = make_matrix_semigroup(A, C, bound)
    x = RnVector.constant(space, [1.0, 0.5])
    orbit = semigroup_module._damped_orbit(W, x)
    report = hille_yosida_report(A, C, bound, (1.0,), 2)
    return {
        "Trajectory": solve_acp(direct_value_problem(W, x, (0.0, 0.5, 1.0))),
        "InjectivityReport": check_injective(C),
        "WeightedIntegralResult": damped_weighted_integral(orbit, 2.0, 1, 1e-8),
        "_Weight": _checked_weight(orbit.bound, 2.0, 1, 1e-8),
        "AbelLimitReport": abel_limit_check(A, C, bound, x, (10.0, 20.0)),
        "ResolventReport": report,
        "ResolventEntry": report.entries[0],
        "PowerRow": report.entries[0].power_rows[0],
    }


@pytest.mark.parametrize("kind", list(_result_objects()))
def test_result_objects_that_hold_arrays_compare_and_hash_by_identity(kind):
    first, second = _result_objects()[kind], _result_objects()[kind]
    assert type(first).__name__ == kind
    assert first == first and not first == second and first != second
    assert len({first, second, first}) == 2
