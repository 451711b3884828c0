"""Laplace transforms of certified curves, their derivatives, and inversion.

The transform of a curve h with ||h(s)|| <= M exp(xi s) exists for any
damping eta above xi on every atom, and satisfies ||H(eta)|| <= M/(eta - xi).
Derivatives in eta are computed from the weighted integral with the factor
(-s)^k, never by differencing.  Inversion uses the approximants

    (-1)^k (k/t)^(k+1) / k! * H^(k)(k/t)  ->  h(t)   as k -> inf,

whose two factors separately leave the double range near k = 170; both are
therefore carried in log space and only their combination is exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    _CHUNK_BYTES,
    _LOG_DOUBLE_MAX,
    CurveSampler,
    _weight_log_scale,
    damped_weighted_integral,
    damped_weighted_integrals,
)
from .errors import (
    CertificateMissing,
    CoefficientOverflow,
    DimMismatch,
    MaxPanelsExceeded,
    NonPositiveTime,
    SpaceMismatch,
)
from .l0 import L0Scalar, ProbabilitySpace, stacked_space
from .rn import ExponentialBound, RnVector, _check_envelope, block_norms

BOUND_CHECK_POINTS = 64
BOUND_CHECK_RANGE = (1e-3, 1e2)


@dataclass(frozen=True)
class LaplaceSpec:
    """A transformable curve: domain [0, inf) plus a growth certificate.

    Construction samples the curve at those of 64 log-spaced times where
    the envelope M exp(xi s) stays below e^709 on every atom, and rejects a
    certificate the samples already escape, by the growth gate's rule
    (``rn._check_envelope``).  The times are sampled in order, as many a call
    as keep its values under _CHUNK_BYTES, so the first escape found is the
    earliest time's lowest atom.
    """

    curve: CurveSampler

    def __post_init__(self) -> None:
        c = self.curve
        if c.start != 0.0 or not math.isinf(c.end):
            raise ValueError("a transformable curve must live on [0, inf)")
        if c.bound is None:
            raise CertificateMissing("a transformable curve needs a certificate")
        times = np.geomspace(*BOUND_CHECK_RANGE, BOUND_CHECK_POINTS)
        M, xi = c.bound.M.values, c.bound.xi.values
        with np.errstate(divide="ignore"):  # the envelope passes e^709 at (709 - log M) / xi
            top = (_LOG_DOUBLE_MAX - np.log(M[xi > 0.0])) / xi[xi > 0.0]
        times = times[times < top.min(initial=np.inf)]
        atoms = np.arange(c.space.n_atoms)
        step = max(1, _CHUNK_BYTES // (8 * c.space.n_atoms * max(c.dim, 1)))
        for start in range(0, len(times), step):
            ts = times[start:start + step]
            norms = block_norms(c.sample(ts))
            _check_envelope("curve", "s", ts, norms, c.bound.envelope(ts), c.dim, M, atoms)

    @property
    def space(self) -> ProbabilitySpace:
        return self.curve.space

    @property
    def dim(self) -> int:
        return self.curve.dim

    @property
    def bound(self):
        return self.curve.bound


def _stacked_curve(specs: Sequence[LaplaceSpec]) -> CurveSampler:
    """specs[j] on copy j of ``stacked_space(space, len(specs))``, with no certificate check of its own."""
    first = specs[0]
    space = stacked_space(first.space, len(specs))
    bound = ExponentialBound(
        L0Scalar.of(space, np.concatenate([s.bound.M.values for s in specs])),
        L0Scalar.of(space, np.concatenate([s.bound.xi.values for s in specs])),
    )

    def batch(ts: np.ndarray) -> np.ndarray:  # in (times, dim, rows) memory
        members = [s.curve.sample(ts).transpose(0, 2, 1) for s in specs]
        return np.concatenate(members, axis=2).transpose(0, 2, 1)

    return CurveSampler.from_batch(space, first.dim, 0.0, math.inf, batch, bound=bound)


def stack_specs(specs: Sequence[LaplaceSpec]) -> LaplaceSpec:
    """One transformable curve on ``stacked_space(space, len(specs))``.

    Copy j of the stacked space carries specs[j]: its rows j*n ... (j+1)*n - 1
    hold that member's values, and its certificate that member's M and xi.
    The transform acts atom by atom, so one transform of the stack gives
    every member's transform, in copy j's rows.
    """
    if not specs:
        raise ValueError("stack at least one curve")
    first = specs[0]
    for spec in specs[1:]:
        if spec.space != first.space:
            raise SpaceMismatch("stacked curves live on different probability spaces")
        if spec.dim != first.dim:
            raise DimMismatch("stacked curves have different dimensions")
    return LaplaceSpec(_stacked_curve(specs))


def laplace_transform(spec: LaplaceSpec, eta, tol: float) -> RnVector:
    """H(eta) = integral of exp(-eta s) h(s) ds over [0, inf)."""
    return damped_weighted_integral(spec.curve, eta, 0, float(tol)).scaled_value


def laplace_derivatives_scaled(
    spec: LaplaceSpec, points: Sequence, tol: float
) -> list[tuple[RnVector, np.ndarray]]:
    """k-th derivatives of the transform in scaled form, one per point (eta, k).

    Returns one (mantissa, log_scale) per point, with
    H^(k)(eta) = exp(log_scale) * mantissa per atom; the mantissa carries
    the (-1)^k sign.  ``tol`` is relative to each point's certificate
    envelope of the weighted integral.  The points share one panel set
    (``damped_weighted_integrals``): each damping is checked as its weight
    is formed, in list order, and every weight's other checks follow, in
    list order, before the first sample.
    """
    bound = spec.bound
    weights = []
    for eta, k in points:
        gamma = bound.margin(eta)
        log_env = math.lgamma(k + 1.0) - (k + 1.0) * np.log(gamma) - _weight_log_scale(k, gamma)
        with np.errstate(over="ignore"):
            env = bound.M.values * np.exp(np.minimum(log_env, _LOG_DOUBLE_MAX))
        weights.append((eta, k, np.where(env > 0.0, float(tol) * env, 1.0)))
    return [
        (res.scaled_value.scale(-1.0 if k % 2 else 1.0), res.log_scale)
        for (_, k, _), res in zip(weights, damped_weighted_integrals(spec.curve, weights))
    ]


def laplace_derivative_scaled(
    spec: LaplaceSpec, eta, k: int, tol: float
) -> tuple[RnVector, np.ndarray]:
    """k-th derivative of the transform in scaled form: the one-point call of laplace_derivatives_scaled."""
    return laplace_derivatives_scaled(spec, [(eta, k)], tol)[0]


def _unscale(mantissa: RnVector, log_scale: np.ndarray, overflow: str) -> RnVector:
    """exp(log_scale) * mantissa per atom; CoefficientOverflow(overflow) past doubles."""
    vals = mantissa.values
    with np.errstate(divide="ignore"):
        mag = np.where(vals != 0.0, np.log(np.abs(vals)), -np.inf)
    total = log_scale[:, None] + mag
    if np.any(total > _LOG_DOUBLE_MAX):
        raise CoefficientOverflow(overflow)
    return RnVector.of(mantissa.space, np.sign(vals) * np.exp(total))


_DERIVATIVE_OVERFLOW = "transform derivative exceeds the double range; use the scaled form instead"


def laplace_derivative(spec: LaplaceSpec, eta, k: int, tol: float) -> RnVector:
    """k-th derivative of the transform as plain numbers (moderate k only)."""
    return _unscale(*laplace_derivative_scaled(spec, eta, k, tol), _DERIVATIVE_OVERFLOW)


@dataclass(frozen=True)
class TransformDerivativeProvider:
    """Source of transform derivatives (eta, k) -> H^(k)(eta).

    ``scaled`` maps a list of points (eta, k), each eta a scalar on
    ``space``, to one (mantissa, per-atom log scale) per point, with
    H^(k)(eta) = exp(log_scale) * mantissa, which keeps inversion alive at
    large k, where plain values leave the double range.
    """

    space: ProbabilitySpace
    dim: int
    scaled: Callable[[list[tuple[L0Scalar, int]]], Sequence[tuple[RnVector, np.ndarray]]]

    def scaled_derivatives(self, points: Sequence) -> list[tuple[RnVector, np.ndarray]]:
        """One checked (mantissa, log_scale) per point (eta, k), from one ``scaled`` call."""
        points = [(L0Scalar.coerce(self.space, eta), k) for eta, k in points]
        outputs = list(self.scaled(points))
        if len(outputs) != len(points):
            raise ValueError(f"provider returned {len(outputs)} derivatives for {len(points)} points")
        checked = []
        for mantissa, log_scale in outputs:
            if mantissa.space != self.space:
                raise SpaceMismatch("provider output lives on a different space")
            if mantissa.dim != self.dim:
                raise DimMismatch(f"provider output has dim {mantissa.dim}, expected {self.dim}")
            log_scale = np.asarray(log_scale, dtype=float)
            if log_scale.shape != (self.space.n_atoms,):
                raise SpaceMismatch("provider log scale has the wrong shape")
            checked.append((mantissa, log_scale))
        return checked

    def scaled_derivative(self, eta, k: int) -> tuple[RnVector, np.ndarray]:
        return self.scaled_derivatives([(eta, k)])[0]

    def derivative(self, eta, k: int) -> RnVector:
        """H^(k)(eta) as plain numbers (moderate k only)."""
        return _unscale(*self.scaled_derivative(eta, k), _DERIVATIVE_OVERFLOW)


def provider_from_curve(spec: LaplaceSpec, tol: float) -> TransformDerivativeProvider:
    """Adapter computing derivatives of a curve's transform by quadrature, every point of a call on one panel set."""
    return TransformDerivativeProvider(
        spec.space, spec.dim, lambda points: laplace_derivatives_scaled(spec, points, tol)
    )


def post_widder_points(provider: TransformDerivativeProvider, points: Sequence) -> list[RnVector]:
    """The k-th inversion approximant at time t > 0 for every point (t, k), from one provider call.

    Evaluates (-1)^k (k/t)^(k+1) / k! * H^(k)(k/t) with the coefficient
    assembled as (k+1)*log(k/t) - lgamma(k+1) and combined with the log scale
    of the derivative, so nothing overflows before the final exponential.
    Every point is checked, in list order, before the provider is called.
    """
    checked = []
    for t, k in points:
        if not (t > 0.0) or not math.isfinite(t):
            raise NonPositiveTime(f"inversion time must be positive, got {t!r}")
        if k < 1 or k != int(k):
            raise ValueError(f"approximant order must be a positive integer, got {k!r}")
        k = int(k)
        checked.append((t, k, L0Scalar.constant(provider.space, k / t)))
    derivatives = provider.scaled_derivatives([(eta, k) for _, k, eta in checked])
    approximants = []
    for (t, k, _), (mantissa, log_scale) in zip(checked, derivatives):
        log_coef = (k + 1.0) * math.log(k / t) - math.lgamma(k + 1.0)
        approx = _unscale(
            mantissa,
            log_coef + log_scale,
            f"approximant at k={k}, t={t!r} exceeds the double range "
            "even in log-space assembly",
        )
        approximants.append(approx.scale(-1.0) if k % 2 else approx)
    return approximants


def post_widder(provider: TransformDerivativeProvider, t: float, k: int) -> RnVector:
    """k-th inversion approximant at time t > 0: the one-point call of post_widder_points."""
    return post_widder_points(provider, [(t, k)])[0]


@dataclass(frozen=True)
class TransformEqualityReport:
    equal: bool
    gaps: tuple[float, ...]
    worst_eta: L0Scalar
    worst_gap: float
    tol: float


def transforms_equal(
    spec1: LaplaceSpec,
    spec2: LaplaceSpec,
    eta_grid: Sequence,
    tol: float,
) -> TransformEqualityReport:
    """Compare two transforms on a damping grid.

    Each transform is computed to tol/4 so quadrature error cannot push a
    genuinely equal pair past the verdict threshold.  Both curves, at every
    damping, are one ``damped_weighted_integrals`` call on their stack, as
    ``stack_specs([spec1, spec2])`` builds it.  A damping outside either
    transform domain is refused first, in the order of one transform per
    curve and damping, and every error names an atom of the curves' own
    space.  The report names the grid point with the largest per-atom gap
    as the witness.
    """
    if spec1.space != spec2.space:
        raise SpaceMismatch("curves live on different probability spaces")
    if spec1.dim != spec2.dim:
        raise DimMismatch("curves have different dimensions")
    etas = [L0Scalar.coerce(spec1.space, e) for e in eta_grid]
    if not etas:
        raise ValueError("the damping grid must be nonempty")
    for eta in etas:
        spec1.bound.margin(eta)
        spec2.bound.margin(eta)
    # both curves as one, copy 0 and copy 1 of the space, every damping on one
    # panel set; both certificates were checked when the specs were made
    curve = _stacked_curve([spec1, spec2])
    weights = [(L0Scalar.of(curve.space, np.tile(eta.values, 2)), 0, tol / 4.0) for eta in etas]
    n = spec1.space.n_atoms
    try:
        results = damped_weighted_integrals(curve, weights)
    except MaxPanelsExceeded as err:
        if err.atom is None or err.atom < n:
            raise
        a = err.atom - n  # copy 1 of the stack is the second curve
        raise MaxPanelsExceeded(
            str(err).replace(f"on atom {err.atom}", f"on atom {a} of the second curve"), atom=a
        ) from None
    values = np.stack([res.scaled_value.values for res in results])
    h1, h2 = np.split(values, 2, axis=1)
    gaps = [float(g) for g in block_norms(h1 - h2).max(axis=1)]
    worst = int(np.argmax(gaps))
    return TransformEqualityReport(
        equal=bool(max(gaps) <= tol),
        gaps=tuple(gaps),
        worst_eta=etas[worst],
        worst_gap=float(gaps[worst]),
        tol=float(tol),
    )
