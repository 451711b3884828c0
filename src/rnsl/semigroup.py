"""Exponentially bounded operator families W with W(0) = C.

A family here satisfies C W(s+t) = W(t) W(s), starts at an injective C, and
grows no faster than M exp(xi t) per atom.  The canonical construction is
W(t) = exp(tA) C for a generator A commuting with C; sampled families wrap an
arbitrary evaluator behind the same checks.

The generator is recovered as C^{-1} of the derivative at 0, the resolvent
comes in two routes (a per-atom solve against (eta - A), and the transform
integral of the family), and a report verifies the generation conditions:
invertibility of eta - A, the power bounds ||(eta-A)^{-n} C|| <= M(eta-xi)^{-n},
commutation of A and C, and the integral representation of resolvent powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    _NODES,
    MIN_STEP,
    CurveSampler,
    _check_eta,
    _coerce_eta,
    _weight_log_scale,
    damped_weighted_integral,
    improper_integral,
)
from .errors import (
    BoundViolated,
    EtaInSpectrum,
    InitialValueMismatch,
    NegativeTime,
    NonCommuting,
    NonFiniteValue,
    NotInjective,
    SolveFailed,
    SpaceMismatch,
    DimMismatch,
    StepUnderflow,
)
from .l0 import L0Scalar, ProbabilitySpace
from .rn import (
    ExponentialBound,
    L0Operator,
    RnVector,
    _check_finite,
    check_injective,
    l0_norm,
    matrix_exp,
    matrix_exp_times,
    op_apply,
    op_norm,
    spectral_norm_bounds,
    spectral_norms,
    worst_atom,
)

COMMUTE_TOL = 1e-10
TIME_ZERO_TOL = 1e-10
GROWTH_SAMPLES = 32
GROWTH_HORIZON = 10.0
GROWTH_SLACK = 1.0 + 1e-9
B4_DEFAULT_TOL = 1e-9
ABEL_RATE_SLACK = 1.5


@dataclass(frozen=True, eq=False)
class CSemigroup:
    """Validated family; ``kind`` tells how values are produced."""

    space: ProbabilitySpace
    dim: int
    C: L0Operator
    bound: ExponentialBound
    generator: L0Operator | None = None
    evaluator: Callable[[float], L0Operator] | None = None

    @property
    def kind(self) -> str:
        return "matrix_generated" if self.generator is not None else "sampled"

    def operator_at(self, t: float) -> L0Operator:
        if t < 0.0:
            raise NegativeTime(f"family parameter must be nonnegative, got {t!r}")
        if self.generator is not None:
            return matrix_exp(self.generator, t) @ self.C
        op = self.evaluator(t)
        if not isinstance(op, L0Operator):
            raise TypeError("family evaluator must return an L0Operator")
        if op.space != self.space or op.dim != self.dim:
            raise SpaceMismatch(f"family evaluator changed space/dim at t={t!r}")
        return op


def _frobenius_per_atom(mats: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("aij,aij->a", mats, mats))


def _require_injective(T: L0Operator, what: str, error: type) -> None:
    """Singular-value gate; raises ``error`` naming the first failing atom."""
    rep = check_injective(T)
    if not rep.injective:
        a = rep.witness_atom
        raise error(
            f"{what} is numerically singular on atom {a} "
            f"(singular value ratio {rep.min_sv_ratio[a]!r})",
            atom=a,
        )


def _raise_first_escape(ts: np.ndarray, norms: np.ndarray, envelope: np.ndarray) -> None:
    """BoundViolated at the first time, then the first atom, where norms escape."""
    hits = np.argwhere(norms > GROWTH_SLACK * envelope)
    if hits.size:
        i, a = (int(v) for v in hits[0])
        raise BoundViolated(
            f"family norm {norms[i, a]!r} escapes its envelope {envelope[i, a]!r} "
            f"at t={float(ts[i])!r} on atom {a}",
            atom=a,
            t=float(ts[i]),
        )


def _check_growth(
    family: Callable[[float], L0Operator],
    bound: ExponentialBound,
    stacked: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """Growth gate on GROWTH_SAMPLES times up to GROWTH_HORIZON.

    ``stacked`` gives the operators at all the times in one call.  A block
    whose certified bound (``spectral_norm_bounds``, never below its exact
    norm) is within the slackened envelope passes; only the others get
    exact norms, so every escape, and the first one reported, is what exact
    norms on every block give.  When ``stacked`` overflows, the per-time
    loop runs instead, so that an escape at an earlier time is still the
    error reported.
    """
    ts = np.linspace(0.0, GROWTH_HORIZON, GROWTH_SAMPLES)
    if stacked is not None:
        try:
            mats = stacked(ts)
        except NonFiniteValue:
            pass
        else:
            envelope = bound.envelope(ts)
            norms = spectral_norm_bounds(mats)
            undecided = ~(norms <= GROWTH_SLACK * envelope)
            norms[undecided] = spectral_norms(mats[undecided])
            _raise_first_escape(ts, norms, envelope)
            return
    for t in ts:
        norms = op_norm(family(float(t))).values
        _raise_first_escape(t[None], norms[None], bound.envelope(t)[None])


def _generated(A: L0Operator, C: L0Operator, ts) -> np.ndarray:
    """exp(tA) C at every time of ``ts``: shape (len(ts), n_atoms, d, d)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mats = matrix_exp_times(A, ts) @ C.matrices
    if not np.isfinite(mats).all():
        raise NonFiniteValue("operator entries must be finite")
    return mats


def make_matrix_semigroup(
    A: L0Operator, C: L0Operator, bound: ExponentialBound
) -> CSemigroup:
    """Build W(t) = exp(tA) C, validating injectivity, commutation, growth."""
    if A.space != C.space or A.space != bound.space:
        raise SpaceMismatch("A, C and the certificate must share one space")
    if A.dim != C.dim:
        raise DimMismatch(f"A has dim {A.dim}, C has dim {C.dim}")
    _require_injective(C, "C", NotInjective)
    comm = _frobenius_per_atom(A.matrices @ C.matrices - C.matrices @ A.matrices)
    bad = np.nonzero(comm > COMMUTE_TOL)[0]
    if bad.size:
        a = int(bad[0])
        raise NonCommuting(
            f"A and C do not commute on atom {a} (gap {comm[a]!r})", atom=a
        )
    _check_growth(lambda t: matrix_exp(A, t) @ C, bound, partial(_generated, A, C))
    return CSemigroup(A.space, A.dim, C, bound, generator=A)


def make_sampled_semigroup(
    space: ProbabilitySpace,
    dim: int,
    C: L0Operator,
    evaluator: Callable[[float], L0Operator],
    bound: ExponentialBound,
) -> CSemigroup:
    """Wrap an arbitrary evaluator behind the family checks."""
    if C.space != space or bound.space != space:
        raise SpaceMismatch("C and the certificate must live on the given space")
    if C.dim != dim:
        raise DimMismatch(f"C has dim {C.dim}, expected {dim}")
    _require_injective(C, "C", NotInjective)
    w0 = evaluator(0.0)
    gap = _frobenius_per_atom(w0.matrices - C.matrices)
    bad = np.nonzero(gap > TIME_ZERO_TOL)[0]
    if bad.size:
        a = int(bad[0])
        raise InitialValueMismatch(
            f"family does not start at C on atom {a} (gap {gap[a]!r})", atom=a
        )
    _check_growth(evaluator, bound)
    return CSemigroup(space, dim, C, bound, evaluator=evaluator)


def evaluate(W: CSemigroup, t: float, x: RnVector) -> RnVector:
    """Apply the family member at parameter t to a vector."""
    return op_apply(W.operator_at(t), x)


def estimate_generator(W: CSemigroup, x: RnVector, h0: float) -> RnVector:
    """Richardson-extrapolated one-sided derivative at 0, then a C-solve.

    (W(h)x - Cx)/h has a first-order error term; combining h0 and h0/2 as
    2 D(h0/2) - D(h0) cancels it, and solving C y = limit recovers the
    generator's action on x.
    """
    if h0 < MIN_STEP:
        raise StepUnderflow(f"step {h0!r} is below the supported resolution {MIN_STEP}")
    cx = op_apply(W.C, x).values
    d1 = (evaluate(W, h0, x).values - cx) / h0
    d2 = (evaluate(W, 0.5 * h0, x).values - cx) / (0.5 * h0)
    return _solve_c(W.C, 2.0 * d2 - d1)


def _solve_c(C: L0Operator, rhs: np.ndarray) -> RnVector:
    """The y with C y = rhs on every atom; ``rhs`` is (n_atoms, d)."""
    try:
        y = np.linalg.solve(C.matrices, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolveFailed(f"C-solve failed: {exc}") from None
    if not np.isfinite(y).all():
        raise SolveFailed("C-solve produced non-finite values")
    return RnVector.of(C.space, y)


def _orbit_curve(
    family: Callable[[float], L0Operator],
    bound: ExponentialBound,
    x: RnVector,
    stacked: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CurveSampler:
    """Orbit t -> family(t)x with the induced per-atom certificate M ||x||.

    ``stacked`` maps an array of times to the family's operators there,
    shape (len(ts), n_atoms, d, d); the orbit then samples in one call.
    That call stacks the operators of at most one panel's nodes at a time,
    so a quadrature round over many panels does not hold all their
    (times, n_atoms, d, d) operators at once; it is also faster than one
    call over the whole round.
    """
    cert = ExponentialBound(
        L0Scalar.of(bound.space, bound.M.values * l0_norm(x).values), bound.xi
    )

    def batch(ts: np.ndarray) -> np.ndarray:
        step = len(_NODES)
        return np.concatenate([
            np.einsum("taij,aj->tai", stacked(ts[i:i + step]), x.values)
            for i in range(0, len(ts), step)
        ])

    return CurveSampler(
        bound.space, x.dim, 0.0, math.inf, lambda s: op_apply(family(s), x),
        bound=cert, batch=None if stacked is None else batch,
    )


def c_resolvent_integral(W: CSemigroup, eta, x: RnVector, tol: float) -> RnVector:
    """Resolvent route through the transform of the orbit t -> W(t)x."""
    eta = _coerce_eta(W.space, eta)
    stacked = None if W.generator is None else partial(_generated, W.generator, W.C)
    curve = _orbit_curve(W.operator_at, W.bound, x, stacked)
    return improper_integral(curve, eta, tol).value


def _shift(A: L0Operator, eta: L0Scalar) -> L0Operator:
    """eta - A on every atom."""
    return L0Operator.scaled_identity(A.space, A.dim, eta) - A


def _inverse(T: L0Operator) -> np.ndarray:
    mats = T.matrices
    return np.linalg.solve(mats, np.broadcast_to(np.eye(T.dim), mats.shape).copy())


def _shifted_inverse(A: L0Operator, eta: L0Scalar) -> np.ndarray:
    """(eta - A)^{-1} per atom, gated on the singular value ratio."""
    shift = _shift(A, eta)
    _require_injective(shift, "eta - A", EtaInSpectrum)
    return _inverse(shift)


def c_resolvent_direct(A: L0Operator, C: L0Operator, eta, x: RnVector) -> RnVector:
    """Resolvent route by per-atom solve: (eta - A) y = C x."""
    shift = _shift(A, _coerce_eta(A.space, eta))
    _require_injective(shift, "eta - A", EtaInSpectrum)
    rhs = op_apply(C, x).values
    return RnVector.of(A.space, np.linalg.solve(shift.matrices, rhs[:, :, None])[:, :, 0])


def resolvent_operator(A: L0Operator, C: L0Operator, eta) -> L0Operator:
    """(eta - A)^{-1} C as an operator."""
    eta = _coerce_eta(A.space, eta)
    inv = _shifted_inverse(A, eta)
    return L0Operator.of(A.space, inv @ C.matrices)


def transform_identity_gap(
    family: Callable[[float], L0Operator],
    A: L0Operator,
    C: L0Operator,
    bound: ExponentialBound,
    eta,
    x: RnVector,
    tol: float,
) -> float:
    """Worst-atom gap between the family's transform on x and the resolvent.

    Small gaps on a damping grid are the transform characterization of the
    family generated by (A, C); a perturbed family shows a visible gap.
    """
    eta = _coerce_eta(A.space, eta)
    integral = improper_integral(_orbit_curve(family, bound, x), eta, tol).value
    direct = c_resolvent_direct(A, C, eta, x)
    return float(l0_norm(integral - direct).values.max())


def yosida_approximant(
    A: L0Operator, C: L0Operator, eta, t: float, x: RnVector
) -> RnVector:
    """Bounded-generator surrogate exp(-eta t) exp(eta^2 (eta-A)^{-1} t) C x.

    The two exponentials commute, so they are combined into one exponent
    eta A (eta - A)^{-1} before calling the matrix exponential; this is
    algebraically identical and keeps every intermediate within range even
    for large eta * t.
    """
    if t < 0.0:
        raise NegativeTime(f"approximant time must be nonnegative, got {t!r}")
    eta = _coerce_eta(A.space, eta)
    inv = _shifted_inverse(A, eta)
    yosida = L0Operator.of(
        A.space, eta.values[:, None, None] * (A.matrices @ inv)
    )
    return op_apply(matrix_exp(yosida, t) @ C, x)


@dataclass(frozen=True)
class AbelLimitReport:
    """Convergence of eta * resolvent toward C along an increasing grid."""

    etas: tuple[L0Scalar, ...]
    gaps: np.ndarray  # shape (n_etas, n_atoms)
    max_gaps: tuple[float, ...]
    envelope: np.ndarray  # per-atom rate envelope the last gap must stay under
    decreasing: bool
    envelope_ok: bool
    passed: bool


def abel_limit_check(
    A: L0Operator,
    C: L0Operator,
    bound: ExponentialBound,
    x: RnVector,
    eta_sequence: Sequence,
) -> AbelLimitReport:
    """Check eta R(eta) x -> C x with the proof's 1/(eta - xi) rate.

    The verdict needs the per-eta gaps to be nonincreasing and the last gap
    to satisfy last <= first * (eta_1 - xi)/(eta_last - xi) * 1.5 per atom.
    """
    etas = [_coerce_eta(A.space, e) for e in eta_sequence]
    if len(etas) < 2:
        raise ValueError("the damping sequence needs at least two points")
    xi = bound.xi.values
    prev = None
    for eta in etas:
        _check_eta(eta, bound.xi)
        if prev is not None and not (eta.values > prev).all():
            raise ValueError("the damping sequence must increase strictly per atom")
        prev = eta.values
    cx = op_apply(C, x)
    gaps = np.empty((len(etas), A.space.n_atoms))
    for i, eta in enumerate(etas):
        approx = c_resolvent_direct(A, C, eta, x).module_mul(eta)
        gaps[i] = l0_norm(approx - cx).values
    max_gaps = gaps.max(axis=1)
    slack = 1e-12 * (1.0 + max_gaps[0])
    decreasing = bool(np.all(np.diff(max_gaps) <= slack))
    first_margin = etas[0].values - xi
    last_margin = etas[-1].values - xi
    envelope = gaps[0] * (first_margin / last_margin) * ABEL_RATE_SLACK
    envelope_ok = bool(np.all(gaps[-1] <= envelope + 1e-14))
    return AbelLimitReport(
        etas=tuple(etas),
        gaps=gaps,
        max_gaps=tuple(float(v) for v in max_gaps),
        envelope=envelope,
        decreasing=decreasing,
        envelope_ok=envelope_ok,
        passed=decreasing and envelope_ok,
    )


@dataclass(frozen=True)
class PowerRow:
    """One (eta, n) line of the power-bound ladder."""

    n: int
    norms: np.ndarray
    bounds: np.ndarray
    worst_atom: int
    gap: float  # max over atoms of norm - bound
    passed: bool


@dataclass(frozen=True)
class RouteRow:
    """Resolvent power by direct solve vs by weighted transform integral."""

    n: int
    gap: float
    passed: bool


@dataclass(frozen=True)
class ResolventEntry:
    eta: L0Scalar
    min_sv_ratio: np.ndarray
    invertible: bool
    power_rows: tuple[PowerRow, ...]
    route_rows: tuple[RouteRow, ...]


@dataclass(frozen=True)
class ResolventReport:
    """Generation-condition checks for a candidate pair (A, C) plus bound."""

    entries: tuple[ResolventEntry, ...]
    commutation_gap: np.ndarray
    commutation_ok: bool
    b4_tol: float
    route_tol: float
    passed: bool

    def b4_rows(self):
        """Worst-atom ladder rows (eta, n, norm, bound, pass) for export."""
        rows = []
        for e in self.entries:
            eta_repr = float(e.eta.values.max())
            for row in e.power_rows:
                a = row.worst_atom
                rows.append(
                    (eta_repr, row.n, float(row.norms[a]), float(row.bounds[a]),
                     row.passed)
                )
        return rows


def hille_yosida_report(
    A: L0Operator,
    C: L0Operator,
    bound: ExponentialBound,
    eta_grid: Sequence,
    n_max: int,
    b4_tol: float = B4_DEFAULT_TOL,
    route_tol: float = 1e-6,
    quad_tol: float = 1e-8,
) -> ResolventReport:
    """Measure the generation conditions on a damping grid.

    The family is evaluated as exp(tA) C without re-validating the growth
    certificate: a wrong certificate is exactly what the power-bound ladder
    must expose rather than a constructor reject.  The two resolvent routes
    are compared on the first basis vector e_1 of every atom.  An empty grid
    yields an empty report that passes vacuously on the per-eta rows.
    """
    if A.space != C.space or A.space != bound.space:
        raise SpaceMismatch("A, C and the certificate must share one space")
    if A.dim != C.dim:
        raise DimMismatch(f"A has dim {A.dim}, C has dim {C.dim}")
    if n_max < 1:
        raise ValueError("the ladder needs n_max >= 1")
    probe = RnVector.constant(A.space, np.eye(A.dim)[0])
    comm = _frobenius_per_atom(A.matrices @ C.matrices - C.matrices @ A.matrices)
    commutation_ok = bool(comm.max() <= COMMUTE_TOL)
    M = bound.M.values
    probe_curve = _orbit_curve(
        lambda s: matrix_exp(A, s) @ C, bound, probe, partial(_generated, A, C)
    )
    entries = []
    all_ok = commutation_ok
    for eta_raw in eta_grid:
        eta = _coerce_eta(A.space, eta_raw)
        margin = _check_eta(eta, bound.xi)
        shift = _shift(A, eta)
        gate = check_injective(shift)
        invertible = gate.injective
        power_rows: list[PowerRow] = []
        route_rows: list[RouteRow] = []
        if invertible:
            inv = _inverse(shift)
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                powers = [inv @ C.matrices]
                for _ in range(1, n_max):
                    powers.append(inv @ powers[-1])
            powers = np.stack(powers)  # (n_max, atoms, d, d): R(eta)^n C for n = 1..n_max
            _check_finite(powers, "operator entries")
            ladder_norms = spectral_norms(powers)
            for n, (power, norms) in enumerate(zip(powers, ladder_norms), start=1):
                bounds = M * margin ** (-float(n))
                diffs = norms - bounds
                power_rows.append(
                    PowerRow(
                        n=n,
                        norms=norms,
                        bounds=bounds,
                        worst_atom=worst_atom(diffs),
                        gap=float(diffs.max()),
                        passed=bool((diffs <= b4_tol).all()),
                    )
                )
                if n <= 3:
                    direct = np.einsum("aij,aj->ai", power, probe.values)
                    res = damped_weighted_integral(
                        probe_curve, eta, n - 1,
                        quad_tol * np.exp(-_weight_log_scale(n - 1, eta.values)),
                    )
                    integral = (
                        np.exp(res.log_scale)[:, None] * res.scaled_value.values
                        / math.factorial(n - 1)
                    )
                    gap = float(
                        np.sqrt(((direct - integral) ** 2).sum(axis=1)).max()
                    )
                    route_rows.append(RouteRow(n=n, gap=gap, passed=gap <= route_tol))
        entry = ResolventEntry(
            eta=eta,
            min_sv_ratio=gate.min_sv_ratio,
            invertible=invertible,
            power_rows=tuple(power_rows),
            route_rows=tuple(route_rows),
        )
        entries.append(entry)
        all_ok = all_ok and invertible
        all_ok = all_ok and all(r.passed for r in power_rows)
        all_ok = all_ok and all(r.passed for r in route_rows)
    return ResolventReport(
        entries=tuple(entries),
        commutation_gap=comm,
        commutation_ok=commutation_ok,
        b4_tol=float(b4_tol),
        route_tol=float(route_tol),
        passed=all_ok,
    )
