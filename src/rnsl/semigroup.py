"""Exponentially bounded operator families W with W(0) = C.

A family here satisfies C W(s+t) = W(t) W(s), starts at an injective C that
commutes with it, and grows no faster than M exp(xi t) per atom.  On a finite
space every such family is W(t) = exp(tA) C: C is invertible on each atom,
so C^{-1} W(t) is a continuous semigroup on R^d, which is exp(tA).  A family
given only as an evaluator t -> W(t) has its A recovered and checked.

The resolvent comes in two routes (a per-atom solve against (eta - A), and
the transform integral of the family, taken as that of the damped family
exp(t(A - xi)) C at gamma = eta - xi), and a report verifies the generation
conditions: invertibility of eta - A, the power bounds
||(eta-A)^{-n} C|| <= M(eta-xi)^{-n}, commutation of A and C, and the
integral representation of resolvent powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    _NODES,
    MIN_STEP,
    CurveSampler,
    _weight_log_scale,
    damped_weighted_integrals,
    improper_integral,
)
from .errors import (
    EtaInSpectrum,
    InitialValueMismatch,
    NegativeTime,
    NonCommuting,
    NonFiniteValue,
    NotInjective,
    SpaceMismatch,
    DimMismatch,
    StepUnderflow,
)
from .l0 import L0Scalar, ProbabilitySpace
from .rn import (
    ExponentialBound,
    L0Operator,
    RnVector,
    _check_envelope,
    _check_finite,
    _expm_powers,
    _expm_times,
    _one_norms,
    _slackened,
    _taylor_powers,
    block_norms,
    check_injective,
    exp_norm_bounds,
    l0_norm,
    matrix_exp,
    op_apply,
    spectral_norms,
    worst_atom,
)
from .scenario import TOLERANCES

COMMUTE_TOL = 1e-10
SAMPLED_RTOL = 1e-9  # largest entry gap to exp(tA) C over its largest entry
_LOG_TERMS = 30  # at ||X||_1 <= 1/4 the log series' tail is below 4^-30 ||X||
GROWTH_SAMPLES = 32
GROWTH_HORIZON = 10.0
ABEL_RATE_SLACK = 1.5
ABEL_ENVELOPE_TOL = 1e-14  # absolute allowance of the last gap over its rate envelope


@dataclass(frozen=True, eq=False)
class CSemigroup:
    """Family W(t) = exp(t generator) C, validated when ``make_matrix_semigroup`` builds it."""

    space: ProbabilitySpace
    dim: int
    C: L0Operator
    bound: ExponentialBound
    generator: L0Operator

    @cached_property
    def _taylor(self) -> tuple[np.ndarray, np.ndarray]:
        """The generator's Taylor powers, formed in the first ``at`` call and kept for the rest."""
        return _taylor_powers(self.generator.matrices)

    def at(self, ts) -> np.ndarray:
        """exp(t generator) C at every time of ``ts``: shape (len(ts), n_atoms, d, d).

        Each block has the bits of ``matrix_exp_times(generator, ts) @ C``
        whatever the other times of the call.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        _check_finite(ts, "time")
        with np.errstate(over="ignore", invalid="ignore"):
            mats = _expm_powers(*self._taylor, ts) @ self.C.matrices
        _check_finite(mats, "operator entries")
        return mats

    def operator_at(self, t: float) -> L0Operator:
        if t < 0.0:
            raise NegativeTime(f"family parameter must be nonnegative, got {t!r}")
        return L0Operator.of(self.space, self.at([t])[0])


def _commutator_gaps(A: L0Operator, C: L0Operator, bound: ExponentialBound) -> np.ndarray:
    """Per-atom Frobenius norm of AC - CA, once A, C and the bound share a space and A, C a dim."""
    if A.space != C.space or A.space != bound.space:
        raise SpaceMismatch("A, C and the certificate must share one space")
    if A.dim != C.dim:
        raise DimMismatch(f"A has dim {A.dim}, C has dim {C.dim}")
    comm = A.matrices @ C.matrices - C.matrices @ A.matrices
    return block_norms(comm.reshape(len(comm), -1))


def _require_injective(T: L0Operator, what: str, error: type) -> np.ndarray:
    """Singular-value gate: raises ``error`` naming the first failing atom, or returns each ||block||_2."""
    rep = check_injective(T)
    if not rep.injective:
        a = rep.witness_atom
        raise error(
            f"{what} is numerically singular on atom {a} "
            f"(singular value ratio {float(rep.min_sv_ratio[a])!r})",
            atom=a,
        )
    return rep.max_sv


def _check_growth(A: L0Operator, C: L0Operator, bound: ExponentialBound, c_norms: np.ndarray) -> None:
    """Growth gate for exp(tA) C on GROWTH_SAMPLES times up to GROWTH_HORIZON.

    ``c_norms`` holds each ||C||_2 from LAPACK's SVD.  Two tiers, the
    second on what the first leaves open:
    1. A block (time, atom) with a finite ``exp_norm_bounds`` bound,
       ||C|| exp(t mu_2(A)) with its allowances and margin, within the
       slackened envelope passes with no exponential.  An infinite envelope
       settles no block without one, since its exponential may overflow.
    2. The operators of the atoms and times with an open block come from
       one call, and get exact norms.
    The bound is never below the exact norm of a computed block, and the
    kernel and ``spectral_norms`` give each block the same bits whatever
    the batch, so every escape, its message and the first one reported are
    what exact norms on every block give.  An escape at a time before the
    first one with an overflowing block is reported before the overflow.
    """
    ts = np.linspace(0.0, GROWTH_HORIZON, GROWTH_SAMPLES)
    envelope = bound.envelope(ts)
    bounds = exp_norm_bounds(A.matrices, c_norms, ts)  # finite wherever one is given
    open_blocks = ~((bounds <= _slackened(envelope)) & (bounds < np.inf))
    times, atoms = (np.flatnonzero(open_blocks.any(axis=k)) for k in (1, 0))
    if not atoms.size:
        return
    ts, envelope = ts[times], envelope[times][:, atoms]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        mats = _expm_times(A.matrices[atoms], ts) @ C.matrices[atoms]
    finite = np.isfinite(mats).all(axis=(1, 2, 3))
    first = len(ts) if finite.all() else int(finite.argmin())  # the times before it have no overflow
    _check_envelope("family", "t", ts[:first], spectral_norms(mats[:first]), envelope[:first], A.dim, c_norms, atoms)
    if first < len(ts):
        raise NonFiniteValue("operator entries must be finite")


def make_matrix_semigroup(
    A: L0Operator, C: L0Operator, bound: ExponentialBound
) -> CSemigroup:
    """Build W(t) = exp(tA) C, validating injectivity, commutation, growth."""
    comm = _commutator_gaps(A, C, bound)
    c_norms = _require_injective(C, "C", NotInjective)
    bad = np.nonzero(comm > COMMUTE_TOL)[0]
    if bad.size:
        a = int(bad[0])
        raise NonCommuting(
            f"A and C do not commute on atom {a} (gap {float(comm[a])!r})", atom=a
        )
    _check_growth(A, C, bound, c_norms)
    return CSemigroup(A.space, A.dim, C, bound, A)


def _raise_first_departure(ts: np.ndarray, mats: np.ndarray, want: np.ndarray) -> None:
    """InitialValueMismatch at the first time, then atom, where ``mats`` leave ``want``.

    Both are (len(ts), n_atoms, d, d); a block departs when its largest
    entry gap exceeds SAMPLED_RTOL times the largest entry of ``want``.
    """
    with np.errstate(over="ignore"):  # an infinite gap departs
        gap = np.abs(mats - want).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(want).max(axis=(-2, -1), initial=0.0)
    hits = np.argwhere(~(gap <= SAMPLED_RTOL * scale))
    if hits.size:
        i, a = (int(v) for v in hits[0])
        raise InitialValueMismatch(
            f"family departs from exp(tA) C at t={float(ts[i])!r} on atom {a} (largest "
            f"entry gap {float(gap[i, a])!r}, largest entry {float(scale[i, a])!r})",
            atom=a,
            t=float(ts[i]),
        )


def _recover_generator(
    C: L0Operator, family_at: Callable[[float], np.ndarray], h: float = 1.0
) -> tuple[L0Operator, float]:
    """The A with exp(hA) = C^{-1} W(h) on every atom, by a log series at a small h, and that h.

    h halves from ``h`` until X = C^{-1} W(h) - I has ||X||_1 <= 1/4 on every
    atom; then A = log(I + X) / h, with log(I + X) = X - X^2/2 + X^3/3 - ...
    summed to _LOG_TERMS terms.  A family that stays away from C as h -> 0
    raises StepUnderflow once h falls below MIN_STEP.  A generator that
    turns a whole period in h (exp(hA) = I with hA != 0) is not seen at that
    step; ``make_sampled_semigroup`` then recovers once more below h.
    """
    eye = np.eye(C.dim)
    while True:
        X = np.linalg.solve(C.matrices, family_at(h)) - eye
        far = np.nonzero(~(_one_norms(X) <= 0.25))[0]
        if not far.size:
            break
        h *= 0.5
        if h < MIN_STEP:
            raise StepUnderflow(
                f"C^-1 W(h) stays farther than 1/4 from I on atom {int(far[0])} for every "
                f"step h >= {MIN_STEP}: the family is not continuous at 0"
            )
    series = eye / _LOG_TERMS  # Horner: log(I + X) = X (I - X (I/2 - X (I/3 - ...)))
    for k in range(_LOG_TERMS - 1, 0, -1):
        series = eye / k - X @ series
    return L0Operator.of(C.space, (X @ series) / h), h


def make_sampled_semigroup(
    space: ProbabilitySpace,
    dim: int,
    C: L0Operator,
    evaluator: Callable[[float], L0Operator],
    bound: ExponentialBound,
) -> CSemigroup:
    """The family of an evaluator t -> W(t), as exp(tA) C with A recovered from it.

    W must match exp(tA) C within SAMPLED_RTOL at the growth check's times,
    W(0) = C first; a departure raises InitialValueMismatch at its time and
    atom.  When the first A departs, A is recovered once more from half its
    step down, which finds a generator that turned a whole period in that
    step (a rotation by 2 pi at h = 1); if that A departs too, the first
    departure is raised.  (A, C, bound) then go through
    ``make_matrix_semigroup``.
    """
    if C.space != space or bound.space != space:
        raise SpaceMismatch("C and the certificate must live on the given space")
    if C.dim != dim:
        raise DimMismatch(f"C has dim {C.dim}, expected {dim}")
    _require_injective(C, "C", NotInjective)

    def family_at(t: float) -> np.ndarray:
        op = evaluator(t)
        if not isinstance(op, L0Operator):
            raise TypeError("family evaluator must return an L0Operator")
        if op.space != space or op.dim != dim:
            raise SpaceMismatch(f"family evaluator returned another space/dim at t={t!r}")
        return op.matrices

    ts = np.linspace(0.0, GROWTH_HORIZON, GROWTH_SAMPLES)
    mats = np.stack([family_at(float(t)) for t in ts])
    _raise_first_departure(ts[:1], mats[:1], C.matrices[None])
    A, h = _recover_generator(C, family_at)
    try:
        _raise_first_departure(ts, mats, CSemigroup(space, dim, C, bound, A).at(ts))
    except InitialValueMismatch as first:
        A, _ = _recover_generator(C, family_at, 0.5 * h)
        try:
            _raise_first_departure(ts, mats, CSemigroup(space, dim, C, bound, A).at(ts))
        except InitialValueMismatch:
            raise first from None
    return make_matrix_semigroup(A, C, bound)


def evaluate(W: CSemigroup, t: float, x: RnVector) -> RnVector:
    """Apply the family member at parameter t to a vector."""
    return op_apply(W.operator_at(t), x)


def _orbit_curve(W: CSemigroup, x: RnVector) -> CurveSampler:
    """Orbit t -> W(t) x with the induced per-atom certificate M ||x||.

    Its batch stacks the operators of at most one panel's nodes at a time,
    so a quadrature round over many panels does not hold all their
    (times, n_atoms, d, d) operators at once; it is also faster than one
    call over the whole round.  Every value keeps the bits of one
    ``W.at`` call: (exp(tA) C) x, in that order.
    """
    cert = ExponentialBound(
        L0Scalar.of(W.space, W.bound.M.values * l0_norm(x).values), W.bound.xi
    )

    def batch(ts: np.ndarray) -> np.ndarray:
        step = len(_NODES)
        return np.concatenate([
            np.einsum("taij,aj->tai", W.at(ts[i:i + step]), x.values)
            for i in range(0, len(ts), step)
        ])

    return CurveSampler.from_batch(W.space, x.dim, 0.0, math.inf, batch, bound=cert)


def _damped_orbit(W: CSemigroup, x: RnVector) -> CurveSampler:
    """Damped orbit t -> exp(-xi t) W(t) x = exp(t(A - xi)) C x, certified by (M ||x||, 0).

    Its transform at gamma = eta - xi is the orbit's at eta, and its samples
    stay in the double range wherever the integrand does.
    """
    shifted = W.generator.matrices - W.bound.xi.values[:, None, None] * np.eye(W.dim)
    bound = ExponentialBound(W.bound.M, L0Scalar.zero(W.space))
    return _orbit_curve(CSemigroup(W.space, W.dim, W.C, bound, L0Operator(W.space, shifted)), x)


def c_resolvent_integral(W: CSemigroup, eta, x: RnVector, tol: float) -> RnVector:
    """Resolvent route through the transform of the orbit t -> W(t)x, as its damped orbit's at eta - xi."""
    gamma = W.bound.margin(eta)
    return improper_integral(_damped_orbit(W, x), L0Scalar.of(W.space, gamma), tol).value


def _eta_minus(A: L0Operator, eta) -> np.ndarray:
    """eta - A on every atom, shape (n_atoms, d, d); eta may be a number."""
    shift = L0Scalar.coerce(A.space, eta).values[:, None, None] * np.eye(A.dim) - A.matrices
    _check_finite(shift, "operator entries")
    return shift


def _solve(shift: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
    """shift^{-1} per atom, shape (n_atoms, d, d), or applied to the (n_atoms, d) ``vectors``."""
    if vectors is None:
        return np.linalg.solve(shift, np.broadcast_to(np.eye(shift.shape[-1]), shift.shape))
    return np.linalg.solve(shift, vectors[:, :, None])[:, :, 0]


def resolvent_solve(A: L0Operator, eta, vectors: np.ndarray | None = None) -> np.ndarray:
    """(eta - A)^{-1} per atom, or applied to the (n_atoms, d) ``vectors``; eta may be a number.

    EtaInSpectrum names the first atom where ``check_injective`` finds eta - A singular.
    """
    shift = _eta_minus(A, eta)
    _require_injective(L0Operator(A.space, shift), "eta - A", EtaInSpectrum)
    return _solve(shift, vectors)


def c_resolvent_direct(A: L0Operator, C: L0Operator, eta, x: RnVector) -> RnVector:
    """Resolvent route by per-atom solve: (eta - A) y = C x."""
    return RnVector.of(A.space, resolvent_solve(A, eta, op_apply(C, x).values))


def resolvent_operator(A: L0Operator, C: L0Operator, eta) -> L0Operator:
    """(eta - A)^{-1} C as an operator."""
    return L0Operator.of(A.space, resolvent_solve(A, eta) @ C.matrices)


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
    eta = L0Scalar.coerce(A.space, eta)
    yosida = L0Operator.of(
        A.space, eta.values[:, None, None] * (A.matrices @ resolvent_solve(A, eta))
    )
    return op_apply(matrix_exp(yosida, t) @ C, x)


@dataclass(frozen=True)
class AbelLimitReport:
    """Convergence of eta * resolvent toward C along an increasing grid."""

    etas: tuple[L0Scalar, ...]
    gaps: np.ndarray  # shape (n_etas, n_atoms)
    max_gaps: tuple[float, ...]
    rise_slack: float  # how far a largest gap may rise over the one before
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
    etas = [L0Scalar.coerce(A.space, e) for e in eta_sequence]
    if len(etas) < 2:
        raise ValueError("the damping sequence needs at least two points")
    margins = []
    for i, eta in enumerate(etas):
        margins.append(bound.margin(eta))
        if i and not (eta.values > etas[i - 1].values).all():
            raise ValueError("the damping sequence must increase strictly per atom")
    cx = op_apply(C, x).values
    gaps = np.empty((len(etas), A.space.n_atoms))
    for i, eta in enumerate(etas):
        gap = eta.values[:, None] * resolvent_solve(A, eta, cx) - cx
        _check_finite(gap, "vector coordinates")
        gaps[i] = block_norms(gap)
    max_gaps = gaps.max(axis=1)
    slack = 1e-12 * (1.0 + max_gaps[0])
    decreasing = bool(np.all(np.diff(max_gaps) <= slack))
    envelope = gaps[0] * (margins[0] / margins[-1]) * ABEL_RATE_SLACK
    envelope_ok = bool(np.all(gaps[-1] <= envelope + ABEL_ENVELOPE_TOL))
    return AbelLimitReport(
        etas=tuple(etas),
        gaps=gaps,
        max_gaps=tuple(float(v) for v in max_gaps),
        rise_slack=float(slack),
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
    b4_tol: float = TOLERANCES["b4"],
    route_tol: float = TOLERANCES["resolvent_route"],
    quad_tol: float = TOLERANCES["quadrature"],
) -> ResolventReport:
    """Measure the generation conditions on a damping grid.

    The family is evaluated as exp(tA) C without re-validating the growth
    certificate: a wrong certificate is exactly what the power-bound ladder
    must expose rather than a constructor reject.  The two resolvent routes
    are compared on the first basis vector e_1 of every atom, the integral
    route on the damped orbit exp(s(A - xi)) C e_1 at gamma = eta - xi.  An
    empty grid yields an empty report that passes vacuously on the per-eta
    rows.
    """
    comm = _commutator_gaps(A, C, bound)
    if n_max < 1:
        raise ValueError("the ladder needs n_max >= 1")
    probe = RnVector.constant(A.space, np.eye(1, A.dim)[0])
    commutation_ok = bool(comm.max() <= COMMUTE_TOL)
    M = bound.M.values
    probe_curve = _damped_orbit(CSemigroup(A.space, A.dim, C, bound, A), probe)
    ladder = []  # (eta, eta - xi, gate, power rows, R(eta)^n C e_1 for n <= 3; none if singular)
    for eta_raw in eta_grid:
        eta = L0Scalar.coerce(A.space, eta_raw)
        margin = bound.margin(eta)
        shift = _eta_minus(A, eta)
        gate = check_injective(L0Operator(A.space, shift))
        power_rows: list[PowerRow] = []
        direct = ()
        if gate.injective:
            inv = _solve(shift)
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                powers = [inv @ C.matrices]
                for _ in range(1, n_max):
                    powers.append(inv @ powers[-1])
            powers = np.stack(powers)  # (n_max, atoms, d, d): R(eta)^n C for n = 1..n_max
            _check_finite(powers, "operator entries")
            ladder_norms = spectral_norms(powers)
            for n, norms in enumerate(ladder_norms, start=1):
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
            direct = np.einsum("naij,aj->nai", powers[:3], probe.values)
        ladder.append((eta, margin, gate, power_rows, direct))
    # the route integrals of every invertible eta share one panel set, on the damped orbit
    routes = [
        (L0Scalar.of(A.space, margin), n - 1, quad_tol * np.exp(-_weight_log_scale(n - 1, margin)))
        for _, margin, _, _, direct in ladder
        for n in range(1, len(direct) + 1)
    ]
    results = iter(damped_weighted_integrals(probe_curve, routes))
    entries = []
    all_ok = commutation_ok
    for eta, _, gate, power_rows, direct in ladder:
        route_rows: list[RouteRow] = []
        for n, want in enumerate(direct, start=1):
            res = next(results)
            integral = (
                np.exp(res.log_scale)[:, None] * res.scaled_value.values
                / math.factorial(n - 1)
            )
            gap = float(block_norms(want - integral).max())
            route_rows.append(RouteRow(n=n, gap=gap, passed=gap <= route_tol))
        entries.append(ResolventEntry(
            eta=eta,
            min_sv_ratio=gate.min_sv_ratio,
            invertible=gate.injective,
            power_rows=tuple(power_rows),
            route_rows=tuple(route_rows),
        ))
        all_ok = all_ok and gate.injective
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
