"""Abstract Cauchy problems u' = A u driven by a validated family.

The solution through an admissible start is read off the family itself:
u(t) = W(t) v0 with C v0 = u(0).  Admission comes in two forms: a direct
v0, or a resolvent-seeded start u(0) = (eta - A)^{-1} C y0.  Trajectories
carry per-atom defect residuals (central differences against A u on the
grid interior, one-sided and flagged at the endpoints) and graph norms
||u|| + ||A u||.

A classic fixed-step integrator doubles as an independent oracle for
uniqueness checks; it never touches the family evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import MIN_STEP, _coerce_eta
from .errors import DimMismatch, SolveFailed, SpaceMismatch, StepUnderflow
from .l0 import L0Scalar
from .rn import L0Operator, RnVector, l0_norm, op_apply
from .semigroup import CSemigroup, _generated, c_resolvent_direct


def _check_times(times) -> tuple[float, ...]:
    ts = tuple(float(t) for t in times)
    if len(ts) < 2:
        raise ValueError("the time grid needs at least two points")
    if ts[0] != 0.0:
        raise ValueError("the time grid must start at 0")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("the time grid must increase strictly")
    return ts


@dataclass(frozen=True)
class AcpProblem:
    """One initial value problem; exactly one admission mode is set."""

    W: CSemigroup
    times: tuple[float, ...]
    v0: RnVector | None = None
    seed_eta: L0Scalar | None = None
    seed_y0: RnVector | None = None

    def __post_init__(self) -> None:
        if self.W.kind != "matrix_generated":
            raise ValueError(
                "defect residuals need the generator; "
                "only matrix-generated families are supported"
            )
        direct = self.v0 is not None
        seeded = self.seed_eta is not None and self.seed_y0 is not None
        if direct == seeded:
            raise ValueError("set exactly one of v0 or (seed_eta, seed_y0)")
        for v in (self.v0, self.seed_y0):
            if v is None:
                continue
            if v.space != self.W.space:
                raise SpaceMismatch("start vector lives on a different space")
            if v.dim != self.W.dim:
                raise DimMismatch(
                    f"start vector has dim {v.dim}, expected {self.W.dim}"
                )


def direct_value_problem(W: CSemigroup, v0: RnVector, times) -> AcpProblem:
    return AcpProblem(W=W, times=_check_times(times), v0=v0)


def resolvent_seeded_problem(W: CSemigroup, eta, y0: RnVector, times) -> AcpProblem:
    eta = _coerce_eta(W.space, eta)
    return AcpProblem(W=W, times=_check_times(times), seed_eta=eta, seed_y0=y0)


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[RnVector, ...]
    residuals: tuple[L0Scalar, ...]
    one_sided: tuple[bool, ...]
    graph_norms: tuple[L0Scalar, ...]

    def to_csv_rows(self):
        """Rows (t, atom, component, u, residual, graph_norm), sorted."""
        rows = []
        for i, t in enumerate(self.times):
            u = self.states[i].values
            r = self.residuals[i].values
            g = self.graph_norms[i].values
            for a in range(u.shape[0]):
                for j in range(u.shape[1]):
                    rows.append((t, a, j, float(u[a, j]), float(r[a]), float(g[a])))
        return rows

    def max_interior_residual(self) -> float:
        vals = [
            float(r.values.max())
            for r, flag in zip(self.residuals, self.one_sided)
            if not flag
        ]
        return max(vals) if vals else 0.0


def _trajectory_from_states(
    A: L0Operator, times: tuple[float, ...], states: list[RnVector]
) -> Trajectory:
    n = len(times)
    au = [op_apply(A, u) for u in states]
    residuals = []
    flags = []
    for i in range(n):
        if 0 < i < n - 1:
            dt = times[i + 1] - times[i - 1]
            diff = (states[i + 1].values - states[i - 1].values) / dt
            flags.append(False)
        elif i == 0:
            dt = times[1] - times[0]
            diff = (states[1].values - states[0].values) / dt
            flags.append(True)
        else:
            dt = times[-1] - times[-2]
            diff = (states[-1].values - states[-2].values) / dt
            flags.append(True)
        gap = diff - au[i].values
        residuals.append(L0Scalar.of(A.space, np.sqrt((gap**2).sum(axis=1))))
    graph = [
        L0Scalar.of(A.space, l0_norm(u).values + l0_norm(v).values)
        for u, v in zip(states, au)
    ]
    return Trajectory(
        times=times,
        states=tuple(states),
        residuals=tuple(residuals),
        one_sided=tuple(flags),
        graph_norms=tuple(graph),
    )


def initial_vector(p: AcpProblem) -> RnVector:
    """The v0 with C v0 = u(0) for either admission mode."""
    if p.v0 is not None:
        return p.v0
    A = p.W.generator
    u0 = c_resolvent_direct(A, p.W.C, p.seed_eta, p.seed_y0)
    try:
        v = np.linalg.solve(p.W.C.matrices, u0.values[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolveFailed(f"C-solve failed: {exc}") from None
    if not np.isfinite(v).all():
        raise SolveFailed("C-solve produced non-finite values")
    return RnVector.of(p.W.space, v)


def solve_acp(p: AcpProblem) -> Trajectory:
    """Evaluate u(t) = W(t) v0 on the grid with residuals and graph norms."""
    v0 = initial_vector(p)
    mats = _generated(p.W.generator, p.W.C, p.times)
    states = [
        RnVector.of(p.W.space, u)
        for u in np.einsum("taij,aj->tai", mats, v0.values)
    ]
    return _trajectory_from_states(p.W.generator, p.times, states)


def rk4_oracle(
    A: L0Operator, v0: RnVector, C: L0Operator, times, step: float
) -> Trajectory:
    """Independent fixed-step integrator for v' = A v, reported as u = C v.

    Each grid interval is covered by equal substeps no larger than ``step``.
    The integrator shares nothing with the family evaluation path, which is
    what makes agreement between the two meaningful.
    """
    ts = _check_times(times)
    if step < MIN_STEP:
        raise StepUnderflow(f"step {step!r} is below the supported resolution {MIN_STEP}")
    if A.space != v0.space or A.space != C.space:
        raise SpaceMismatch("A, C and v0 must share one probability space")
    if A.dim != v0.dim or A.dim != C.dim:
        raise DimMismatch("A, C and v0 must share one dimension")
    mats = A.matrices
    v = v0.values.copy()
    states = [op_apply(C, RnVector.of(A.space, v))]
    for a, b in zip(ts, ts[1:]):
        span = b - a
        n_sub = max(1, int(math.ceil(span / step - 1e-12)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = np.einsum("aij,aj->ai", mats, v)
            k2 = np.einsum("aij,aj->ai", mats, v + 0.5 * h * k1)
            k3 = np.einsum("aij,aj->ai", mats, v + 0.5 * h * k2)
            k4 = np.einsum("aij,aj->ai", mats, v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(op_apply(C, RnVector.of(A.space, v)))
    return _trajectory_from_states(A, ts, states)
