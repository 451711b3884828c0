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
from .errors import DimMismatch, SpaceMismatch, StepUnderflow
from .l0 import L0Scalar
from .rn import L0Operator, RnVector, _check_finite, block_norms
from .semigroup import CSemigroup, _solve_c, c_resolvent_direct


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
    """A solution on a time grid as read-only arrays.

    ``states`` is (T, n_atoms, d); ``residuals`` and ``graph_norms`` are
    (T, n_atoms); ``one_sided`` is (T,) and flags the two endpoint rows.
    """

    times: tuple[float, ...]
    states: np.ndarray
    residuals: np.ndarray
    one_sided: np.ndarray
    graph_norms: np.ndarray

    def to_csv_rows(self):
        """Rows (t, atom, component, u, residual, graph_norm), sorted."""
        per_time = zip(
            self.times, self.states.tolist(), self.residuals.tolist(), self.graph_norms.tolist()
        )
        return [
            (t, a, j, u, r, g)
            for t, us, rs, gs in per_time
            for a, (ua, r, g) in enumerate(zip(us, rs, gs))
            for j, u in enumerate(ua)
        ]

    def max_interior_residual(self) -> float:
        interior = self.residuals[~self.one_sided]
        return float(interior.max()) if interior.size else 0.0


def _trajectory(A: L0Operator, times: tuple[float, ...], u: np.ndarray) -> Trajectory:
    """Residuals and graph norms of the (T, n_atoms, d) states ``u``.

    Row i differences rows i - 1 and i + 1 clipped to the grid, so the two
    endpoint rows fall back to one-sided differences.
    """
    _check_finite(u, "vector coordinates")
    rows = np.arange(len(times))
    lo, hi = np.clip(rows - 1, 0, len(times) - 2), np.clip(rows + 1, 1, len(times) - 1)
    t = np.asarray(times)
    au = np.einsum("aij,taj->tai", A.matrices, u)
    gap = (u[hi] - u[lo]) / (t[hi] - t[lo])[:, None, None] - au
    arrays = (
        u,
        np.sqrt((gap**2).sum(axis=2)),
        (rows == 0) | (rows == len(times) - 1),
        block_norms(u) + block_norms(au),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return Trajectory(times, *arrays)


def initial_vector(p: AcpProblem) -> RnVector:
    """The v0 with C v0 = u(0) for either admission mode."""
    if p.v0 is not None:
        return p.v0
    u0 = c_resolvent_direct(p.W.generator, p.W.C, p.seed_eta, p.seed_y0)
    return _solve_c(p.W.C, u0.values)


def solve_acp(p: AcpProblem) -> Trajectory:
    """Evaluate u(t) = W(t) v0 on the grid with residuals and graph norms."""
    v0 = initial_vector(p)
    return _trajectory(p.W.generator, p.times, np.einsum("taij,aj->tai", p.W.at(p.times), v0.values))


def rk4_oracle(
    A: L0Operator, v0: RnVector, C: L0Operator, times, step: float
) -> Trajectory:
    """Independent fixed-step integrator for v' = A v, reported as u = C v.

    Each grid interval is covered by n equal substeps h no larger than
    ``step``.  One classical RK4 step is exactly v <- P(hA) v with
    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so an interval applies P(hA)^n,
    formed once per distinct (h, n) of the call: on a uniform grid the
    intervals share a few rounded steps.
    It shares no code with the family evaluation path (``matrix_exp_times``),
    which is what makes agreement between the two meaningful.
    """
    ts = _check_times(times)
    if step < MIN_STEP:
        raise StepUnderflow(f"step {step!r} is below the supported resolution {MIN_STEP}")
    if A.space != v0.space or A.space != C.space:
        raise SpaceMismatch("A, C and v0 must share one probability space")
    if A.dim != v0.dim or A.dim != C.dim:
        raise DimMismatch("A, C and v0 must share one dimension")
    eye = np.eye(A.dim)
    v = [v0.values]
    propagators = {}  # (h, n) -> P(hA)^n
    with np.errstate(over="ignore", invalid="ignore"):  # _trajectory rejects non-finite states
        for a, b in zip(ts, ts[1:]):
            n_sub = max(1, int(math.ceil((b - a) / step - 1e-12)))
            key = ((b - a) / n_sub, n_sub)
            if key not in propagators:
                hA = key[0] * A.matrices
                P = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
                propagators[key] = np.linalg.matrix_power(P, n_sub)
            v.append(np.einsum("aij,aj->ai", propagators[key], v[-1]))
        u = np.einsum("aij,taj->tai", C.matrices, np.stack(v))
    return _trajectory(A, ts, u)
