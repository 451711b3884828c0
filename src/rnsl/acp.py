"""Abstract Cauchy problems u' = A u driven by a validated family.

The solution through an admissible start is read off the family itself:
u(t) = W(t) v0 with C v0 = u(0).  A resolvent-seeded problem starts at
v0 = (eta - A)^{-1} y0, so u(0) = (eta - A)^{-1} C y0 since C commutes with
A, and C is never inverted.  Trajectories carry per-atom defect residuals
(central differences against A u on the grid interior, one-sided and flagged
at the endpoints) and graph norms ||u|| + ||A u||.

A classic fixed-step integrator doubles as an independent oracle for
uniqueness checks; it never touches the family evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .calculus import MIN_STEP
from .errors import DimMismatch, SpaceMismatch, StepUnderflow
from .rn import L0Operator, RnVector, _check_finite, block_norms
from .semigroup import CSemigroup, resolvent_solve


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
    """One initial value problem: the family, its time grid and the start v0."""

    W: CSemigroup
    times: tuple[float, ...]
    v0: RnVector

    def __post_init__(self) -> None:
        if self.v0.space != self.W.space:
            raise SpaceMismatch("start vector lives on a different space")
        if self.v0.dim != self.W.dim:
            raise DimMismatch(f"start vector has dim {self.v0.dim}, expected {self.W.dim}")


def direct_value_problem(W: CSemigroup, v0: RnVector, times) -> AcpProblem:
    return AcpProblem(W=W, times=_check_times(times), v0=v0)


def resolvent_seeded_problem(W: CSemigroup, eta, y0: RnVector, times) -> AcpProblem:
    """The problem started at v0 = (eta - A)^{-1} y0, so u(0) = (eta - A)^{-1} C y0.

    An eta where eta - A is numerically singular raises EtaInSpectrum here.
    """
    seed = AcpProblem(W=W, times=_check_times(times), v0=y0)  # checks y0's space and dim
    return replace(seed, v0=RnVector.of(W.space, resolvent_solve(W.generator, eta, y0.values)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A solution on a time grid as read-only arrays.

    ``states`` is (T, n_atoms, d); ``residuals`` and ``graph_norms`` are
    (T, n_atoms); ``one_sided`` is (T,) and flags the two endpoint rows.
    The last three are formed on first read, against ``generator``, and
    kept.
    """

    times: tuple[float, ...]
    states: np.ndarray
    generator: L0Operator

    @cached_property
    def _applied(self) -> np.ndarray:
        """A u at every time, shape (T, n_atoms, d)."""
        return np.einsum("aij,taj->tai", self.generator.matrices, self.states)

    @cached_property
    def residuals(self) -> np.ndarray:
        """Per-atom norm of the difference quotient minus A u.

        Row i differences rows i - 1 and i + 1 clipped to the grid, so the
        two endpoint rows fall back to one-sided differences.
        """
        rows = np.arange(len(self.times))
        lo, hi = np.clip(rows - 1, 0, len(rows) - 2), np.clip(rows + 1, 1, len(rows) - 1)
        t, u = np.asarray(self.times), self.states
        return _read_only(block_norms((u[hi] - u[lo]) / (t[hi] - t[lo])[:, None, None] - self._applied))

    @cached_property
    def one_sided(self) -> np.ndarray:
        rows = np.arange(len(self.times))
        return _read_only((rows == 0) | (rows == len(rows) - 1))

    @cached_property
    def graph_norms(self) -> np.ndarray:
        """Per-atom ||u|| + ||A u||."""
        return _read_only(block_norms(self.states) + block_norms(self._applied))

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _trajectory(A: L0Operator, times: tuple[float, ...], u: np.ndarray) -> Trajectory:
    """The trajectory of the (T, n_atoms, d) states ``u``, which must be finite."""
    _check_finite(u, "vector coordinates")
    return Trajectory(times, _read_only(u), A)


def solve_acp(p: AcpProblem) -> Trajectory:
    """Evaluate u(t) = W(t) v0 on the grid with residuals and graph norms."""
    return _trajectory(p.W.generator, p.times, np.einsum("taij,aj->tai", p.W.at(p.times), p.v0.values))


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
