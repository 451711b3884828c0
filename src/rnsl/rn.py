"""Free module of dimension d over the scalar algebra, and its operators.

Vectors hold one coordinate block per atom; operators hold one d x d matrix
per atom and act blockwise.  The module norm is the per-atom Euclidean norm,
an instance of the scalar class, and the operator norm is the per-atom
spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFiniteValue, SpaceMismatch
from .l0 import L0Scalar, ProbabilitySpace, distance as scalar_distance

INJECTIVITY_THRESHOLD = 1e-12

# Truncated Taylor exponential: its degree and the 1-norm bound theta_18 on
# the scaled matrix that keeps the backward error within double precision
# (Higham, Functions of Matrices, Table A.3; Al-Mohy and Higham, 2011)
_TAYLOR_DEGREE = 18
_THETA18 = 1.09
_DEGREES = np.arange(_TAYLOR_DEGREE + 1)
_INV_FACTORIALS = 1.0 / np.cumprod([1.0, *range(1, _TAYLOR_DEGREE + 1)])


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{what} must be finite")


@dataclass(frozen=True, eq=False)
class RnVector:
    """Element of the free module: a length-d coordinate row per atom."""

    space: ProbabilitySpace
    values: np.ndarray  # shape (n_atoms, d)

    @classmethod
    def of(cls, space: ProbabilitySpace, values) -> "RnVector":
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != space.n_atoms:
            raise SpaceMismatch(
                f"expected shape ({space.n_atoms}, d), got {arr.shape}"
            )
        _check_finite(arr, "vector coordinates")
        arr.setflags(write=False)
        return cls(space, arr)

    @classmethod
    def from_components(cls, components) -> "RnVector":
        comps = list(components)
        if not comps:
            raise DimMismatch("a vector needs at least one component")
        space = comps[0].space
        for c in comps[1:]:
            if c.space != space:
                raise SpaceMismatch("components live on different probability spaces")
        return cls.of(space, np.stack([c.values for c in comps], axis=1))

    @classmethod
    def constant(cls, space: ProbabilitySpace, coords) -> "RnVector":
        row = np.asarray(coords, dtype=float).reshape(1, -1)
        return cls.of(space, np.repeat(row, space.n_atoms, axis=0))

    @classmethod
    def zeros(cls, space: ProbabilitySpace, dim: int) -> "RnVector":
        return cls.of(space, np.zeros((space.n_atoms, dim)))

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    @property
    def components(self) -> tuple[L0Scalar, ...]:
        return tuple(
            L0Scalar.of(self.space, self.values[:, j]) for j in range(self.dim)
        )

    def _check_mate(self, other: "RnVector") -> None:
        if self.space != other.space:
            raise SpaceMismatch("vectors live on different probability spaces")
        if self.dim != other.dim:
            raise DimMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "RnVector") -> "RnVector":
        self._check_mate(other)
        return RnVector.of(self.space, self.values + other.values)

    def __sub__(self, other: "RnVector") -> "RnVector":
        self._check_mate(other)
        return RnVector.of(self.space, self.values - other.values)

    def __neg__(self) -> "RnVector":
        return RnVector.of(self.space, -self.values)

    def scale(self, c: float) -> "RnVector":
        return RnVector.of(self.space, float(c) * self.values)

    def module_mul(self, zeta: L0Scalar) -> "RnVector":
        """Scalar-module action: multiply each atom block by the atom value."""
        if zeta.space != self.space:
            raise SpaceMismatch("scalar and vector live on different spaces")
        return RnVector.of(self.space, zeta.values[:, None] * self.values)

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, space: ProbabilitySpace, doc: dict) -> "RnVector":
        comps = [L0Scalar.from_json(space, c) for c in doc["components"]]
        return cls.from_components(comps)

    def __repr__(self) -> str:
        return f"RnVector(dim={self.dim}, atoms={self.space.n_atoms})"


@dataclass(frozen=True, eq=False)
class L0Operator:
    """Module operator: one d x d matrix per atom, acting blockwise."""

    space: ProbabilitySpace
    matrices: np.ndarray  # shape (n_atoms, d, d)

    @classmethod
    def of(cls, space: ProbabilitySpace, matrices) -> "L0Operator":
        arr = np.array(matrices, dtype=float)
        if (
            arr.ndim != 3
            or arr.shape[0] != space.n_atoms
            or arr.shape[1] != arr.shape[2]
        ):
            raise SpaceMismatch(
                f"expected shape ({space.n_atoms}, d, d), got {arr.shape}"
            )
        _check_finite(arr, "operator entries")
        arr.setflags(write=False)
        return cls(space, arr)

    @classmethod
    def from_matrix(cls, space: ProbabilitySpace, matrix) -> "L0Operator":
        """Broadcast one d x d matrix to every atom."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
        return cls.of(space, np.repeat(m[None, :, :], space.n_atoms, axis=0))

    @classmethod
    def from_diag(cls, space: ProbabilitySpace, diag) -> "L0Operator":
        """Diagonal operator; ``diag`` is (d,) shared or (n_atoms, d)."""
        d = np.asarray(diag, dtype=float)
        if d.ndim == 1:
            d = np.repeat(d[None, :], space.n_atoms, axis=0)
        if d.ndim != 2 or d.shape[0] != space.n_atoms:
            raise SpaceMismatch(f"expected shape ({space.n_atoms}, d), got {d.shape}")
        mats = np.zeros((space.n_atoms, d.shape[1], d.shape[1]))
        i = np.arange(d.shape[1])
        mats[:, i, i] = d
        return cls.of(space, mats)

    @classmethod
    def identity(cls, space: ProbabilitySpace, dim: int) -> "L0Operator":
        return cls.from_matrix(space, np.eye(dim))

    @classmethod
    def zeros(cls, space: ProbabilitySpace, dim: int) -> "L0Operator":
        return cls.of(space, np.zeros((space.n_atoms, dim, dim)))

    @classmethod
    def scaled_identity(cls, space: ProbabilitySpace, dim: int, eta: L0Scalar) -> "L0Operator":
        if eta.space != space:
            raise SpaceMismatch("scalar lives on a different space")
        return cls.of(space, eta.values[:, None, None] * np.eye(dim)[None, :, :])

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])

    def _check_mate(self, other: "L0Operator") -> None:
        if self.space != other.space:
            raise SpaceMismatch("operators live on different probability spaces")
        if self.dim != other.dim:
            raise DimMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "L0Operator") -> "L0Operator":
        self._check_mate(other)
        return L0Operator.of(self.space, self.matrices + other.matrices)

    def __sub__(self, other: "L0Operator") -> "L0Operator":
        self._check_mate(other)
        return L0Operator.of(self.space, self.matrices - other.matrices)

    def __matmul__(self, other: "L0Operator") -> "L0Operator":
        self._check_mate(other)
        return L0Operator.of(self.space, self.matrices @ other.matrices)

    def scale(self, c: float) -> "L0Operator":
        return L0Operator.of(self.space, float(c) * self.matrices)

    def to_json(self) -> dict:
        return {"matrices": self.matrices.tolist()}

    @classmethod
    def from_json(cls, space: ProbabilitySpace, doc: dict) -> "L0Operator":
        if "matrices" in doc:
            return cls.of(space, doc["matrices"])
        return cls.from_matrix(space, doc["matrix"])

    def __repr__(self) -> str:
        return f"L0Operator(dim={self.dim}, atoms={self.space.n_atoms})"


@dataclass(frozen=True)
class ExponentialBound:
    """Growth certificate: per-atom envelope M * exp(xi * t) with M >= 0."""

    M: L0Scalar
    xi: L0Scalar

    def __post_init__(self) -> None:
        if self.M.space != self.xi.space:
            raise SpaceMismatch("M and xi live on different probability spaces")
        if (self.M.values < 0.0).any():
            raise NonFiniteValue("certificate constant M must be nonnegative")

    @property
    def space(self) -> ProbabilitySpace:
        return self.M.space

    def envelope(self, t) -> np.ndarray:
        """M exp(xi t) per atom; an array of times gives shape (len(t), n_atoms)."""
        return self.M.values * np.exp(np.multiply.outer(np.asarray(t, float), self.xi.values))

    @classmethod
    def constant(cls, space: ProbabilitySpace, M: float, xi: float) -> "ExponentialBound":
        return cls(L0Scalar.constant(space, M), L0Scalar.constant(space, xi))


WORST_ATOM_RTOL = 1e-12


def worst_atom(values) -> int:
    """Lowest atom within WORST_ATOM_RTOL (1 + |max|) of the maximum: rounding never breaks ties."""
    values = np.asarray(values, dtype=float)
    top = values.max()
    if not np.isfinite(top):
        return int(np.argmax(values))
    return int(np.argmax(values >= top - WORST_ATOM_RTOL * (1.0 + abs(top))))


def block_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean length over the last (coordinate) axis of a value array."""
    return np.sqrt(np.einsum("...d,...d->...", values, values))


def l0_norm(x: RnVector) -> L0Scalar:
    """Per-atom Euclidean length of the coordinate block."""
    return L0Scalar.of(x.space, block_norms(x.values))


def vector_distance(x: RnVector, y: RnVector, topology: str) -> float:
    """Metric between vectors: scalar metric applied to the norm of x - y."""
    gap = l0_norm(x - y)
    return scalar_distance(gap, L0Scalar.zero(x.space), topology)


def op_apply(T: L0Operator, x: RnVector) -> RnVector:
    if T.space != x.space:
        raise SpaceMismatch("operator and vector live on different spaces")
    if T.dim != x.dim:
        raise DimMismatch(f"dimensions differ: {T.dim} vs {x.dim}")
    return RnVector.of(x.space, np.einsum("aij,aj->ai", T.matrices, x.values))


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each d x d block of ``mats``, shape (..., d, d).

    One batched eigvalsh of the Gram matrices B^T B of the blocks scaled to
    B = block / max|entry|, so entries from 1e-200 to 1e200 stay in range.
    The top eigenvalue of B^T B keeps the relative accuracy of the top
    singular value; a zero block, or d = 0, has norm 0.
    """
    scale = np.abs(mats).max(axis=(-2, -1), initial=0.0)
    b = np.divide(
        mats, scale[..., None, None], out=np.zeros_like(mats), where=scale[..., None, None] > 0.0
    )
    top = np.linalg.eigvalsh(np.swapaxes(b, -2, -1) @ b).max(axis=-1, initial=0.0)
    return scale * np.sqrt(top)


def op_norm(T: L0Operator) -> L0Scalar:
    """Per-atom spectral norm: the largest singular value of each block."""
    return L0Scalar.of(T.space, spectral_norms(T.matrices))


@dataclass(frozen=True)
class InjectivityReport:
    """Per-atom smallest/largest singular value ratio and the verdict."""

    injective: bool
    min_sv_ratio: np.ndarray
    witness_atom: int | None


def check_injective(T: L0Operator, threshold: float = INJECTIVITY_THRESHOLD) -> InjectivityReport:
    """Injectivity gate: every atom block needs min_sv/max_sv > threshold.

    The singular values come from the SVD, not the Gram matrix, whose
    squared condition number would blur ratios near the threshold.  On
    d = 0 every block is the injective map of the zero space, ratio 1.
    """
    if T.dim == 0:
        ratio = np.ones(T.space.n_atoms)
    else:
        svals = np.linalg.svd(T.matrices, compute_uv=False)
        largest = svals[:, 0]
        smallest = svals[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(largest > 0.0, smallest / largest, 0.0)
    bad = np.nonzero(ratio <= threshold)[0]
    witness = int(bad[0]) if bad.size else None
    return InjectivityReport(
        injective=witness is None,
        min_sv_ratio=ratio,
        witness_atom=witness,
    )


def _squarings(x: np.ndarray) -> np.ndarray:
    """Least integer s >= 0 with x / 2**s <= theta_18, exactly, for x >= 0."""
    mant, expo = np.frexp(x)  # x = mant * 2**expo with 0.5 <= mant < 1
    return np.maximum(expo - (mant <= 0.5 * _THETA18), 0)


def _expm_times(mats: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t M) for every time t of ``ts`` and matrix M of the stack ``mats``.

    Degree-18 Taylor scaling and squaring, with no solve: shape (len(ts), N, d, d).
    The powers of M / ||M||_1 depend on M alone, so they are formed once per
    call.  Each (time, matrix) takes the least s with |t| ||M||_1 / 2**s <= theta_18,
    sums its Taylor terms as one 1 x 19 row of weights times its matrix's
    19 x d**2 powers, and is squared s times; each squaring round touches
    only the matrices with squarings left.  Every (time, matrix) is the same
    small product, so each result is bitwise independent of how times and
    matrices are batched.  One GEMM per matrix over the time axis would be
    faster still, but its result for one time then depends on the other
    times of the call, so it is not used.
    """
    n, d = mats.shape[:2]
    nu = np.abs(mats).sum(axis=1).max(axis=1, initial=0.0)
    powers = np.zeros((n, _TAYLOR_DEGREE + 1, d, d))
    by_power = powers.transpose(1, 0, 2, 3)  # a view; products are cheaper along it
    by_power[0] = np.eye(d)
    np.divide(mats, nu[:, None, None], out=by_power[1], where=nu[:, None, None] > 0.0)
    m = 1
    while m < _TAYLOR_DEGREE:  # powers m+1 .. 2m from 1 .. m times power m
        top = min(2 * m, _TAYLOR_DEGREE)
        np.matmul(by_power[1 : top - m + 1], by_power[m], out=by_power[m + 1 : top + 1])
        m = top
    tnu = ts[:, None] * nu
    s = _squarings(np.abs(tnu))
    beta = np.ldexp(tnu, -s)
    coef = beta[..., None] ** _DEGREES * _INV_FACTORIALS
    rows = coef[:, :, None, :]  # (T, N, 1, 19) against (N, 19, d*d)
    f = np.matmul(rows, powers.reshape(n, _TAYLOR_DEGREE + 1, d * d)).reshape(len(ts) * n, d, d)
    s = s.reshape(-1)
    for r in range(s.max(initial=0)):
        act = s > r
        g = f[act]
        f[act] = g @ g
    return f.reshape(len(ts), n, d, d)


def matrix_exp_times(A: L0Operator, ts) -> np.ndarray:
    """Blockwise exp(t * A) at every time of ``ts``: shape (len(ts), n_atoms, d, d)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    _check_finite(ts, "time")
    # an overflow is reported by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = _expm_times(A.matrices, ts)
    _check_finite(out, "operator entries")
    return out


def matrix_exp(A: L0Operator, t: float) -> L0Operator:
    """Blockwise matrix exponential exp(t * A)."""
    out = matrix_exp_times(A, [float(t)])[0]  # finite, and of the right shape
    out.setflags(write=False)
    return L0Operator(A.space, out)
