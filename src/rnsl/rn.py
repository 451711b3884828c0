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

# Pade order 13 coefficients and the matching scaling threshold for the 1-norm
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


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


def op_norm(T: L0Operator) -> L0Scalar:
    """Per-atom spectral norm: the largest singular value of each block."""
    return L0Scalar.of(T.space, np.linalg.norm(T.matrices, ord=2, axis=(1, 2)))


@dataclass(frozen=True)
class InjectivityReport:
    """Per-atom smallest/largest singular value ratio and the verdict."""

    injective: bool
    min_sv_ratio: np.ndarray
    witness_atom: int | None


def check_injective(T: L0Operator, threshold: float = INJECTIVITY_THRESHOLD) -> InjectivityReport:
    """Injectivity gate: every atom block needs min_sv/max_sv > threshold."""
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


def _expm_stack(mats: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Pade(13) exponential of a stack of matrices (N, d, d).

    Every matrix gets its own scaling exponent s, and each squaring round
    touches only the matrices with squarings left: squaring a finished one
    again would change it and could overflow.
    """
    norm1 = np.abs(mats).sum(axis=1).max(axis=1, initial=0.0)
    s = np.zeros(len(mats), dtype=int)
    big = norm1 > _PADE13_THETA
    s[big] = np.ceil(np.log2(norm1[big] / _PADE13_THETA))
    b = mats / (2.0**s)[:, None, None]
    ident = np.eye(mats.shape[-1])
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    c = _PADE13
    u = b @ (
        b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2)
        + c[7] * b6
        + c[5] * b4
        + c[3] * b2
        + c[1] * ident
    )
    v = (
        b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2)
        + c[6] * b6
        + c[4] * b4
        + c[2] * b2
        + c[0] * ident
    )
    f = np.linalg.solve(v - u, v + u)
    for r in range(int(s.max(initial=0))):
        act = s > r
        f[act] = f[act] @ f[act]
    return f


def matrix_exp_times(A: L0Operator, ts) -> np.ndarray:
    """Blockwise exp(t * A) at every time of ``ts``: shape (len(ts), n_atoms, d, d)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    _check_finite(ts, "time")
    n, d = A.space.n_atoms, A.dim
    mats = ts[:, None, None, None] * A.matrices
    # an overflow is reported by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = _expm_stack(mats.reshape(len(ts) * n, d, d)).reshape(mats.shape)
    _check_finite(out, "operator entries")
    return out


def matrix_exp(A: L0Operator, t: float) -> L0Operator:
    """Blockwise matrix exponential exp(t * A)."""
    return L0Operator.of(A.space, matrix_exp_times(A, [float(t)])[0])
