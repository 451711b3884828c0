"""Free module of dimension d over the scalar algebra, and its operators.

Vectors hold one coordinate block per atom; operators hold one d x d matrix
per atom and act blockwise.  The module norm is the per-atom Euclidean norm,
an instance of the scalar class, and the operator norm is the per-atom
spectral norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, DimMismatch, EtaNotInGxi, NonFiniteValue, SpaceMismatch
from .l0 import L0Scalar, ProbabilitySpace, distance as scalar_distance

INJECTIVITY_THRESHOLD = 1e-12
GROWTH_SLACK = 1.0 + 1e-9  # relative rounding an envelope check forgives

# Truncated Taylor exponential: its degree and the 1-norm bound theta_18 on
# the scaled matrix that keeps the backward error within double precision
# (Higham, Functions of Matrices, Table A.3; Al-Mohy and Higham, 2011)
_TAYLOR_DEGREE = 18
_THETA18 = 1.09
_DEGREES = np.arange(_TAYLOR_DEGREE + 1)
_INV_FACTORIALS = 1.0 / np.cumprod([1.0, *range(1, _TAYLOR_DEGREE + 1)])
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # 2^-1022, the least normal double


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
        arr = np.array(values, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[0] != space.n_atoms:
            raise SpaceMismatch(
                f"expected shape ({space.n_atoms}, d), got {arr.shape}"
            )
        _check_finite(arr, "vector coordinates")
        arr.setflags(write=False)
        return cls(space, arr)

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
        """M exp(xi t) per atom; an array of times gives shape (len(t), n_atoms).

        Past the double range it is +inf, and wherever M = 0 it is 0, with no
        numpy warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # 0 inf is NaN, set to 0 below
            env = self.M.values * np.exp(np.multiply.outer(np.asarray(t, float), self.xi.values))
        env[..., self.M.values == 0.0] = 0.0
        return env

    def margin(self, eta) -> np.ndarray:
        """gamma = eta - xi per atom, for a damping eta in the transform domain eta > xi.

        ``eta`` is a number or a scalar on this space (``L0Scalar.coerce``).
        EtaNotInGxi names the first atom where gamma <= 0.
        """
        eta = L0Scalar.coerce(self.space, eta)
        gamma = eta.values - self.xi.values
        bad = np.flatnonzero(gamma <= 0.0)
        if bad.size:
            a = int(bad[0])
            raise EtaNotInGxi(
                f"eta={float(eta.values[a])!r} does not dominate xi={float(self.xi.values[a])!r} "
                f"on atom {a}",
                atom=a,
            )
        return gamma

    @classmethod
    def constant(cls, space: ProbabilitySpace, M: float, xi: float) -> "ExponentialBound":
        return cls(L0Scalar.constant(space, M), L0Scalar.constant(space, xi))


def _slackened(envelope: np.ndarray) -> np.ndarray:
    """GROWTH_SLACK times an envelope: +inf past the double range, as the envelope, with no numpy warning."""
    with np.errstate(over="ignore"):
        return GROWTH_SLACK * envelope


def _check_envelope(what: str, var: str, ts, norms, envelope, dim: int, scales, atoms) -> None:
    """BoundViolated at the first time, then the first atom, where sampled norms escape their envelope.

    Row i of ``norms`` and ``envelope`` is time ``ts[i]`` and column j is
    atom ``atoms[j]``.  The norms are of d x d blocks exp(tA) C of a family
    (``what`` "family", ``scales`` each atom's ||C||_2 from LAPACK's SVD)
    or of a curve's values in R^d (``what`` "curve", ``scales`` its M).  A
    norm escapes when it exceeds GROWTH_SLACK times its envelope, plus the
    atom's underflow allowance ceil(8 d^2 max(1, c+ / 6)) 2^-1074 where
    that product is below 2^-1022, with c+ = scales (1 + 2 (d + 1)^2 eps),
    which is >= ||C||_2 as in ``exp_norm_bounds``, and >= M.  The message
    names the norm, the envelope and the time as ``var``.

    The underflow allowance.  GROWTH_SLACK covers relative rounding, but a
    subnormal value keeps fewer digits.  With gradual underflow a product
    rounds to xy (1 + delta) + eta with |eta| <= U = 2^-1075, and a sum adds
    no eta, so a computed d x d product adds at most d U per entry and d^2 U
    in 2-norm.
    * In the kernel only the last squarings, those whose products fall
      below 2^-1022, add such a term.  Their inputs are near the square
      root of a subnormal norm, 2^-511 or less unless A is far from normal,
      so a squaring does not amplify what the one before added, and once
      the entries are subnormal a further squaring's products round to 0:
      underflow moves the computed exp(tA) by at most 2 d^2 U in all.
    * The product by C carries that as 2 d^2 U ||C||_2 and adds d^2 U.
    * ``spectral_norms``' product by the scale, and the envelope's
      M exp(xi t) and its product by GROWTH_SLACK, round within U each.
    The sum, d^2 U (2 ||C||_2 + 1) + 3 U, is at most
    16 d^2 U max(1, ||C||_2 / 6): at ||C||_2 <= 6 it is at most 16 d^2 U,
    and past 6 the factor 16 / 6 > 2 gains (2/3) ||C||_2 d^2 U >= 4 d^2 U,
    which covers the rest.  Rounding 8 d^2 max(1, c+ / 6) up to a whole
    number keeps the allowance above the sum, and at c+ <= 6 it is
    8 d^2 2^-1074, bitwise.  In the normal range GROWTH_SLACK - 1 = 1e-9
    times 2^-1022 exceeds the allowance for d^2 max(1, ||C||_2 / 6) up to
    about 5.6e5, so there the threshold is GROWTH_SLACK times the envelope,
    bitwise.

    A curve, with M in the part of ||C||_2.  Each coordinate of the curves
    rnsl builds reaches the subnormal range through at most d roundings, a
    product or a scalar profile's exponential, each adding at most U; the
    factors applied after one, as x in x exp(xi s), or cos(w s) X +
    sin(w s) Y in exp(a s)(cos(w s) X + sin(w s) Y), have 2-norm at most M
    over the coordinates.  So underflow moves the computed value by at most
    d U (M + d^(1/2)) in 2-norm.  ``block_norms``' product by the scale
    rounds within U, the envelope's exp(xi s) within U, which M carries,
    and its products by M and by GROWTH_SLACK within U each.  The sum,
    d U (M + d^(1/2)) + M U + 3 U, is at most d^2 U (2 M + 1) + 3 U at
    d >= 1, which is the family's sum with M for ||C||_2; the same
    allowance, with c+ >= M, covers it.
    """
    threshold = _slackened(envelope)
    low = threshold < _TINY
    if low.any():
        c_plus = scales[atoms] * (1.0 + 2.0 * (dim + 1) ** 2 * _EPS)
        allowance = np.ldexp(np.ceil(8.0 * dim * dim * np.maximum(1.0, c_plus / 6.0)), -1074)
        threshold = np.where(low, threshold + allowance, threshold)
    escaped = norms > threshold
    if escaped.any():
        i, j = (int(v) for v in np.argwhere(escaped)[0])
        a = int(atoms[j])
        raise BoundViolated(
            f"{what} norm {float(norms[i, j])!r} escapes its envelope "
            f"{float(envelope[i, j])!r} at {var}={float(ts[i])!r} on atom {a}",
            atom=a,
            t=float(ts[i]),
        )


WORST_ATOM_RTOL = 1e-12


def worst_atom(values) -> int:
    """Lowest atom within WORST_ATOM_RTOL (1 + |max|) of the maximum: rounding never breaks ties."""
    values = np.asarray(values, dtype=float)
    top = values.max()
    if not np.isfinite(top):
        return int(np.argmax(values))
    return int(np.argmax(values >= top - WORST_ATOM_RTOL * (1.0 + abs(top))))


def block_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean length over the last (coordinate) axis of a value array, exact across the double range.

    A row whose sum of squares is below 2^-1022 or overflows is first divided
    by its largest |entry|, as ``spectral_norms`` scales its blocks.
    """
    squares = np.einsum("...d,...d->...", values, values)  # einsum raises no overflow warning
    norms = np.sqrt(squares)
    if not (squares.min(initial=np.inf) >= _TINY and squares.max(initial=0.0) < np.inf):
        off = (squares < _TINY) | (squares == np.inf)
        scale, b = _scaled(values[off][:, None, :])
        norms[off] = scale * np.sqrt(np.einsum("aij,aij->a", b, b))
    return norms


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


def _scaled(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block's largest |entry|, and the block B divided by it (a zero block stays 0)."""
    scale = np.abs(mats).max(axis=(-2, -1), initial=0.0)
    b = np.divide(
        mats, scale[..., None, None], out=np.zeros_like(mats), where=scale[..., None, None] > 0.0
    )
    return scale, b


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each d x d block of ``mats``, shape (..., d, d).

    One batched eigvalsh of the Gram matrices B^T B of the blocks scaled to
    B = block / max|entry|, so entries from 1e-200 to 1e200 stay in range.
    The top eigenvalue of B^T B keeps the relative accuracy of the top
    singular value; a zero block, or d = 0, has norm 0.  Each block's norm
    is independent of the other blocks of the call.

    Accuracy from above, which the growth gate's margin uses.  Let
    u = eps / 2, gamma_n = n u / (1 - n u) and sigma = ||B||_2.  B is
    within u |B| of block / max|entry|, whose 2-norm it moves by at most
    d^(1/2) u sigma.  A computed product X Y of d x d matrices errs by at
    most gamma_d |X||Y| entrywise, whose 2-norm is at most g ||X||_2 ||Y||_2
    with g = d gamma_d, so the Gram matrix is within g sigma^2 of B^T B.
    LAPACK's eigenvalues are exact for a symmetric matrix within p u times
    its norm of the one given (backward stability; p <= d^2 is assumed).
    After the square root and the product by the scale, the norm is at most
    ||block||_2 (1 + d^(1/2) u) (1 + g)^(1/2) (1 + p u)^(1/2) (1 + u)^2,
    below ||block||_2 (1 + (1.01 d^2 + d^(1/2) + 2) u).
    """
    scale, b = _scaled(mats)
    # B^T as a contiguous copy: numpy's batched product from a transposed view is slower
    top = np.linalg.eigvalsh(np.ascontiguousarray(np.swapaxes(b, -2, -1)) @ b).max(axis=-1, initial=0.0)
    return scale * np.sqrt(top)


def op_norm(T: L0Operator) -> L0Scalar:
    """Per-atom spectral norm: the largest singular value of each block."""
    return L0Scalar.of(T.space, spectral_norms(T.matrices))


@dataclass(frozen=True, eq=False)
class InjectivityReport:
    """Per-atom smallest/largest singular value ratio, largest singular value, and the verdict."""

    injective: bool
    min_sv_ratio: np.ndarray
    max_sv: np.ndarray  # LAPACK's ||block||_2; 0 at d = 0
    witness_atom: int | None


def check_injective(T: L0Operator) -> InjectivityReport:
    """Injectivity gate: every atom block needs min_sv/max_sv >= INJECTIVITY_THRESHOLD.

    The singular values come from the SVD, not the Gram matrix, whose
    squared condition number would blur ratios near the threshold.  On
    d = 0 every block is the injective map of the zero space, ratio 1.
    """
    if T.dim == 0:
        ratio, largest = np.ones(T.space.n_atoms), np.zeros(T.space.n_atoms)
    else:
        svals = np.linalg.svd(T.matrices, compute_uv=False)
        largest = svals[:, 0]
        smallest = svals[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(largest > 0.0, smallest / largest, 0.0)
    bad = np.nonzero(ratio < INJECTIVITY_THRESHOLD)[0]
    witness = int(bad[0]) if bad.size else None
    return InjectivityReport(
        injective=witness is None,
        min_sv_ratio=ratio,
        max_sv=largest,
        witness_atom=witness,
    )


def _squarings(x: np.ndarray) -> np.ndarray:
    """Least integer s >= 0 with x / 2**s <= theta_18, exactly, for x >= 0."""
    mant, expo = np.frexp(x)  # x = mant * 2**expo with 0.5 <= mant < 1
    return np.maximum(expo - (mant <= 0.5 * _THETA18), 0)


def _one_norms(mats: np.ndarray) -> np.ndarray:
    """Each d x d block's 1-norm, its largest absolute column sum: shape (N,) from (N, d, d), 0 at d = 0."""
    return np.abs(mats).sum(axis=-2).max(axis=-1, initial=0.0)


def _taylor_powers(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's 1-norm nu, and the powers 0 .. 18 of M / nu: shape (N,) and (N, 19, d, d).

    They depend on M alone, so a caller that exponentiates the same stack
    at many batches of times forms them once (``_expm_powers``).  A zero
    matrix has nu = 0 and powers I, 0, 0, ...
    """
    n, d = mats.shape[:2]
    nu = _one_norms(mats)
    powers = np.zeros((n, _TAYLOR_DEGREE + 1, d, d))
    by_power = powers.transpose(1, 0, 2, 3)  # a view; products are cheaper along it
    by_power[0] = np.eye(d)
    np.divide(mats, nu[:, None, None], out=by_power[1], where=nu[:, None, None] > 0.0)
    m = 1
    while m < _TAYLOR_DEGREE:  # powers m+1 .. 2m from 1 .. m times power m
        top = min(2 * m, _TAYLOR_DEGREE)
        np.matmul(by_power[1 : top - m + 1], by_power[m], out=by_power[m + 1 : top + 1])
        m = top
    return nu, powers


def _expm_powers(nu: np.ndarray, powers: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t M) for every time t of ``ts`` and matrix M of a stack, from ``_taylor_powers(stack)``."""
    n, d = powers.shape[0], powers.shape[-1]
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


def _expm_times(mats: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t M) for every time t of ``ts`` and matrix M of the stack ``mats``.

    Degree-18 Taylor scaling and squaring, with no solve: shape (len(ts), N, d, d).
    The powers of M / ||M||_1 depend on M alone, so they are formed once per
    call (``_taylor_powers``), and a caller with many calls on one stack
    can form them once for all (``_expm_powers``), with the same bits.
    Each (time, matrix) takes the least s with |t| ||M||_1 / 2**s <= theta_18,
    sums its Taylor terms as one 1 x 19 row of weights times its matrix's
    19 x d**2 powers, and is squared s times; each squaring round touches
    only the matrices with squarings left.  Every (time, matrix) is the same
    small product, so each result is bitwise independent of how times and
    matrices are batched.  One GEMM per matrix over the time axis would be
    faster still, but its result for one time then depends on the other
    times of the call, so it is not used.
    """
    return _expm_powers(*_taylor_powers(mats), ts)


def log_norm_bounds(mats: np.ndarray) -> np.ndarray:
    """Upper bound on each block's logarithmic 2-norm mu_2(block), shape (..., d, d).

    mu_2(M) = lambda_max((M + M^T) / 2), and ||exp(tM)||_2 <= exp(t mu_2(M))
    for t >= 0 (Lumer and Phillips, 1961; Söderlind, BIT 46, 2006).  One
    batched eigvalsh of H = (B + B^T) / 2 with B = block / max|entry|.

    Rounding allowance, with u = eps / 2 and p u the backward error of
    eigvalsh (p <= d^2, as in ``spectral_norms``).  B is within u |B|
    of exact, so the computed H is within (2 + u) u of the exact one
    entrywise and (2 + u) d u in 2-norm.  Its entries are at most 1, so
    ||H||_2 <= d, and the top eigenvalue is exact for a matrix within p d u
    of it.  Adding the allowance and multiplying by the scale lose at most
    2 u (d + 1) more.  The total, below (p + 4) d u + 3 u, is covered by
    the allowance (d + 1)^3 eps = 2 (d + 1)^3 u.  A zero block, or d = 0,
    has bound 0.
    """
    d = mats.shape[-1]
    if d == 0:
        return np.zeros(mats.shape[:-2])
    scale, b = _scaled(mats)
    top = np.linalg.eigvalsh(0.5 * (b + np.swapaxes(b, -2, -1)))[..., -1]
    return scale * (top + (d + 1) ** 3 * _EPS)


def exp_norm_bounds(a: np.ndarray, c_norms: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Upper bound on ``spectral_norms(_expm_times(a, ts) @ C)`` from no exponential.

    ``a`` is an (n, d, d) stack, ``c_norms`` the (n,) largest singular
    values of the C blocks from LAPACK's SVD (``check_injective``'s
    ``max_sv``), and ``ts`` holds times t >= 0; the result is (len(ts), n),
    +inf on the blocks where no bound is given.  For a block pair (A, C),
    ||exp(tA) C||_2 <= ||C||_2 exp(t mu_2(A)), and the bound is
    c+ exp(t mu+) (1 + margin) with
    * c+ = c_norms (1 + 2 (d + 1)^2 eps) >= ||C||_2: the SVD is backward
      stable, its singular values exact for a matrix within p u ||C||_2 of C
      (u = eps / 2, p <= (d + 1)^2, which leaves room for its scaling of
      tiny and huge blocks), so the largest is at least
      ||C||_2 (1 - (d + 1)^2 u); the factor 1 + 4 (d + 1)^2 u, rounded
      within 2 u with its product, more than makes up for that;
    * mu+ = ``log_norm_bounds``(A) >= mu_2(A).

    The margin.  The bound above is on the exact norm, while the growth
    gate judges the computed exponentials, which the kernel's rounding can
    push above it; 1 + margin = exp(2x) covers that for every t in [0, T],
    T = max(ts).  Let nu, s(t) and beta be the kernel's 1-norm, squarings
    and scaled time, so 2^s <= max(1, 2 T nu (1 + u) / theta_18) and
    t / 2^s <= theta_18 (1 + u) / nu, and let g = d gamma_d <= 1.01 d^2 u (a
    computed d x d product errs by at most g ||X||_2 ||Y||_2).
    * beta (A / nu) 2^s is t A + E with ||E||_2 <= e = 2.02 d^(1/2) u T nu,
      from the rounding of t nu and A / nu, so the kernel exponentiates
      matrices with mu_2 <= t mu+ + e =: 2^s m.
    * The degree-18 Taylor sum at ||beta A / nu||_1 <= theta_18 (1 + (d + 2) u)
      truncates below 0.41 u, and its powers, coefficients (pow within
      4 ulp) and 19-term row product round within
      e^theta_18 (theta_18 gamma_d + 29 u), both in 1-norm.  Against
      exp(m), which bounds the exact exponential's 2-norm, that is
      d0 = d^(1/2) (4 d + 90) u exp(-m) with
      exp(-m) <= exp(1.1 max(0, -mu+) / nu).
    * After k squarings the error against exp(2^k m) is d_k with
      1 + d_(k+1) <= (1 + d_k)^2 (1 + g), so 1 + d_s <= exp(2^s (d0 + g)).
    * The product by C adds g, and ``spectral_norms`` at most
      (1.01 d^2 + d^(1/2) + 2) u over the exact norm (its docstring).
    So x = e + 2^s (d0 + g) + g + (1.01 d^2 + d^(1/2) + 2) u + (2 T |mu+| + 20) u,
    whose last term covers this function's own exp and products; the
    factor 2 in exp(2x) covers the second-order terms and the rounding of x.
    A block's bound is given only where x <= 1/8, c+ lies within
    exp(+-127) and exp(T mu+) within exp(+-128): there no intermediate of
    the kernel overflows, and underflow, at most 2^-1075 a product, stays
    far below u against them.
    """
    d = a.shape[-1]
    u = 0.5 * _EPS
    root_d = math.sqrt(d)
    horizon = float(ts.max(initial=0.0))
    c_plus = c_norms * (1.0 + 2.0 * (d + 1) ** 2 * _EPS)
    mu = log_norm_bounds(a)
    nu = _one_norms(a)  # as _expm_times takes it
    g = 1.01 * d * d * u
    with np.errstate(all="ignore"):  # out-of-range values fail the range test below
        doublings = np.maximum(1.0, (2.0 * horizon / _THETA18) * nu)
        lag = np.exp(np.divide(np.maximum(-1.1 * mu, 0.0), nu, out=np.zeros_like(nu), where=nu > 0.0))
        x = (
            (2.02 * root_d * u * horizon) * nu
            + doublings * ((root_d * (4 * d + 90) * u) * lag + g)
            + (2.0 * horizon * u) * np.abs(mu)
            + (g + (1.01 * d * d + root_d + 22.0) * u)
        )
        given = (x <= 0.125) & (np.abs(horizon * mu) <= 128.0) & (np.abs(np.log(c_plus)) <= 127.0)
        bound = c_plus * np.exp(np.multiply.outer(ts, mu) + 2.0 * x)
    return np.where(given, bound, np.inf)


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
