"""Deterministic random instances and fixed test families for the suites.

Everything here is seeded: the same (seed, label) pair always produces the
same instances, which is what makes scenario reports reproducible byte for
byte.  Commuting operator pairs are built from a shared per-atom eigenbasis,
so their growth certificates are exact by construction, not sampled.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .calculus import CurveSampler
from .l0 import L0Scalar, ProbabilitySpace, stacked_space
from .laplace import LaplaceSpec, TransformDerivativeProvider
from .rn import ExponentialBound, L0Operator, RnVector, block_norms


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent, platform-stable stream for a given seed and label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), key]))


def random_scalar(
    rng: np.random.Generator, space: ProbabilitySpace, lo: float, hi: float
) -> L0Scalar:
    return L0Scalar.of(space, rng.uniform(lo, hi, space.n_atoms))


def random_vector(
    rng: np.random.Generator, space: ProbabilitySpace, dim: int, lo: float, hi: float
) -> RnVector:
    return RnVector.of(space, rng.uniform(lo, hi, (space.n_atoms, dim)))


def random_commuting_pair(
    rng: np.random.Generator,
    space: ProbabilitySpace,
    dim: int,
    spec_lo: float = -2.0,
    spec_hi: float = 0.5,
):
    """Commuting (A, C) with a tight certificate.

    Per atom both operators are diagonal in one random orthogonal basis,
    with A's eigenvalues drawn from [spec_lo, spec_hi] and C's from
    [0.5, 2], so exp(tA) C has norm max_i c_i exp(t a_i) <= (max c) exp(t max a); the
    returned certificate uses exactly those constants.  The atoms draw their
    Gaussian matrices and spectra in turn, in a per-atom loop's order; the
    bases then come from one QR of the whole stack.
    """
    n = space.n_atoms
    g = np.empty((n, dim, dim))
    a_eigs = np.empty((n, dim))
    c_eigs = np.empty((n, dim))
    for atom in range(n):
        g[atom] = rng.standard_normal((dim, dim))
        a_eigs[atom] = rng.uniform(spec_lo, spec_hi, dim)
        c_eigs[atom] = rng.uniform(0.5, 2.0, dim)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    qt = np.swapaxes(q, 1, 2)
    A = L0Operator.of(space, (q * a_eigs[:, None, :]) @ qt)
    C = L0Operator.of(space, (q * c_eigs[:, None, :]) @ qt)
    big = np.abs(c_eigs).max(axis=1)
    xi = a_eigs.max(axis=1)
    bound = ExponentialBound(L0Scalar.of(space, big), L0Scalar.of(space, xi))
    return A, C, bound


def smooth_curve_family(
    rng: np.random.Generator,
    space: ProbabilitySpace,
    dim: int,
    n: int = 10,
):
    """Curves with closed-form antiderivatives for fundamental-theorem checks.

    Each entry is (antiderivative G, derivative G') as curve samplers on
    [0, 2], built from sine, exponential, and cubic parts with random
    coefficient vectors.
    """
    members = []
    for _ in range(n):
        w = float(rng.uniform(0.5, 3.0))
        al = float(rng.uniform(-1.0, 0.8))
        x = rng.uniform(-1.0, 1.0, (space.n_atoms, dim))
        y = rng.uniform(-1.0, 1.0, (space.n_atoms, dim))
        z = rng.uniform(-1.0, 1.0, (space.n_atoms, dim))

        def big_g(u: np.ndarray, w=w, al=al, x=x, y=y, z=z) -> np.ndarray:
            u = u[:, None, None]
            return np.sin(w * u) * x + np.exp(al * u) * y + u**3 * z

        def small_g(u: np.ndarray, w=w, al=al, x=x, y=y, z=z) -> np.ndarray:
            u = u[:, None, None]
            return w * np.cos(w * u) * x + al * np.exp(al * u) * y + 3.0 * u**2 * z

        members.append(
            (
                CurveSampler.from_batch(space, dim, 0.0, 2.0, big_g),
                CurveSampler.from_batch(space, dim, 0.0, 2.0, small_g),
            )
        )
    return members


def _oscillating_draws(rng: np.random.Generator, space: ProbabilitySpace, dim: int, n: int):
    """Each member's (a, w, X, Y), drawn member by member, stacked on a leading axis."""
    a = np.empty((n, space.n_atoms))
    w = np.empty(n)
    x = np.empty((n, space.n_atoms, dim))
    y = np.empty((n, space.n_atoms, dim))
    for i in range(n):
        a[i] = rng.uniform(-1.0, 0.5, space.n_atoms)
        w[i] = rng.uniform(0.5, 4.0)
        x[i] = rng.uniform(-1.0, 1.0, (space.n_atoms, dim))
        y[i] = rng.uniform(-1.0, 1.0, (space.n_atoms, dim))
    return a, w, x, y


def _oscillating_spec(space: ProbabilitySpace, a, w, x, y) -> LaplaceSpec:
    """exp(a s)(cos(w s) X + sin(w s) Y) for m members on m copies of ``space``.

    ``a`` is (m, n), ``w`` is (m,) and X, Y are (m, n, d); member i fills
    rows i*n ... (i+1)*n - 1.  Each sample takes cos and sin once per
    member and exp once per row.
    """
    m, n, dim = x.shape
    stack = stacked_space(space, m)
    big_m = block_norms(x) + block_norms(y)

    def h(s: np.ndarray) -> np.ndarray:
        ws = np.multiply.outer(s, w)[:, :, None, None]
        wave = np.cos(ws) * x
        wave += np.sin(ws) * y
        growth = np.outer(s, a)
        wave *= np.exp(growth, out=growth).reshape(len(s), m, n, 1)
        return wave.reshape(len(s), m * n, dim)

    curve = CurveSampler.from_batch(
        stack, dim, 0.0, math.inf, h,
        bound=ExponentialBound(L0Scalar.of(stack, big_m.ravel()), L0Scalar.of(stack, a.ravel())),
    )
    return LaplaceSpec(curve)


def oscillating_decay_specs(
    rng: np.random.Generator, space: ProbabilitySpace, dim: int, n: int = 20
):
    """Transformable curves exp(a s)(cos(w s) X + sin(w s) Y) per atom.

    The certificate M = ||X|| + ||Y||, xi = a holds by the triangle
    inequality, so construction-time validation always accepts these.
    """
    a, w, x, y = _oscillating_draws(rng, space, dim, n)
    return [
        _oscillating_spec(space, a[i:i + 1], w[i:i + 1], x[i:i + 1], y[i:i + 1])
        for i in range(n)
    ]


def oscillating_decay_stack(
    rng: np.random.Generator, space: ProbabilitySpace, dim: int, n: int = 20
) -> LaplaceSpec:
    """The n curves of oscillating_decay_specs, drawn alike, as one curve.

    It lives on ``stacked_space(space, n)``: member i fills rows
    i*n_atoms ... (i+1)*n_atoms - 1, and one sample evaluates every member.
    """
    return _oscillating_spec(space, *_oscillating_draws(rng, space, dim, n))


def constant_transform_provider(x: RnVector) -> TransformDerivativeProvider:
    """Closed-form transform derivatives of the constant curve h = x.

    H(eta) = x/eta, so the k-th derivative is (-1)^k k! x / eta^(k+1); in
    scaled form the log factor cancels the inversion coefficient exactly,
    which is what makes constants reproducible at any order.
    """

    def scaled(eta: L0Scalar, k: int):
        sign = -1.0 if k % 2 else 1.0
        log_scale = math.lgamma(k + 1.0) - (k + 1.0) * np.log(eta.values)
        return x.scale(sign), log_scale

    return TransformDerivativeProvider(x.space, x.dim, scaled)


def inversion_test_family(space: ProbabilitySpace, dim: int):
    """Fixed bounded curves for inversion checks, as (name, spec) pairs.

    Contains a constant, two exponential decays, and a sine-modulated decay;
    all are bounded, so their certificates use xi <= 0.  Each is a scalar
    profile times one unit vector; ``spec.curve`` evaluates it exactly.
    """
    coords = np.full(dim, 1.0 / math.sqrt(dim))
    x = RnVector.constant(space, coords)

    def member(name: str, profile, m: float, xi: float):
        def batch(s: np.ndarray) -> np.ndarray:
            return profile(s)[:, None, None] * x.values

        spec = LaplaceSpec(
            CurveSampler.from_batch(
                space, dim, 0.0, math.inf, batch,
                bound=ExponentialBound.constant(space, m, xi),
            )
        )
        return name, spec

    return [
        member("constant", np.ones_like, 1.0, 0.0),
        member("decay_1", lambda s: np.exp(-s), 1.0, -1.0),
        member("decay_half", lambda s: np.exp(-0.5 * s), 1.0, -0.5),
        member("modulated", lambda s: np.exp(-s) * (1.0 + 0.5 * np.sin(s)), 1.5, -1.0),
    ]
