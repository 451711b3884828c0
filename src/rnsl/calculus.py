"""Integration and differentiation of module-valued curves.

Proper integrals use adaptive Gauss(7)/Kronrod(15) panels with a per-atom
error estimate.  Improper integrals over [0, inf) require an exponential
growth certificate on the curve; the tail is truncated where the certificate
and a closed-form tangent-line bound prove it smaller than half the
tolerance, and the remaining finite integral gets the other half.

A weighted variant integrates s^k * exp(-eta*s) * g(s) with the magnitude
tracked in log space, which is what keeps high-order transform derivatives
representable long after the raw integrand has left the double range.  The
weight is measured from the certificate's rate: its scale is the peak of
s^k exp(-gamma s), gamma = eta - xi > 0, so every damping eta > xi has one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CertificateMissing,
    MaxPanelsExceeded,
    NonFiniteValue,
    SpaceMismatch,
    StepUnderflow,
    TailNotCertified,
)
from .l0 import L0Scalar, ProbabilitySpace
from .rn import ExponentialBound, RnVector

MAX_PANELS = 1_000_000
MIN_STEP = 1e-12
# splits of one row that leave its value in place (to 1e-5) and its error
# estimate above 0.99 of the parent's, after which roundoff, not the panel
# width, holds the estimate up: QUADPACK's QAGS test (Piessens et al., 1983)
_ROUNDOFF_SPLITS = 20

# 15-point Kronrod abscissae on [-1, 1] (symmetric; nonnegative half listed)
# with the embedded 7-point Gauss rule on the odd-indexed nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

# full node/weight tables over all 15 points, in ascending order
_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_KRONROD_W = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(reversed(_WGK[:-1])))
_GAUSS_W = np.zeros(15)
for _i, _w in enumerate(_WG[:-1]):
    _GAUSS_W[2 * _i + 1] = _w
    _GAUSS_W[13 - 2 * _i] = _w
_GAUSS_W[7] = _WG[-1]
_WEIGHTS = np.stack([_KRONROD_W, _GAUSS_W])  # (2, 15): Kronrod row, Gauss row


@dataclass(frozen=True)
class CurveSampler:
    """Curve t -> vector on a fixed space/dimension over [start, end].

    ``end`` may be infinite, in which case improper integration needs the
    optional growth certificate ``bound``.  ``batch`` maps a 1-D array of
    times to values of shape (len(ts), n_atoms, dim) in one call, and
    quadrature samples through it; quadrature reads a batch that returns a
    transposed view of (times, dim, n_atoms) memory without a copy.  A
    curve given without one gets, at construction, a batch that stacks its
    scalar calls.
    """

    space: ProbabilitySpace
    dim: int
    start: float
    end: float
    evaluator: Callable[[float], RnVector]
    bound: ExponentialBound | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.start) or math.isnan(self.end) or math.isinf(self.start):
            raise NonFiniteValue("curve domain start must be finite")
        if self.end < self.start:
            raise NonFiniteValue("curve domain end precedes its start")
        if self.bound is not None and self.bound.space != self.space:
            raise SpaceMismatch("certificate lives on a different probability space")
        if self.batch is None:  # stacked scalar calls, so that ``sample`` has one path
            object.__setattr__(
                self, "batch", lambda ts: np.stack([self(float(t)).values for t in ts])
            )

    @classmethod
    def from_batch(
        cls,
        space: ProbabilitySpace,
        dim: int,
        start: float,
        end: float,
        batch: Callable[[np.ndarray], np.ndarray],
        bound: ExponentialBound | None = None,
    ) -> "CurveSampler":
        """Curve given by one batched formula; the scalar evaluator is derived from it."""

        def evaluator(t: float) -> RnVector:
            return RnVector.of(space, batch(np.array([float(t)]))[0])

        return cls(space, dim, start, end, evaluator, bound, batch)

    def __call__(self, t: float) -> RnVector:
        v = self.evaluator(t)
        if not isinstance(v, RnVector):
            raise TypeError("curve evaluator must return an RnVector")
        if v.space != self.space or v.dim != self.dim:
            raise SpaceMismatch(
                f"curve evaluator changed space/dim at t={t!r}"
            )
        return v

    def sample(self, ts) -> np.ndarray:
        """Values at the times ``ts`` as one (len(ts), n_atoms, dim) array.

        The ``batch`` result gets the checks a scalar call makes (shape, then
        finiteness), once for the whole batch.
        """
        ts = np.asarray(ts, dtype=float)
        vals = np.asarray(self.batch(ts), dtype=float)
        want = (len(ts), self.space.n_atoms, self.dim)
        if vals.shape != want:
            raise SpaceMismatch(f"curve batch returned shape {vals.shape}, expected {want}")
        if not np.isfinite(vals).all():
            raise NonFiniteValue("curve values must be finite")
        return vals


@dataclass(frozen=True)
class QuadratureResult:
    value: RnVector
    est_error: float
    panels: int


@dataclass(frozen=True)
class WeightedIntegralResult:
    """Scaled integral: true value per atom is exp(log_scale) * scaled_value."""

    scaled_value: RnVector
    log_scale: np.ndarray
    est_error: np.ndarray
    panels: int


# values (nodes x dim x rows doubles) one ``values_at`` call of _panels may
# return; larger rounds are sampled a whole number of panels at a time
_CHUNK_BYTES = 256 * 1024


def _panel_chunk(values_at: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """Evaluate the Kronrod panels [a_i, b_i] with one ``values_at`` call, node by node.

    The times go node-major, so the (nodes * panels, dim, rows) values are
    one (15, panels * dim * rows) matrix that both rules weigh in one product.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = values_at((mid + half * _NODES[:, None]).reshape(-1))
    k15, g7 = (_WEIGHTS @ vals.reshape(len(_NODES), -1)).reshape((2, len(a)) + vals.shape[1:])
    half = half[:, None, None]
    return half * k15, np.abs(half * (k15 - g7))


def _panels(
    values_at: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    shape: tuple[int, int],
):
    """Evaluate the Kronrod panels [a_i, b_i] of values of shape ``shape``.

    The panels are sampled in as few ``values_at`` calls as keep each call's
    values under _CHUNK_BYTES, with one panel a call at least.  Returns
    (k15, |k15 - g7|) arrays of shape (len(a),) + shape.
    """
    step = max(1, _CHUNK_BYTES // (len(_NODES) * 8 * math.prod(shape)))
    k15 = np.empty((len(a),) + shape)
    err = np.empty_like(k15)
    for i in range(0, len(a), step):
        k15[i:i + step], err[i:i + step] = _panel_chunk(values_at, a[i:i + step], b[i:i + step])
    return k15, err


def _adaptive(
    values_at: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, int],
    breaks: list[float],
    tol_per_atom: np.ndarray,
):
    """Adaptive bisection until every row's summed error estimate passes.

    ``values_at`` maps times to values of shape (len(times),) + ``shape``,
    and ``shape`` is (dim, rows): the rows lie along the last axis, so each
    elementwise step runs over all of them at once.  ``tol_per_atom`` holds
    one tolerance per row, shaped (rows,) or (rows // n_atoms, n_atoms), and
    row r is atom r % n_atoms.  The initial panels between ``breaks`` are
    sampled together, and each split samples its two halves together, both
    in chunks as _panels bounds them.  A row whose splits fail to gain, by
    the roundoff test on the entry that chose each split, _ROUNDOFF_SPLITS
    times raises MaxPanelsExceeded naming its atom.
    """
    edges = np.asarray(breaks, dtype=float)
    k15s, errs = _panels(values_at, edges[:-1], edges[1:], shape)
    # entries: [a, b, k15 (d, rows), err (d, rows)]
    panels = [[a, b, k, e] for a, b, k, e in zip(breaks[:-1], breaks[1:], k15s, errs)]
    rows = shape[1]
    tol_rows = tol_per_atom.reshape(1, rows)

    def key(err: np.ndarray, i: int) -> tuple[float, int, int]:
        """Heap entry of panel i: its largest error over its row's tolerance, negated, and that entry."""
        ratio = err / tol_rows
        worst = int(ratio.argmax())
        return -float(ratio.flat[worst]), i, worst

    heap = [key(e, i) for i, e in enumerate(errs)]
    heapq.heapify(heap)
    total_err = np.zeros(shape)
    for e in errs:
        total_err += e

    def accepted() -> bool:
        return bool((total_err <= tol_rows).all())

    stalls = np.zeros(rows, dtype=int)

    while not accepted():
        if len(panels) + 1 > MAX_PANELS:
            raise MaxPanelsExceeded(
                f"needed more than {MAX_PANELS} panels; "
                "integrand looks non-smooth or the tolerance is out of reach"
            )
        if not heap:
            raise StepUnderflow(
                "error estimate still above tolerance with every remaining "
                f"panel at the resolution {MIN_STEP}"
            )
        _, idx, worst = heapq.heappop(heap)
        a, b, k15, err = panels[idx]
        if b - a <= MIN_STEP * max(1.0, abs(a)):
            # cannot split further; once this panel alone exceeds an atom's
            # tolerance, splitting the others cannot help either
            if (err > tol_rows).any():
                raise StepUnderflow(
                    f"panel [{a!r}, {b!r}] at the resolution {MIN_STEP} "
                    "alone exceeds the tolerance"
                )
            continue
        mid = 0.5 * (a + b)
        (left_k, right_k), (left_e, right_e) = _panels(
            values_at, np.array([a, mid]), np.array([mid, b]), shape
        )
        total_err += left_e + right_e - err
        halves = left_k.flat[worst] + right_k.flat[worst]
        if (abs(k15.flat[worst] - halves) <= 1e-5 * abs(halves)
                and left_e.flat[worst] + right_e.flat[worst] >= 0.99 * err.flat[worst]):
            row = worst % rows
            stalls[row] += 1
            if stalls[row] == _ROUNDOFF_SPLITS:
                atom = row % tol_per_atom.shape[-1]
                raise MaxPanelsExceeded(
                    f"error estimate on atom {atom} stopped falling over {_ROUNDOFF_SPLITS} "
                    f"splits: roundoff holds it above its quadrature tolerance {float(tol_rows[0, row])!r}",
                    atom=atom,
                )
        panels[idx] = [a, mid, left_k, left_e]
        heapq.heappush(heap, key(left_e, idx))
        heapq.heappush(heap, key(right_e, len(panels)))
        panels.append([mid, b, right_k, right_e])

    # summed in panel order, as np.sum over a stack of the panels adds them,
    # without holding that stack
    value, err = panels[0][2].copy(), panels[0][3].copy()
    for p in panels[1:]:
        value += p[2]
        err += p[3]
    return value, err, len(panels)


def riemann_integral(
    g: CurveSampler,
    a: float,
    b: float,
    tol: float,
) -> QuadratureResult:
    """Integrate the curve over [a, b] to a per-atom error estimate <= tol; d = 0 gives the empty vector."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFiniteValue("integration limits must be finite")
    if b < a:
        raise NonFiniteValue("integration limits out of order")
    if b == a or not g.dim:
        return QuadratureResult(RnVector.of(g.space, np.zeros((g.space.n_atoms, g.dim))), 0.0, 0)

    tol_arr = np.full(g.space.n_atoms, float(tol))
    value, err, n = _adaptive(
        lambda s: g.sample(s).transpose(0, 2, 1), (g.dim, g.space.n_atoms), [a, b], tol_arr
    )
    return QuadratureResult(RnVector.of(g.space, value.T), float(err.max()), n)


def derivative(g: CurveSampler, t: float, h0: float) -> RnVector:
    """Fourth-order derivative: Richardson combination of central differences."""
    if h0 < MIN_STEP:
        raise StepUnderflow(f"step {h0!r} is below the supported resolution {MIN_STEP}")
    h = 0.5 * h0
    up0, down0, up, down = g.sample([t + h0, t - h0, t + h, t - h])
    d1 = (up0 - down0) / (2.0 * h0)
    d2 = (up - down) / (2.0 * h)
    return RnVector.of(g.space, (4.0 * d2 - d1) / 3.0)


def _weight_log_scale(k: int, gamma: np.ndarray) -> np.ndarray:
    """Per-atom log of the peak of s^k exp(-gamma s), gamma = eta - xi > 0: k*log(k/gamma) - k, 0 for k = 0."""
    return k * np.log(k / gamma) - k if k else np.zeros_like(gamma)


# relative margin on a Newton horizon, far above the error of its root (a few
# ulps of the bound's terms, under 1e-13 of x up to k = 1024)
_HORIZON_MARGIN = 1e-12
_EPS = float(np.finfo(float).eps)
_LOG_EPS = math.log(_EPS)
# log of the normal double range, with a margin at the top for the rounding
# of an exponent
_LOG_TINY = math.log(float(np.finfo(float).tiny))
_LOG_DOUBLE_MAX = 709.0


def _log_certified_integral(M: np.ndarray, gamma: np.ndarray, k: int) -> np.ndarray:
    """Per-atom log of int_0^inf s^k M e^(-gamma s) ds = log(M k! / gamma^(k+1))."""
    with np.errstate(divide="ignore"):
        return np.log(M) + math.lgamma(k + 1.0) - (k + 1.0) * np.log(gamma)


def _log_tail(k: int, x: np.ndarray) -> np.ndarray:
    """Log of a bound on int_T^inf s^k e^(-gamma s) ds over the whole integral, x = gamma T > k.

    k log s is concave, so past T the exponent stays under its tangent at T,
    and the tail is at most T^k e^(-gamma T) / (gamma - k/T), equal at k = 0.
    Over the whole integral k! / gamma^(k+1) that is x^k e^-x / (k! (1 - k/x)).
    """
    return k * np.log(x) - x - np.log1p(-k / x) - math.lgamma(k + 1.0)


def _tail_root(k: int, log_target: np.ndarray) -> np.ndarray:
    """Per atom, the x > k where _log_tail(k, x) meets the target (capped at 0), from the right.

    With c = target + log k!, the start solves y^2 / (2(k + y)) = D for
    y = x - k, with D = max(k log k - k - c, 1) plus log1p(k/y) once; since
    k log(1+t) - kt <= -kt^2 / (2(1+t)), the bound there is under target.
    Newton steps follow, each atom until its own step is below 1e-9 x or
    after 16, so no root depends on the other atoms; no step moves x more
    than 15/16 of the way to k.  At k = 0 the bound is -x: a target of 0
    takes no step to its root 0, another lands on it at the first or second
    step.  A target of -inf gives no root.
    """
    log_target = np.minimum(log_target, 0.0)
    c = log_target + math.lgamma(k + 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.maximum((k * math.log(k) - k if k else 0.0) - c, 1.0)
        d = d + np.log1p(k / (d + np.sqrt(d * d + 2.0 * k * d)))
        x = k + (d + np.sqrt(d * d + 2.0 * k * d))
        if k == 0:
            x[log_target == 0.0] = 0.0
        active = np.flatnonzero(x > k)
        for _ in range(16):
            now = x[active]
            slope = k / now - 1.0 - k / (now * (now - k))
            step = (_log_tail(k, now) - log_target[active]) / slope
            x[active] = np.maximum(now - step, k + (now - k) / 16.0)
            active = active[~(np.abs(step) <= 1e-9 * now)]
            if not active.size:
                break
    return x


def _tail_time(gamma: np.ndarray, k: int, log_target: np.ndarray) -> tuple[float, np.ndarray]:
    """Each atom's own horizon, where _log_tail(k, gamma T) meets log_target, and the largest, T.

    Returns T and the own horizons, the atoms' roots over gamma with a
    relative margin.  T is floored at half the largest weight mean
    (k+1)/gamma and at 1e-3, so every gamma T exceeds its atom's root and
    so k.  Each atom's tail is reported from its own horizon, so T needs no
    check of its own.
    """
    own = _tail_root(k, log_target) / gamma * (1.0 + _HORIZON_MARGIN)
    longest = float(np.max(own))
    if not math.isfinite(longest):
        raise TailNotCertified("no finite horizon certifies the tail under its target")
    return max(longest, float(np.max((k + 1.0) / gamma)) * 0.5, 1e-3), own


def _sample_reach(bound: ExponentialBound) -> np.ndarray:
    """Per atom, the time s* from which a raw sample h(s) cannot carry the damped integrand.

    From s* on the envelope M e^(xi s) has left the normal double range, so
    a sample keeps fewer digits than the integrand needs, or overflows; or
    the factor e^(-xi s) in the weight e^(-eta s) = e^(-gamma s) e^(-xi s)
    overflows.  inf where neither happens, 0 where M itself is not normal.
    """
    xi = bound.xi.values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_m = np.log(bound.M.values)
        # the envelope leaves the range at (end - log M) / xi, and e^(-xi s) at -max / xi
        ends = np.where(xi < 0.0, np.maximum(_LOG_TINY - log_m, -_LOG_DOUBLE_MAX), _LOG_DOUBLE_MAX - log_m)
        reach = np.where(xi == 0.0, np.inf, ends / xi)
    reach[(log_m < _LOG_TINY) | (log_m > _LOG_DOUBLE_MAX)] = 0.0
    return reach


@dataclass(frozen=True)
class _Weight:
    """One weight s^k exp(-eta s) of a shared integration, checked and scaled."""

    k: int
    eta: np.ndarray
    gamma: np.ndarray
    tol: np.ndarray
    log_scale: np.ndarray
    horizon: float
    tail: np.ndarray  # each atom's certified tail in scaled form
    own: np.ndarray
    reach: np.ndarray

    def seeds(self, rho: float | None) -> np.ndarray:
        """Initial panel edges, ascending, that lead adaptivity to the weight's peaks.

        At k >= 1 the edges sit around each atom's integrand peak, at
        (k + c sqrt(k)) / gamma for c in {-6, -2, 0, 2, 6}; at k = 0 they are
        1 / gamma_min and 5 / gamma_min.  Each is snapped to the nearest
        point of the lattice rho^j, which moves it by a factor sqrt(rho) at
        most: about one weight width sqrt(k) / gamma at the weight's own ratio
        1 + 2 / sqrt(k), less on a finer lattice.  Each atom's own horizon is
        snapped up onto the lattice too, so no panel holds an atom's tail
        between two far edges, where no node sees it, when other atoms'
        weights reach much further.  The spread of the peaks, not the number
        of atoms, bounds the seed count.  A k = 0 weight keeps its two edges
        unsnapped when ``rho`` is None, and snaps the horizons up to powers
        of 2.
        """
        own = self.own[self.own > 0.0]  # a tolerance above the whole integral puts a horizon at 0
        if self.k == 0:
            points = np.array([1.0, 5.0]) / float(self.gamma.min())
            if rho is None:
                return np.array(sorted(set(points.tolist()) | set(np.exp2(np.ceil(np.log2(own))).tolist())))
        else:
            offsets = np.array([-6.0, -2.0, 0.0, 2.0, 6.0])[:, None]
            points = (self.k + offsets * math.sqrt(self.k)) / self.gamma
        # distinct exponents by a set: np.unique imports numpy.ma, about 1 MB
        lattice = set(np.rint(np.log(points[points > 0.0]) / math.log(rho)).tolist())
        lattice.update(np.ceil(np.log(own) / math.log(rho)).tolist())
        return rho ** np.array(sorted(lattice))


def _seed_edges(plans: list[_Weight]) -> list[float]:
    """A shared panel set's seeded edges, ascending: every weight's seeds on one lattice.

    The ratio is the finest own ratio 1 + 2 / sqrt(k) among the weights
    with k >= 1, so a weight's seeds move by no more than its own lattice
    would move them, and a lattice point that several weights pick is one
    edge, bitwise: no two edges lie closer than a factor rho.  One weight
    gets its own seeds.  A set of k = 0 weights only has no lattice.
    """
    orders = [p.k for p in plans if p.k >= 1]
    rho = 1.0 + 2.0 / math.sqrt(max(orders)) if orders else None
    return sorted(set().union(*(p.seeds(rho).tolist() for p in plans)))


def _checked_weight(bound: ExponentialBound, eta, k: int, tol_scaled) -> _Weight:
    """Checks, scale and certified tail horizon of one weight, before any sample; eta may be a number."""
    if k < 0:
        raise ValueError("weight order k must be nonnegative")
    eta = L0Scalar.coerce(bound.space, eta)
    gamma = bound.margin(eta)
    n = bound.space.n_atoms
    tol_arr = np.broadcast_to(np.asarray(tol_scaled, dtype=float), (n,)).copy()
    if (tol_arr <= 0.0).any():
        raise ValueError("tolerance must be positive")

    log_scale = _weight_log_scale(k, gamma)

    log_whole = _log_certified_integral(bound.M.values, gamma, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_target = np.log(tol_arr / 2.0) + log_scale - log_whole
    T, own = _tail_time(gamma, k, log_target)
    # quadrature cannot resolve a tolerance below the rounding of the certified integral
    log_resolution = _LOG_EPS + log_whole - log_scale
    with np.errstate(divide="ignore"):
        coarse = np.nonzero(np.log(tol_arr) < log_resolution)[0]
    if coarse.size:
        a = int(coarse[0])
        raise MaxPanelsExceeded(
            f"tolerance {float(tol_arr[a])!r} on atom {a} is below the double resolution "
            f"{float(np.exp(log_resolution[a]))!r} of its scaled certificate integral",
            atom=a,
        )
    # each atom's tail is certified from its own horizon, or from the reach s*
    # of its raw samples, past which they carry nothing; at or before the
    # peak the tail bound is NaN or inf, and the whole integral bounds it
    reach = _sample_reach(bound)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.fmin(_log_tail(k, gamma * np.minimum(reach, own)), 0.0)
    lost = np.flatnonzero((reach < own) & (log_tail > log_target))
    if lost.size:
        a = int(lost[0])
        raise MaxPanelsExceeded(
            f"raw samples of the curve leave the double range at s={float(reach[a])!r} on atom {a}, "
            "where its certified tail is above the tolerance; pass the damped profile "
            "g(s) = exp(-xi s) h(s) with certificate (M, 0) at damping eta - xi instead",
            atom=a,
        )
    tail = np.exp(log_whole + log_tail - log_scale)
    return _Weight(k, eta.values, gamma, tol_arr, log_scale, T, tail, own, reach)


def damped_weighted_integrals(g: CurveSampler, weights) -> list[WeightedIntegralResult]:
    """Integrate s^k exp(-eta s) g(s) over [0, inf) for every (eta, k, tol_scaled).

    Each weight gets the checks, scaling, tolerance and error estimate of
    damped_weighted_integral, in list order and before the first sample.
    The weights share one panel set: its breaks are the union of their
    seeds below the longest horizon T, each round samples g once for all of
    them, and panels are split until every weight passes on every atom.
    Each atom's tail is certified from its own horizon, which at k >= 1 is
    an edge of the set when below T, or from the reach of its raw samples,
    past which its rows are zero.  Every result's ``panels`` is the shared
    count.  A d = 0 curve is not sampled: each result is the empty vector
    with est_error 0 and no panel.
    """
    if g.start > 0.0 or not math.isinf(g.end):
        raise ValueError("improper integration expects a curve on [0, inf)")
    bound = g.bound
    if bound is None:
        raise CertificateMissing("improper integration needs a growth certificate")
    plans = [_checked_weight(bound, eta, k, tol) for eta, k, tol in weights]
    n = g.space.n_atoms
    if not plans or not g.dim:  # no weight, or the empty vector, whose integral is exact
        empty = RnVector.of(g.space, np.zeros((n, 0)))
        return [WeightedIntegralResult(empty, p.log_scale, np.zeros(n), 0) for p in plans]
    T = max(p.horizon for p in plans)

    # every weight's k, eta and log scale as one row of the (weights x atoms) stack
    ks = np.repeat([float(p.k) for p in plans], n)
    etas = np.concatenate([p.eta for p in plans])
    log_scales = np.concatenate([p.log_scale for p in plans])
    reach = np.concatenate([p.reach for p in plans])
    cut = np.flatnonzero(reach < T)  # rows whose raw samples end before the horizon
    # one product buffer for every round: a fresh one a panel, 300 KiB at 1,280
    # rows and d = 2, has the allocator map and trim pages round after round
    product = np.empty(0)

    def values_at(s: np.ndarray) -> np.ndarray:
        """The weighted values at ``s``, (times, dim, weights * atoms), valid until the next call."""
        nonlocal product
        h = g.sample(s).transpose(0, 2, 1)  # (times, dim, atoms)
        sp = s[:, None]  # a Kronrod node lies inside its panel of [0, T], so s > 0
        # exp(k log s - eta s - log_scale) for every weight, in place in that order
        w = etas * sp
        np.subtract(ks * np.log(sp), w, out=w)
        w -= log_scales
        if cut.size:  # past its reach a row's samples carry nothing, and its weight may overflow
            w[:, cut] = np.where(sp > reach[cut], -np.inf, w[:, cut])
        np.exp(w, out=w)
        size = len(s) * g.dim * len(plans) * n
        if product.size < size:
            product = np.empty(size)
        out = product[:size].reshape(len(s), g.dim, len(plans), n)
        np.multiply(w.reshape(len(s), 1, len(plans), n), h[:, :, None], out=out)
        return out.reshape(len(s), g.dim, len(plans) * n)

    breaks = [0.0] + [s for s in _seed_edges(plans) if s < T] + [T]
    tol_rows = np.stack([p.tol for p in plans]) / 2.0
    value, err, panels = _adaptive(values_at, (g.dim, len(plans) * n), breaks, tol_rows)
    results = []
    for j, p in enumerate(plans):
        rows = slice(j * n, (j + 1) * n)
        # the Kronrod estimate sees no rounding: the weight's exponent, of size
        # k + |log_scale|, costs that many ulps of the value, each panel's
        # 15-node sum 15 more, and the sum over the panels one a panel
        ulps = 16.0 + panels + p.k + np.abs(p.log_scale)
        rounding = _EPS * ulps * np.abs(value[:, rows]).max(axis=0)
        results.append(WeightedIntegralResult(
            scaled_value=RnVector.of(g.space, value[:, rows].T),
            log_scale=p.log_scale,
            est_error=err[:, rows].max(axis=0) + p.tail + rounding,
            panels=panels,
        ))
    return results


def damped_weighted_integral(g: CurveSampler, eta, k: int, tol_scaled) -> WeightedIntegralResult:
    """Integrate s^k exp(-eta s) g(s) over [0, inf) in scaled form.

    Per atom the result satisfies
        integral = exp(log_scale) * scaled_value,
    with log_scale = k*log(k/gamma) - k (0 for k = 0) at gamma = eta - xi,
    so the returned numbers stay of order one even when the raw weight
    s^k exp(-eta s) under- or overflows.  ``eta`` is a scalar, or a number
    taken as constant.
    ``tol_scaled`` is the absolute tolerance per atom on the
    scaled value; half goes to tail truncation, half to quadrature.  A
    tolerance below the double resolution of the scaled certificate integral
    M k! gamma^-(k+1) e^-log_scale raises MaxPanelsExceeded naming the atom,
    before the first panel.  So does a curve whose raw samples leave the
    double range (``_sample_reach``) before its certified integral from
    there is below tol/2: the damped profile exp(-xi s) g(s), certified by
    (M, 0) and integrated at damping gamma, has the same integral.
    ``est_error`` is the quadrature estimate plus the certified tail plus
    the rounding of the weight and of the sums, (16 + panels + k +
    |log_scale|) ulps of the value.
    This is the one-weight call of damped_weighted_integrals.
    """
    return damped_weighted_integrals(g, [(eta, k, tol_scaled)])[0]


def improper_integral(g: CurveSampler, eta, tol: float) -> QuadratureResult:
    """Integrate exp(-eta s) g(s) over [0, inf) within tol per atom.

    The curve's certificate ||g(s)|| <= M exp(xi s) truncates the tail at a
    horizon where M exp(-(eta - xi) T) / (eta - xi) <= tol/2; the remaining
    finite integral is done adaptively with the other tol/2.
    """
    res = damped_weighted_integral(g, eta, 0, float(tol))
    return QuadratureResult(
        value=res.scaled_value,
        est_error=float(res.est_error.max()),
        panels=res.panels,
    )
