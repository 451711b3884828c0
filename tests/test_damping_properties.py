"""Property tests for weighted integrals over the whole damping domain eta > xi.

The curves are h(s) = e^(a s) x per atom, certified by (||x||, a), whose
weighted integral at eta = a + gamma is k! x / gamma^(k+1) for every
gamma > 0, including the dampings eta in (xi, 0] that the weight's scale
k / gamma serves.  Raw samples of h may leave the double range before the
integrand does; the calculus then refuses, and the damped profile
g(s) = e^(-a s) h(s) = x, certified by (||x||, 0) at damping gamma, answers.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnsl import (
    CurveSampler,
    ExponentialBound,
    L0Scalar,
    RnslError,
    RnVector,
    damped_weighted_integral,
    l0_norm,
    make_space,
)
from rnsl import calculus

# per atom: rate a, log10 gamma, log10 of the scale of x, direction of x in R^2
ATOMS = st.lists(
    st.tuples(
        st.floats(-60.0, 7.0),
        st.floats(-1.5, 2.0),
        st.floats(-150.0, 150.0),
        st.floats(0.0, 2.0 * math.pi),
    ),
    min_size=1,
    max_size=4,
)
ORDERS = st.sampled_from([0, 1, 8])
RTOL = 1e-9

# Each example is one atom list: the first two underflow raw samples before
# the horizon (h = M e^(-0.8 s) at eta = -0.7656), the third overflows the
# weight e^(99 s), the fourth joins scales 1e-8 to 1e29 in one call, the
# fifth joins an atom whose samples end near s = 354 with a horizon near 900,
# and the last two join dampings 100 and 0.0316 at k = 8, and 100 and 0.01 at
# k = 0, where the first atom's integrand once fell between Kronrod nodes.
EXAMPLES = [
    ([(-0.8, math.log10(0.0344), math.log10(5.8e-140), 0.0)], 0),
    ([(-0.8, math.log10(0.0344), -200.0, 0.0)], 0),
    ([(-100.0, 0.0, 0.0, 0.0)], 0),
    ([
        (-3.66, math.log10(13.4), math.log10(5.37e-6), 0.0),
        (-0.97, math.log10(0.3), math.log10(1.36e29), 0.0),
        (-2.97, math.log10(1.58), math.log10(5.49e-8), 0.0),
        (-2.38, math.log10(85.6), math.log10(1.03e4), 0.0),
    ], 0),
    ([(0.0, -1.5, 0.0, 0.0), (-2.0, -1.0, 0.0, 0.0)], 0),
    ([(0.0, 2.0, 0.0, 0.0), (0.0, -1.5, 0.0, 0.0)], 8),
    ([(0.0, 2.0, 0.0, 0.0), (0.0, -2.0, 0.0, 0.0)], 0),
]


def unpack(atoms):
    """Space, rates, gamma and x of an atom list."""
    a, log_gamma, log_scale, angle = (np.array(v) for v in zip(*atoms))
    space = make_space(np.full(len(atoms), 1.0 / len(atoms)))
    x = 10.0 ** log_scale[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return space, a, 10.0 ** log_gamma, x


def norms(space, x) -> np.ndarray:
    """||x|| per atom, without the underflow of a plain sum of squares at 1e-200."""
    return l0_norm(RnVector.of(space, x)).values


def check_within_tol(curve, eta, gamma, x, k) -> None:
    """The scaled integral of s^k e^(-eta s) curve(s) is k! x / gamma^(k+1) within RTOL of its norm."""
    log_exact = math.lgamma(k + 1.0) - (k + 1.0) * np.log(gamma)
    scale = norms(curve.space, x)
    tol = RTOL * scale * np.exp(log_exact - calculus._weight_log_scale(k, gamma))
    res = damped_weighted_integral(curve, eta, k, tol)
    exact = np.exp(log_exact - res.log_scale)[:, None] * x
    assert (np.abs(res.scaled_value.values - exact).max(axis=1) <= tol).all()


def raw_curve(space, a, x) -> CurveSampler:
    def batch(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # the sampler raises NonFiniteValue
            return np.exp(np.outer(s, a))[:, :, None] * x

    return CurveSampler.from_batch(
        space, 2, 0.0, math.inf, batch,
        bound=ExponentialBound(L0Scalar.of(space, norms(space, x)), L0Scalar.of(space, a)),
    )


def damped_curve(space, x) -> CurveSampler:
    return CurveSampler.from_batch(
        space, 2, 0.0, math.inf, lambda s: np.broadcast_to(x, (len(s),) + x.shape),
        bound=ExponentialBound(L0Scalar.of(space, norms(space, x)), L0Scalar.zero(space)),
    )


def with_examples(test):
    for atoms, k in EXAMPLES:
        test = example(atoms=atoms, k=k)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@with_examples
@given(atoms=ATOMS, k=ORDERS)
def test_raw_samples_answer_within_tol_or_refuse(atoms, k):
    space, a, gamma, x = unpack(atoms)
    try:
        check_within_tol(raw_curve(space, a, x), L0Scalar.of(space, a + gamma), gamma, x, k)
    except RnslError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@with_examples
@given(atoms=ATOMS, k=ORDERS)
def test_damped_profile_always_answers_within_tol(atoms, k):
    space, _, gamma, x = unpack(atoms)
    check_within_tol(damped_curve(space, x), L0Scalar.of(space, gamma), gamma, x, k)
