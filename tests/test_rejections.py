"""Input rejection across the layers: one parametrized table per module.

Each case builds a call with one bad input and names the error it must
raise and, for errors that point at an atom, that atom.
"""

import math
import os

import numpy as np
import pytest

from rnsl import (
    BoundViolated,
    CurveSampler,
    DimMismatch,
    EtaNotInGxi,
    ExponentialBound,
    L0Operator,
    L0Scalar,
    L0Set,
    LaplaceSpec,
    MaxPanelsExceeded,
    NegativeTime,
    NonFiniteValue,
    RnVector,
    SpaceMismatch,
    abel_limit_check,
    damped_weighted_integral,
    hille_yosida_report,
    indicator,
    lattice,
    make_matrix_semigroup,
    make_space,
    op_apply,
    pointwise,
    riemann_integral,
    rk4_oracle,
    scenario_from_dict,
    transforms_equal,
    yosida_approximant,
)
from rnsl.instances import inversion_test_family
from rnsl.reporting import _atomic_write_bytes
from rnsl.suites import SUITES

S1 = make_space([1.0])
S2 = make_space([0.3, 0.7])
X2 = RnVector.of(S2, [[1.0, -2.0], [0.5, 3.0]])
A2 = L0Operator.from_diag(S2, [[-1.0, -2.0], [-0.5, -1.5]])
I2 = L0Operator.identity(S2, 2)
BOUND2 = ExponentialBound.constant(S2, 1.0, 0.0)


def curve(space=S2, dim=2, start=0.0, end=1.0, evaluator=None, bound=None):
    return CurveSampler(space, dim, start, end, evaluator or (lambda t: X2.scale(t)), bound)


def decay(space, dim):
    return inversion_test_family(space, dim)[1][1]


def check(build, error, atom):
    with pytest.raises(error) as exc:
        build()
    if atom is not None:
        assert exc.value.atom == atom


@pytest.mark.parametrize("build,error", [
    pytest.param(lambda: curve(start=math.nan), NonFiniteValue, id="nan-start"),
    pytest.param(lambda: curve(end=math.nan), NonFiniteValue, id="nan-end"),
    pytest.param(lambda: curve(start=-math.inf), NonFiniteValue, id="infinite-start"),
    pytest.param(lambda: curve(start=1.0, end=0.5), NonFiniteValue, id="end-before-start"),
    pytest.param(
        lambda: curve(end=math.inf, bound=ExponentialBound.constant(S1, 1.0, 0.0)),
        SpaceMismatch, id="certificate-on-another-space",
    ),
    pytest.param(lambda: curve(evaluator=lambda t: 1.0)(0.5), TypeError, id="evaluator-not-a-vector"),
    pytest.param(
        lambda: curve(evaluator=lambda t: RnVector.zeros(S1, 2))(0.5),
        SpaceMismatch, id="evaluator-on-another-space",
    ),
    pytest.param(
        lambda: curve(evaluator=lambda t: RnVector.zeros(S2, 3))(0.5),
        SpaceMismatch, id="evaluator-with-another-dim",
    ),
    pytest.param(lambda: riemann_integral(curve(), 0.0, math.inf, 1e-8), NonFiniteValue, id="riemann-infinite-limit"),
    pytest.param(lambda: riemann_integral(curve(), math.nan, 1.0, 1e-8), NonFiniteValue, id="riemann-nan-limit"),
    pytest.param(lambda: riemann_integral(curve(), 1.0, 0.5, 1e-8), NonFiniteValue, id="riemann-limits-out-of-order"),
    pytest.param(
        lambda: damped_weighted_integral(curve(bound=BOUND2), 1.0, 0, 1e-8),
        ValueError, id="improper-on-a-finite-domain",
    ),
    pytest.param(
        lambda: damped_weighted_integral(curve(start=1.0, end=math.inf, bound=BOUND2), 1.0, 0, 1e-8),
        ValueError, id="improper-starting-past-zero",
    ),
])
def test_calculus_rejects(build, error):
    check(build, error, None)


def damped(M, xi):
    """exp(-s) X2 on [0, inf), certified by (M, xi) per atom of S2."""
    bound = ExponentialBound(L0Scalar.of(S2, M), L0Scalar.of(S2, xi))
    return LaplaceSpec(curve(end=math.inf, evaluator=lambda t: X2.scale(math.exp(-t)), bound=bound))


@pytest.mark.parametrize("build,error,atom", [
    pytest.param(
        lambda: transforms_equal(decay(S2, 2), decay(S1, 2), [1.0], 1e-6),
        SpaceMismatch, None, id="transforms-on-different-spaces",
    ),
    pytest.param(
        lambda: transforms_equal(decay(S2, 2), decay(S2, 3), [1.0], 1e-6),
        DimMismatch, None, id="transforms-of-different-dims",
    ),
    # the two curves are integrated as one on two copies of S2; an error names the atom of S2
    pytest.param(
        lambda: transforms_equal(damped([4.0, 4.0], [0.0, 0.0]), damped([4.0, 4.0], [0.0, 2.0]), [4.0, 1.0], 1e-6),
        EtaNotInGxi, 1, id="transforms-eta-outside-the-second-domain",
    ),
    pytest.param(
        lambda: transforms_equal(damped([4.0, 4.0], [0.0, 2.0]), damped([4.0, 4.0], [3.0, 0.0]), [1.0], 1e-6),
        EtaNotInGxi, 1, id="transforms-first-curve-refused-first",
    ),
    pytest.param(
        lambda: transforms_equal(damped([4.0, 4.0], [0.0, 0.0]), damped([4.0, 4e8], [0.0, 0.0]), [1.0], 4e-9),
        MaxPanelsExceeded, 1, id="transforms-tolerance-below-the-second-resolution",
    ),
])
def test_laplace_rejects(build, error, atom):
    with pytest.raises(error) as exc:
        build()
    if atom is not None:
        assert exc.value.atom == atom
        assert f"on atom {atom}" in str(exc.value)


@pytest.mark.parametrize("build,error,atom", [
    pytest.param(
        lambda: make_matrix_semigroup(A2, L0Operator.identity(S1, 2), BOUND2),
        SpaceMismatch, None, id="commutator-C-on-another-space",
    ),
    pytest.param(
        lambda: make_matrix_semigroup(A2, I2, ExponentialBound.constant(S1, 1.0, 0.0)),
        SpaceMismatch, None, id="commutator-certificate-on-another-space",
    ),
    pytest.param(
        lambda: make_matrix_semigroup(A2, L0Operator.identity(S2, 3), BOUND2),
        DimMismatch, None, id="commutator-C-with-another-dim",
    ),
    pytest.param(lambda: yosida_approximant(A2, I2, 2.0, -0.5, X2), NegativeTime, None, id="yosida-negative-time"),
    pytest.param(
        lambda: yosida_approximant(A2, I2, L0Scalar.constant(S1, 2.0), 0.5, X2),
        SpaceMismatch, None, id="yosida-eta-on-another-space",
    ),
    pytest.param(lambda: abel_limit_check(A2, I2, BOUND2, X2, [10.0]), ValueError, None, id="abel-one-point"),
    pytest.param(
        lambda: abel_limit_check(A2, I2, BOUND2, X2, [L0Scalar.of(S2, [1.0, 2.0]), L0Scalar.of(S2, [2.0, 0.0])]),
        EtaNotInGxi, 1, id="abel-eta-below-xi",
    ),
    pytest.param(lambda: hille_yosida_report(A2, I2, BOUND2, [2.0], 0), ValueError, None, id="ladder-without-rungs"),
    pytest.param(
        lambda: hille_yosida_report(A2, I2, ExponentialBound.constant(S2, 1.0, 3.0), [5.0, 2.0], 1),
        EtaNotInGxi, 0, id="ladder-eta-below-xi",
    ),
])
def test_semigroup_rejects(build, error, atom):
    check(build, error, atom)


@pytest.mark.parametrize("build,error", [
    pytest.param(lambda: rk4_oracle(A2, RnVector.zeros(S1, 2), I2, [0.0, 1.0], 0.1), SpaceMismatch, id="v0-on-another-space"),
    pytest.param(lambda: rk4_oracle(A2, X2, L0Operator.identity(S1, 2), [0.0, 1.0], 0.1), SpaceMismatch, id="C-on-another-space"),
    pytest.param(lambda: rk4_oracle(A2, RnVector.zeros(S2, 3), I2, [0.0, 1.0], 0.1), DimMismatch, id="v0-with-another-dim"),
    pytest.param(lambda: rk4_oracle(A2, X2, L0Operator.identity(S2, 3), [0.0, 1.0], 0.1), DimMismatch, id="C-with-another-dim"),
])
def test_acp_rejects(build, error):
    check(build, error, None)


@pytest.mark.parametrize("build,error,atom", [
    pytest.param(lambda: X2 + RnVector.zeros(S1, 2), SpaceMismatch, None, id="vectors-on-two-spaces"),
    pytest.param(lambda: X2 - RnVector.zeros(S2, 3), DimMismatch, None, id="vectors-of-two-dims"),
    pytest.param(lambda: A2 + L0Operator.identity(S1, 2), SpaceMismatch, None, id="operators-on-two-spaces"),
    pytest.param(lambda: A2 @ L0Operator.identity(S2, 3), DimMismatch, None, id="operators-of-two-dims"),
    pytest.param(lambda: X2.module_mul(L0Scalar.one(S1)), SpaceMismatch, None, id="module-mul-on-another-space"),
    pytest.param(lambda: L0Operator.from_matrix(S2, np.ones((2, 3))), DimMismatch, None, id="matrix-not-square"),
    pytest.param(lambda: L0Operator.from_diag(S2, np.ones((3, 2))), SpaceMismatch, None, id="diag-rows-not-atoms"),
    pytest.param(lambda: L0Operator.from_diag(S2, np.ones((2, 2, 2))), SpaceMismatch, None, id="diag-three-axes"),
    pytest.param(
        lambda: L0Operator.scaled_identity(S2, 2, L0Scalar.one(S1)),
        SpaceMismatch, None, id="scaled-identity-on-another-space",
    ),
    pytest.param(lambda: op_apply(A2, RnVector.zeros(S2, 3)), DimMismatch, None, id="apply-with-another-dim"),
    pytest.param(lambda: BOUND2.margin(L0Scalar.of(S2, [1.0, 0.0])), EtaNotInGxi, 1, id="margin-eta-at-xi"),
    pytest.param(lambda: BOUND2.margin(-1.0), EtaNotInGxi, 0, id="margin-number-below-xi"),
    pytest.param(lambda: BOUND2.margin(L0Scalar.one(S1)), SpaceMismatch, None, id="margin-eta-on-another-space"),
])
def test_rn_rejects(build, error, atom):
    check(build, error, atom)


F2 = L0Scalar.of(S2, [1.0, -2.0])


@pytest.mark.parametrize("build,error", [
    pytest.param(lambda: pointwise("abs", F2, 1.0), ValueError, id="unary-given-g"),
    pytest.param(lambda: pointwise("scale", F2, math.inf), NonFiniteValue, id="infinite-scale"),
    pytest.param(lambda: pointwise("scale", F2, math.nan), NonFiniteValue, id="nan-scale"),
    pytest.param(lambda: indicator(F2, 0.0, "<>"), ValueError, id="unknown-relation"),
    pytest.param(lambda: lattice("mean", [F2]), ValueError, id="unknown-lattice-op"),
    pytest.param(lambda: L0Set.of(S2, [True]), SpaceMismatch, id="set-too-short"),
    pytest.param(lambda: L0Set.of(S2, [[True, False]]), SpaceMismatch, id="set-two-axes"),
    pytest.param(lambda: L0Set.of(S2, [True, False]).union(L0Set.of(S1, [True])), SpaceMismatch, id="union-across-spaces"),
    pytest.param(
        lambda: L0Set.of(S2, [True, False]).intersection(L0Set.of(S1, [True])),
        SpaceMismatch, id="intersection-across-spaces",
    ),
    pytest.param(lambda: L0Scalar.coerce(S2, L0Scalar.one(S1)), SpaceMismatch, id="coerce-another-space"),
    pytest.param(lambda: F2 + L0Scalar.one(S1), SpaceMismatch, id="add-across-spaces"),
    pytest.param(lambda: indicator(F2, L0Scalar.one(S1), "<"), SpaceMismatch, id="indicator-across-spaces"),
])
def test_l0_rejects(build, error):
    check(build, error, None)


@pytest.mark.parametrize("build,error,atom,t", [
    pytest.param(
        lambda: LaplaceSpec(curve(end=math.inf, evaluator=lambda t: X2, bound=BOUND2)),
        BoundViolated, 0, 1e-3, id="escape-carries-its-time",
    ),
    pytest.param(lambda: BOUND2.margin(-1.0), EtaNotInGxi, 0, None, id="damping-has-no-time"),
    pytest.param(
        lambda: damped_weighted_integral(curve(end=math.inf, bound=BOUND2), 1.0, 0, 1e-30),
        MaxPanelsExceeded, 0, None, id="panel-budget-has-no-time",
    ),
])
def test_only_an_envelope_escape_carries_a_time(build, error, atom, t):
    with pytest.raises(error) as exc:
        build()
    assert exc.value.atom == atom
    if t is None:
        assert not hasattr(exc.value, "t")
    else:
        assert exc.value.t == t


def test_reporting_removes_the_temporary_file_of_a_failed_write(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _atomic_write_bytes(str(target), "text, not bytes")
    assert os.listdir(tmp_path) == []


def _scenario(suite, **fields):
    doc = {
        "space": {"probs": [0.4, 0.6]},
        "dim": 2,
        "operators": {
            "A": {"matrix": [[-1.0, 0.3], [0.3, -0.5]]},
            "C": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        },
        "bound": {"M": 1.0, "xi": 0.0},
        "suites": [suite],
        "instances": 3,
    }
    doc.update(fields)
    return scenario_from_dict(doc)


@pytest.mark.parametrize("scn", [
    # one damping: the second resolvent of the identity is taken one above it
    pytest.param(_scenario("eq_5", eta_grid=[2.0]), id="eq_5-one-point-grid"),
    # A = 0: the approximants are exact, so the first error is 0
    pytest.param(
        _scenario(
            "yosida_convergence",
            operators={"A": {"matrix": [[0.0, 0.0], [0.0, 0.0]]}, "C": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        ),
        id="yosida_convergence-exact-first-approximant",
    ),
])
def test_suite_edge_inputs_pass(scn):
    report = SUITES[scn.suites[0]](scn)
    assert report.records and report.passed
