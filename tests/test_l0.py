"""Scalar layer: space construction, pointwise algebra, indicators, metrics."""

import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsl import (
    BoundViolated,
    DivisionByZeroOnAtom,
    EmptyAtomList,
    EmptyFamily,
    L0Scalar,
    L0Set,
    MaxPanelsExceeded,
    NonFiniteValue,
    NonPositiveProbability,
    ProbabilitiesDoNotSumToOne,
    SpaceMismatch,
    distance,
    expectation,
    indicator,
    lattice,
    level_set,
    make_space,
    pointwise,
)
from rnsl.l0 import own_atoms

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def triples(n_atoms: int):
    one = st.lists(finite, min_size=n_atoms, max_size=n_atoms)
    return st.tuples(one, one, one)


class TestMakeSpace:
    def test_symmetric_pair(self):
        assert make_space([0.5, 0.5]).n_atoms == 2

    def test_asymmetric_pair(self):
        assert make_space([0.3, 0.7]).n_atoms == 2

    def test_sum_above_one_rejected(self):
        with pytest.raises(ProbabilitiesDoNotSumToOne):
            make_space([0.5, 0.6])

    def test_zero_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            make_space([0.0, 1.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            make_space([-0.1, 1.1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyAtomList):
            make_space([])

    def test_single_atom(self):
        assert make_space([1.0]).n_atoms == 1


class TestPointwise:
    def test_add(self, space2):
        f = L0Scalar.of(space2, [1, 2])
        g = L0Scalar.of(space2, [3, 4])
        out = pointwise("add", f, g)
        np.testing.assert_array_equal(out.values, [4, 6])

    def test_div_by_zero_names_atom(self, space2):
        f = L0Scalar.of(space2, [1, 1])
        g = L0Scalar.of(space2, [2, 0])
        with pytest.raises(DivisionByZeroOnAtom) as exc:
            pointwise("div", f, g)
        assert exc.value.atom == 1

    def test_exp(self, space2):
        out = pointwise("exp", L0Scalar.of(space2, [0, 1]))
        np.testing.assert_allclose(out.values, [1.0, math.e], rtol=1e-15)

    def test_sub_mul_min_max_abs_neg(self, space2):
        f = L0Scalar.of(space2, [1, -2])
        g = L0Scalar.of(space2, [3, 4])
        np.testing.assert_array_equal(pointwise("sub", f, g).values, [-2, -6])
        np.testing.assert_array_equal(pointwise("mul", f, g).values, [3, -8])
        np.testing.assert_array_equal(pointwise("min", f, g).values, [1, -2])
        np.testing.assert_array_equal(pointwise("max", f, g).values, [3, 4])
        np.testing.assert_array_equal(pointwise("abs", f).values, [1, 2])
        np.testing.assert_array_equal(pointwise("neg", f).values, [-1, 2])

    def test_scale_takes_plain_real(self, space2):
        f = L0Scalar.of(space2, [1, -2])
        np.testing.assert_array_equal(pointwise("scale", f, 3.0).values, [3, -6])
        with pytest.raises(ValueError):
            pointwise("scale", f, L0Scalar.of(space2, [1, 1]))

    def test_broadcast_real_operand(self, space2):
        f = L0Scalar.of(space2, [1, 2])
        np.testing.assert_array_equal(pointwise("add", f, 1.0).values, [2, 3])

    def test_unknown_op(self, space2):
        with pytest.raises(ValueError):
            pointwise("sqrt", L0Scalar.of(space2, [1, 1]))

    def test_space_mismatch(self, space2, space4):
        with pytest.raises(SpaceMismatch):
            pointwise("add", L0Scalar.one(space2), L0Scalar.one(space4))

    @pytest.mark.parametrize(
        "bad, message",
        [(math.inf, "infinite atom value"), (-math.inf, "infinite atom value"),
         (math.nan, "NaN is never a valid atom value")],
    )
    def test_non_finite_values_rejected(self, space2, bad, message):
        with pytest.raises(NonFiniteValue, match=message):
            L0Scalar.of(space2, [bad, 0.0])

    def test_overflow_raises_without_numpy_warning(self, space1):
        # pytest turns a RuntimeWarning into an error, so a warning would fail this
        big = L0Scalar.of(space1, [1e200])
        overflows = [
            lambda: pointwise("exp", L0Scalar.of(space1, [1000.0])),
            lambda: pointwise("mul", big, 1e200),
            lambda: pointwise("scale", big, 1e200),
            lambda: big * big,
        ]
        for overflow in overflows:
            with pytest.raises(NonFiniteValue, match="infinite atom value"):
                overflow()

    def test_operator_sugar_matches_pointwise(self, space2):
        f = L0Scalar.of(space2, [1, 2])
        g = L0Scalar.of(space2, [3, 5])
        np.testing.assert_array_equal((f + g).values, [4, 7])
        np.testing.assert_array_equal((f - g).values, [-2, -3])
        np.testing.assert_array_equal((f * g).values, [3, 10])
        np.testing.assert_array_equal((-f).values, [-1, -2])
        np.testing.assert_array_equal((f / g).values, [1 / 3, 2 / 5])


class TestIndicator:
    def test_strict_greater(self, space2):
        f = L0Scalar.of(space2, [1, 0])
        g = L0Scalar.of(space2, [0, 1])
        np.testing.assert_array_equal(indicator(f, g, ">").values, [1, 0])

    def test_equality(self, space2):
        f = L0Scalar.of(space2, [1, 1])
        np.testing.assert_array_equal(indicator(f, f, "==").values, [1, 1])

    def test_less_equal_is_complement_of_greater(self, space2):
        f = L0Scalar.of(space2, [1, 0])
        g = L0Scalar.of(space2, [0, 1])
        np.testing.assert_array_equal(indicator(f, g, "<=").values, [0, 1])

    def test_all_relations(self, space2):
        f = L0Scalar.of(space2, [1, 0])
        g = L0Scalar.of(space2, [0, 0])
        expected = {
            ">": [1, 0],
            ">=": [1, 1],
            "==": [0, 1],
            "!=": [1, 0],
            "<=": [0, 1],
            "<": [0, 0],
        }
        for rel, want in expected.items():
            np.testing.assert_array_equal(indicator(f, g, rel).values, want)

    def test_space_mismatch(self, space2, space4):
        with pytest.raises(SpaceMismatch):
            indicator(L0Scalar.one(space2), L0Scalar.one(space4), ">")


class TestLattice:
    def test_sup(self, space2):
        fam = [L0Scalar.of(space2, [1, 0]), L0Scalar.of(space2, [0, 1])]
        np.testing.assert_array_equal(lattice("sup", fam).values, [1, 1])

    def test_inf(self, space2):
        fam = [L0Scalar.of(space2, [1, 0]), L0Scalar.of(space2, [0, 1])]
        np.testing.assert_array_equal(lattice("inf", fam).values, [0, 0])

    def test_singleton(self, space2):
        out = lattice("sup", [L0Scalar.of(space2, [2, 3])])
        np.testing.assert_array_equal(out.values, [2, 3])

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            lattice("sup", [])

    def test_space_mismatch(self, space2, space4):
        with pytest.raises(SpaceMismatch):
            lattice("inf", [L0Scalar.one(space2), L0Scalar.one(space4)])


class TestDistance:
    def test_identical_scalars(self, space2):
        f = L0Scalar.of(space2, [1.5, -2.0])
        assert distance(f, f, "eps_lambda") == 0.0
        assert distance(f, f, "locally_convex") == 0.0

    def test_eps_lambda_truncates_at_one(self, space2):
        f = L0Scalar.of(space2, [2, 0])
        g = L0Scalar.zero(space2)
        assert distance(f, g, "eps_lambda") == pytest.approx(0.3, abs=1e-15)

    def test_locally_convex_is_max_gap(self, space2):
        f = L0Scalar.of(space2, [2, 0])
        g = L0Scalar.zero(space2)
        assert distance(f, g, "locally_convex") == 2.0

    def test_unknown_topology(self, space2):
        with pytest.raises(ValueError):
            distance(L0Scalar.one(space2), L0Scalar.one(space2), "weak_star")


class TestExpectationAndSets:
    def test_expectation_weights_by_probs(self, space2):
        f = L0Scalar.of(space2, [10.0, 0.0])
        assert expectation(f) == pytest.approx(3.0, abs=1e-15)

    def test_level_set_and_operations(self, space2):
        f = L0Scalar.of(space2, [2.0, -1.0])
        d = level_set(f, L0Scalar.zero(space2), ">")
        assert d.membership.tolist() == [True, False]
        assert d.probability() == pytest.approx(0.3)
        assert d.complement().membership.tolist() == [False, True]
        e = L0Set.of(space2, [True, True])
        assert d.union(e).membership.tolist() == [True, True]
        assert d.intersection(e).membership.tolist() == [True, False]
        np.testing.assert_array_equal(d.indicator().values, [1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(vals=triples(2), topology=st.sampled_from(["eps_lambda", "locally_convex"]))
def test_metric_axioms(vals, topology):
    space = make_space([0.3, 0.7])
    f, g, h = (L0Scalar.of(space, v) for v in vals)
    dfg = distance(f, g, topology)
    assert dfg >= 0.0
    assert dfg == distance(g, f, topology)
    assert distance(f, f, topology) == 0.0
    if np.array_equal(f.values, g.values):
        assert dfg == 0.0
    assert dfg <= distance(f, h, topology) + distance(h, g, topology) + 1e-9


@settings(max_examples=60, deadline=None)
@given(vals=triples(3))
def test_eps_lambda_never_exceeds_locally_convex(vals):
    space = make_space([0.2, 0.3, 0.5])
    f, g, _ = (L0Scalar.of(space, v) for v in vals)
    assert distance(f, g, "eps_lambda") <= distance(f, g, "locally_convex") + 1e-15


@settings(max_examples=60, deadline=None)
@given(vals=triples(3))
def test_indicator_partition(vals):
    space = make_space([0.2, 0.3, 0.5])
    f, g, _ = (L0Scalar.of(space, v) for v in vals)
    total = indicator(f, g, ">") + indicator(f, g, "<=")
    np.testing.assert_array_equal(total.values, np.ones(3))


@settings(max_examples=60, deadline=None)
@given(vals=triples(2), op=st.sampled_from(["sup", "inf"]))
def test_lattice_idempotent_commutative_associative(vals, op):
    space = make_space([0.4, 0.6])
    f, g, h = (L0Scalar.of(space, v) for v in vals)
    same = lattice(op, [f, f])
    np.testing.assert_array_equal(same.values, f.values)
    ab = lattice(op, [f, g])
    ba = lattice(op, [g, f])
    np.testing.assert_array_equal(ab.values, ba.values)
    left = lattice(op, [lattice(op, [f, g]), h])
    right = lattice(op, [f, lattice(op, [g, h])])
    np.testing.assert_array_equal(left.values, right.values)


class TestOwnAtoms:
    """Errors from a computation on stacked copies of an n-atom space name atom ``atom % n``."""

    @staticmethod
    def escape_on(atom: int):
        raise BoundViolated(f"curve norm 2.0 exceeds its envelope 1.0 at s=0.25 on atom {atom}", atom=atom, t=0.25)

    def test_a_stacked_atom_is_renamed_in_the_same_error(self):
        with pytest.raises(BoundViolated) as exc:
            with own_atoms(4):
                self.escape_on(14)  # copy 3, atom 2
        err = exc.value
        assert (err.atom, err.t) == (2, 0.25)
        assert str(err) == "curve norm 2.0 exceeds its envelope 1.0 at s=0.25 on atom 2"
        # the same object, raised where it was: its traceback still ends in the raising call
        assert traceback.extract_tb(err.__traceback__)[-1].name == "escape_on"

    def test_an_atom_below_n_is_left_untouched(self):
        with pytest.raises(BoundViolated) as exc:
            with own_atoms(4):
                self.escape_on(3)
        assert (exc.value.atom, exc.value.t) == (3, 0.25)
        assert str(exc.value).endswith("on atom 3")

    def test_only_the_atom_number_is_renamed(self):
        # atom 12 of 10-atom copies is atom 2; the time s=12.0 stays
        err = MaxPanelsExceeded("raw samples leave the double range at s=12.0 on atom 12", atom=12)
        with pytest.raises(MaxPanelsExceeded) as exc:
            with own_atoms(10):
                raise err
        assert exc.value is err
        assert str(err) == "raw samples leave the double range at s=12.0 on atom 2"

    def test_errors_without_an_atom_pass_through(self):
        err = NonFiniteValue("infinite atom value")
        with pytest.raises(NonFiniteValue) as exc:
            with own_atoms(1):
                raise err
        assert exc.value is err and str(err) == "infinite atom value"
