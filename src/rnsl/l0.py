"""Scalar algebra over a finite probability space.

A scalar here is a real value per atom of a finite probability space, with
pointwise arithmetic, indicator and lattice operations, and two metrics:
``eps_lambda`` (expectation of the truncated gap, convergence in probability)
and ``locally_convex`` (worst atom gap, uniform convergence).
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DivisionByZeroOnAtom,
    EmptyAtomList,
    EmptyFamily,
    NonFiniteValue,
    NonPositiveProbability,
    ProbabilitiesDoNotSumToOne,
    SpaceMismatch,
    _AtomError,
)

PROB_SUM_TOL = 1e-12

TOPOLOGIES = ("eps_lambda", "locally_convex")


@dataclass(frozen=True)
class ProbabilitySpace:
    """Finite probability space given by the probabilities of its atoms."""

    atom_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atom_probs) == 0:
            raise EmptyAtomList("a probability space needs at least one atom")
        probs = np.array(self.atom_probs, dtype=float)
        bad = np.nonzero(~((probs > 0.0) & (probs <= 1.0)))[0]
        if bad.size:
            i = int(bad[0])
            raise NonPositiveProbability(
                f"atom {i} has probability {self.atom_probs[i]!r}, expected a value in (0, 1]"
            )
        total = math.fsum(self.atom_probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbabilitiesDoNotSumToOne(
                f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )

    @property
    def n_atoms(self) -> int:
        return len(self.atom_probs)

    @property
    def probs(self) -> np.ndarray:
        return np.asarray(self.atom_probs, dtype=float)


def make_space(probs: Sequence[float]) -> ProbabilitySpace:
    """Build a probability space from atom probabilities."""
    return ProbabilitySpace(tuple(float(p) for p in probs))


def stacked_space(space: ProbabilitySpace, copies: int) -> ProbabilitySpace:
    """``copies`` of ``space`` side by side, each with total probability 1/copies.

    Copy j's atom a becomes atom j*n + a, with probability p_a / copies, so a
    family of curves on ``space`` is one curve on the stacked space, and any
    per-atom computation on it gives every member's result at once.
    """
    if copies < 1 or copies != int(copies):
        raise ValueError(f"copies must be a positive integer, got {copies!r}")
    return make_space(np.tile(space.probs / int(copies), int(copies)))


def by_copy(values: np.ndarray, n: int) -> np.ndarray:
    """Values with one leading entry per stacked atom, as (copies, n, ...): [j, a] is copy j's atom a."""
    return values.reshape((-1, n) + values.shape[1:])


@contextlib.contextmanager
def own_atoms(n: int) -> Iterator[None]:
    """Errors of a computation on copies of an n-atom space name an atom of that space.

    An atom error raised inside on stacked atom j*n + a is re-raised as the
    same object naming atom a, in its ``atom`` attribute and its message.
    """
    try:
        yield
    except _AtomError as err:
        if err.atom is not None and err.atom >= n:
            a = err.atom % n
            err.args = (re.sub(rf"\batom {err.atom}\b", f"atom {a}", str(err), count=1),)
            err.atom = a
        raise


def _as_array(space: ProbabilitySpace, values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape == ():
        arr = np.full(space.n_atoms, float(arr))
    if arr.shape != (space.n_atoms,):
        raise SpaceMismatch(
            f"expected {space.n_atoms} atom values, got shape {arr.shape}"
        )
    if np.isnan(arr).any():
        raise NonFiniteValue("NaN is never a valid atom value")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("infinite atom value")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class L0Scalar:
    """One finite real value per atom."""

    space: ProbabilitySpace
    values: np.ndarray

    @classmethod
    def of(cls, space: ProbabilitySpace, values) -> "L0Scalar":
        return cls(space, _as_array(space, values))

    @classmethod
    def constant(cls, space: ProbabilitySpace, c: float) -> "L0Scalar":
        return cls.of(space, np.full(space.n_atoms, float(c)))

    @classmethod
    def coerce(cls, space: ProbabilitySpace, value) -> "L0Scalar":
        """``value`` as a scalar on ``space``, such as a damping or an operand.

        A number is taken as constant; a scalar on another space raises
        SpaceMismatch.
        """
        if isinstance(value, L0Scalar):
            if value.space != space:
                raise SpaceMismatch("operands live on different probability spaces")
            return value
        return cls.constant(space, float(value))

    @classmethod
    def zero(cls, space: ProbabilitySpace) -> "L0Scalar":
        return cls.constant(space, 0.0)

    @classmethod
    def one(cls, space: ProbabilitySpace) -> "L0Scalar":
        return cls.constant(space, 1.0)

    # convenience operators, all routed through pointwise()
    def __add__(self, other):
        return pointwise("add", self, other)

    def __radd__(self, other):
        return pointwise("add", self, other)

    def __sub__(self, other):
        return pointwise("sub", self, other)

    def __rsub__(self, other):
        return pointwise("sub", L0Scalar.coerce(self.space, other), self)

    def __mul__(self, other):
        return pointwise("mul", self, other)

    def __rmul__(self, other):
        return pointwise("mul", self, other)

    def __truediv__(self, other):
        return pointwise("div", self, other)

    def __neg__(self):
        return pointwise("neg", self)

    def __repr__(self) -> str:
        return f"L0Scalar({np.array2string(self.values, precision=6)})"


def _check_pair(f: L0Scalar, g: L0Scalar) -> None:
    if f.space != g.space:
        raise SpaceMismatch("operands live on different probability spaces")


_UNARY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "abs": np.abs,
    "exp": np.exp,
    "neg": np.negative,
}

_BINARY: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def pointwise(op: str, f: L0Scalar, g=None) -> L0Scalar:
    """Apply a named pointwise operation atom by atom.

    Binary ops accept a scalar for ``g`` and broadcast it; ``scale`` requires
    a plain real factor.  Division reports the first offending atom.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # L0Scalar.of rejects an overflow
        if op in _UNARY:
            if g is not None:
                raise ValueError(f"{op} is unary")
            return L0Scalar.of(f.space, _UNARY[op](f.values))
        if op == "scale":
            if isinstance(g, L0Scalar):
                raise ValueError("scale takes a plain real factor")
            if not np.isfinite(float(g)):
                raise NonFiniteValue("scale factor must be finite")
            return L0Scalar.of(f.space, float(g) * f.values)
        if op in _BINARY or op == "div":
            gs = L0Scalar.coerce(f.space, g)
            if op == "div":
                zero = np.nonzero(gs.values == 0.0)[0]
                if zero.size:
                    a = int(zero[0])
                    raise DivisionByZeroOnAtom(f"zero divisor on atom {a}", atom=a)
                return L0Scalar.of(f.space, f.values / gs.values)
            return L0Scalar.of(f.space, _BINARY[op](f.values, gs.values))
        raise ValueError(f"unknown pointwise op {op!r}")


_RELATIONS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "=": np.equal,
    "!=": np.not_equal,
    "<=": np.less_equal,
    "<": np.less,
}


def indicator(f: L0Scalar, g, rel: str) -> L0Scalar:
    """0/1 scalar marking the atoms where ``f rel g`` holds (exact comparison)."""
    if rel not in _RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    gs = L0Scalar.coerce(f.space, g)
    mask = _RELATIONS[rel](f.values, gs.values)
    return L0Scalar.of(f.space, mask.astype(float))


def lattice(op: str, family: Sequence[L0Scalar]) -> L0Scalar:
    """Atomwise supremum or infimum of a nonempty family."""
    if op not in ("sup", "inf"):
        raise ValueError(f"unknown lattice op {op!r}")
    members = list(family)
    if not members:
        raise EmptyFamily(f"{op} of an empty family is undefined")
    first = members[0]
    for m in members[1:]:
        _check_pair(first, m)
    stack = np.stack([m.values for m in members])
    agg = stack.max(axis=0) if op == "sup" else stack.min(axis=0)
    return L0Scalar.of(first.space, agg)


def expectation(f: L0Scalar) -> float:
    """Probability-weighted mean of the atom values."""
    return float(np.dot(f.space.probs, f.values))


def distance(f: L0Scalar, g: L0Scalar, topology: str) -> float:
    """Metric between two scalars under one of the two supported topologies.

    ``eps_lambda`` is E[min(|f-g|, 1)]; ``locally_convex`` is the max atom gap.
    The first metrizes convergence in probability, the second is strictly
    stronger, so eps_lambda <= locally_convex always.
    """
    _check_pair(f, g)
    gap = np.abs(f.values - g.values)
    if topology == "eps_lambda":
        return float(np.dot(f.space.probs, np.minimum(gap, 1.0)))
    if topology == "locally_convex":
        return float(gap.max())
    raise ValueError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")


@dataclass(frozen=True, eq=False)
class L0Set:
    """Measurable set as an atom membership mask."""

    space: ProbabilitySpace
    membership: np.ndarray

    @classmethod
    def of(cls, space: ProbabilitySpace, membership) -> "L0Set":
        mask = np.array(membership, dtype=bool)
        if mask.shape != (space.n_atoms,):
            raise SpaceMismatch(
                f"expected {space.n_atoms} membership flags, got shape {mask.shape}"
            )
        mask.setflags(write=False)
        return cls(space, mask)

    def indicator(self) -> L0Scalar:
        return L0Scalar.of(self.space, self.membership.astype(float))

    def probability(self) -> float:
        return float(np.dot(self.space.probs, self.membership))

    def complement(self) -> "L0Set":
        return L0Set.of(self.space, ~self.membership)

    def union(self, other: "L0Set") -> "L0Set":
        if self.space != other.space:
            raise SpaceMismatch("sets live on different probability spaces")
        return L0Set.of(self.space, self.membership | other.membership)

    def intersection(self, other: "L0Set") -> "L0Set":
        if self.space != other.space:
            raise SpaceMismatch("sets live on different probability spaces")
        return L0Set.of(self.space, self.membership & other.membership)


def level_set(f: L0Scalar, g, rel: str) -> L0Set:
    """Set of atoms where ``f rel g`` holds."""
    ind = indicator(f, g, rel)
    return L0Set.of(f.space, ind.values != 0.0)
