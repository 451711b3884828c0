"""Scenario files: reading, checking and canonical digests.

A scenario fixes everything a run depends on: the probability space, the
operator pair with its growth certificate, the evaluation grids, and which
suites to run.  Each field is read, checked and converted in one pass; a
field that breaks a rule raises SchemaError with a JSON pointer to the
offending element.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import RnslError, SchemaError
from .l0 import L0Scalar, ProbabilitySpace, make_space
from .rn import ExponentialBound, L0Operator

_KEYS = (
    "space", "dim", "operators", "bound", "eta_grid", "eta_sequence", "time_grid",
    "k_ladder", "suites", "tolerances", "seed", "instances", "yosida_time", "out_dir",
)
_REQUIRED = ("space", "dim", "operators", "bound", "suites")
_FLOAT_MAX = sys.float_info.max

_DEFAULT_ETA_GRID = (2.0, 4.0, 8.0, 16.0)
_DEFAULT_ETA_SEQUENCE = (10.0, 20.0, 40.0, 80.0, 160.0)
_DEFAULT_TIME_GRID = tuple(np.linspace(0.0, 1.0, 21))
_DEFAULT_K_LADDER = (8, 64, 512)
# every tolerance a scenario may set under "tolerances", with its default
TOLERANCES = {
    "rn_axioms": 1e-12, "quadrature": 1e-8, "calculus_ftc": 1e-7, "laplace_bound": 1e-8,
    "lemma_3_4": 1e-6, "post_widder_constant": 1e-12, "post_widder_final": 1e-2,
    "uniqueness": 1e-6, "uniqueness_detection": 1e-4, "semigroup_law": 1e-9,
    "resolvent_route": 1e-6, "eq_5": 1e-8, "prop_4_3": 1e-6, "b4": 1e-9,
    "yosida_rate_spread": 3.0, "acp_value": 1e-6, "acp_oracle": 1e-6,
}


@dataclass(frozen=True)
class Scenario:
    space: ProbabilitySpace
    dim: int
    A: L0Operator
    C: L0Operator
    bound: ExponentialBound
    eta_grid: tuple
    eta_sequence: tuple
    time_grid: tuple
    k_ladder: tuple
    suites: tuple
    tolerances: dict
    seed: int
    instances: int
    yosida_time: float
    out_dir: str | None
    digest: str

    def tolerance(self, name: str) -> float:
        """The scenario's tolerance ``name``, or its default from TOLERANCES."""
        return float(self.tolerances.get(name, TOLERANCES[name]))


def canonical_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _child(ptr: str, key) -> str:
    """``ptr`` extended by an object key, escaped as RFC 6901 asks."""
    return f"{ptr}/{str(key).replace('~', '~0').replace('/', '~1')}"


def _object(value, ptr: str, allowed=None, required=()) -> dict:
    """A JSON object with every ``required`` key and no key outside ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", pointer=ptr or "/")
    for key in required:
        if key not in value:
            raise SchemaError(f"{key!r} is a required property", pointer=ptr or "/")
    for key in value:
        if allowed is not None and key not in allowed:
            raise SchemaError(f"unexpected property {key!r}", pointer=_child(ptr, key))
    return value


def _number(value, ptr: str, minimum=None, exclusive=False, integer=False):
    """A finite JSON number; with ``integer`` an integral one (2.0 counts), as an int."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"expected a number, got {type(value).__name__}", pointer=ptr)
    if not abs(value) <= _FLOAT_MAX:
        raise SchemaError(f"{value!r} is not a finite number", pointer=ptr)
    if integer and not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise SchemaError(f"{value!r} is not an integer", pointer=ptr)
    if minimum is not None and (value <= minimum if exclusive else value < minimum):
        relation = "above" if exclusive else "at least"
        raise SchemaError(f"{value!r} is not {relation} {minimum}", pointer=ptr)
    return int(value) if integer else float(value)


def _string(value, ptr: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", pointer=ptr)
    return value


def _items(value, ptr: str, read=_number, min_items=1) -> tuple:
    """A list of at least ``min_items`` entries, each read by ``read(entry, pointer)``."""
    if not isinstance(value, list) or len(value) < min_items:
        raise SchemaError(f"expected a list of at least {min_items} item(s)", pointer=ptr)
    return tuple(read(item, f"{ptr}/{i}") for i, item in enumerate(value))


def _numeric_array(value, depth: int) -> np.ndarray | None:
    """``value`` as a float array when it plainly holds what ``_array`` accepts, else None.

    One numpy pass: lists nested ``depth`` deep with no empty or ragged
    level, int or float entries (not bool), and every value below the
    largest double in size.  Anything else is left to the per-entry walk.
    """
    rows = [value]
    for level in range(depth):
        if any(type(row) is not list for row in rows):
            return None
        if level < depth - 1:
            rows = [item for row in rows for item in row]
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        return None
    if arr.ndim != depth or 0 in arr.shape:
        return None
    if not set(map(type, arr.ravel().tolist())) <= {int, float}:
        return None
    try:
        out = arr.astype(float)
    except OverflowError:
        return None
    return out if (np.abs(out) < _FLOAT_MAX).all() else None


def _array(value, ptr: str, depth: int) -> np.ndarray:
    """Non-empty lists of finite numbers nested ``depth`` deep, as one float array."""
    arr = _numeric_array(value, depth)
    if arr is not None:
        return arr
    read = _number
    for _ in range(depth - 1):
        read = partial(_items, read=read)
    rows = _items(value, ptr, read)
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        raise SchemaError("nested lists of unequal length", pointer=ptr) from None


def _convert(ptr: str, build, *args):
    """Call a constructor and report its rejection as a SchemaError at ``ptr``."""
    try:
        return build(*args)
    except (RnslError, ValueError) as exc:
        raise SchemaError(str(exc), pointer=ptr) from exc


def _operator(value, ptr: str, space: ProbabilitySpace, dim: int) -> L0Operator:
    """``{"matrix": d x d}`` shared by every atom, or ``{"matrices": n x d x d}``."""
    spec = _object(value, ptr, allowed=("matrix", "matrices"))
    if len(spec) != 1:
        raise SchemaError("expected exactly one of 'matrix' and 'matrices'", pointer=ptr)
    (key, entries), = spec.items()
    ptr = f"{ptr}/{key}"
    arr = _array(entries, ptr, depth=2 if key == "matrix" else 3)
    if arr.shape[-2:] != (dim, dim):
        raise SchemaError(f"blocks are {arr.shape[-2:]}, expected ({dim}, {dim})", pointer=ptr)
    return _convert(ptr, L0Operator.from_json, space, {key: arr})


def _scalar(value, ptr: str, space: ProbabilitySpace) -> L0Scalar:
    """One number shared by every atom, or a list of one number per atom."""
    values = _array(value, ptr, depth=1) if isinstance(value, list) else _number(value, ptr)
    return _convert(ptr, L0Scalar.of, space, values)


def _tolerances(value, ptr: str) -> dict:
    return {key: _number(v, _child(ptr, key)) for key, v in _object(value, ptr, TOLERANCES).items()}


def scenario_from_dict(doc: dict) -> Scenario:
    _object(doc, "", allowed=_KEYS, required=_REQUIRED)
    space_doc = _object(doc["space"], "/space", allowed=("probs",), required=("probs",))
    space = _convert("/space/probs", make_space, _array(space_doc["probs"], "/space/probs", 1))
    dim = _number(doc["dim"], "/dim", minimum=1, integer=True)
    ops = _object(doc["operators"], "/operators", allowed=("A", "C"), required=("A", "C"))
    bound = _object(doc["bound"], "/bound", allowed=("M", "xi"), required=("M", "xi"))
    big_m = _scalar(bound["M"], "/bound/M", space)
    xi = _scalar(bound["xi"], "/bound/xi", space)

    def optional(key, read, default):
        return read(doc[key], f"/{key}") if key in doc else default

    return Scenario(
        space=space,
        dim=dim,
        A=_operator(ops["A"], "/operators/A", space, dim),
        C=_operator(ops["C"], "/operators/C", space, dim),
        # the certificate rejects only a negative M
        bound=_convert("/bound/M", ExponentialBound, big_m, xi),
        eta_grid=optional("eta_grid", _items, _DEFAULT_ETA_GRID),
        eta_sequence=optional("eta_sequence", _items, _DEFAULT_ETA_SEQUENCE),
        time_grid=optional("time_grid", partial(_items, min_items=2), _DEFAULT_TIME_GRID),
        k_ladder=optional(
            "k_ladder",
            partial(_items, read=partial(_number, minimum=1, integer=True)),
            _DEFAULT_K_LADDER,
        ),
        suites=_items(doc["suites"], "/suites", _string),
        tolerances=optional("tolerances", _tolerances, {}),
        seed=optional("seed", partial(_number, minimum=0, integer=True), 0),
        instances=optional("instances", partial(_number, minimum=1, integer=True), 200),
        yosida_time=optional("yosida_time", partial(_number, minimum=0, exclusive=True), 1.0),
        out_dir=optional("out_dir", _string, None),
        digest=canonical_digest(doc),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", pointer="") from exc
    return scenario_from_dict(doc)
