"""Scenario reading: field rules, pointers, and a JSON Schema oracle.

The package reads a scenario with small hand-written readers.  The JSON Schema
below is the format's earlier declarative description; the differential test
mutates valid documents and checks that the readers reject exactly what the
schema, or the conversion rules that followed it, reject.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from rnsl import RnslError, SchemaError, load_scenario, make_space, scenario_from_dict
from rnsl.cli import main as cli_main

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"

_NUMBER_LIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_MATRIX = {"type": "array", "items": _NUMBER_LIST, "minItems": 1}
_OPERATOR = {
    "type": "object",
    "properties": {
        "matrix": _MATRIX,
        "matrices": {"type": "array", "items": _MATRIX, "minItems": 1},
    },
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
}
_SCALAR_OR_LIST = {"anyOf": [{"type": "number"}, _NUMBER_LIST]}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "space": {
            "type": "object",
            "properties": {"probs": _NUMBER_LIST},
            "required": ["probs"],
            "additionalProperties": False,
        },
        "dim": {"type": "integer", "minimum": 1},
        "operators": {
            "type": "object",
            "properties": {"A": _OPERATOR, "C": _OPERATOR},
            "required": ["A", "C"],
            "additionalProperties": False,
        },
        "bound": {
            "type": "object",
            "properties": {"M": _SCALAR_OR_LIST, "xi": _SCALAR_OR_LIST},
            "required": ["M", "xi"],
            "additionalProperties": False,
        },
        "eta_grid": _NUMBER_LIST,
        "eta_sequence": _NUMBER_LIST,
        "time_grid": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "k_ladder": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "suites": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "seed": {"type": "integer", "minimum": 0},
        "instances": {"type": "integer", "minimum": 1},
        "yosida_time": {"type": "number", "exclusiveMinimum": 0},
        "out_dir": {"type": "string"},
    },
    "required": ["space", "dim", "operators", "bound", "suites"],
    "additionalProperties": False,
}
VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)


def passing_doc():
    return {
        "space": {"probs": [1.0]},
        "dim": 1,
        "operators": {"A": {"matrix": [[-1.0]]}, "C": {"matrix": [[1.0]]}},
        "bound": {"M": 1.0, "xi": -1.0},
        "suites": ["semigroup_law"],
        "seed": 3,
        "instances": 12,
    }


def per_atom_doc():
    """Three atoms, d = 2, with per-atom matrices and a per-atom certificate."""
    return {
        "space": {"probs": [0.25, 0.25, 0.5]},
        "dim": 2,
        "operators": {
            "A": {"matrices": [
                [[-1.0, 0.5], [0.0, -2.0]], [[-0.5, 0.0], [0.0, -1.0]], [[-3, 1], [1, -3]],
            ]},
            "C": {"matrices": [
                [[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]],
            ]},
        },
        "bound": {"M": [1.5, 2.0, 1.0], "xi": [-0.5, -0.5, -2.0]},
        "eta_grid": [1.0, 2.0],
        "time_grid": [0.0, 1.0],
        "k_ladder": [8, 64],
        "suites": ["semigroup_law", "eq_5"],
        "tolerances": {"b4": 1e-9},
        "yosida_time": 0.5,
        "out_dir": "out",
    }


def base_docs():
    return {
        "reference": json.loads(REFERENCE.read_text(encoding="utf-8")),
        "passing": passing_doc(),
        "per_atom": per_atom_doc(),
    }


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def reference_rejects(doc) -> bool:
    """The schema, then the conversion rules the schema could not express."""
    if not VALIDATOR.is_valid(doc):
        return True
    if not all(math.isfinite(v) for v in _numbers(doc)):
        return True
    try:
        space = make_space(doc["space"]["probs"])
    except RnslError:
        return True
    n, dim = space.n_atoms, int(doc["dim"])
    for spec in doc["operators"].values():
        key, shape = ("matrix", (dim, dim)) if "matrix" in spec else ("matrices", (n, dim, dim))
        try:
            if np.asarray(spec[key], dtype=float).shape != shape:
                return True
        except ValueError:  # ragged nested lists
            return True
    per_atom = {k: v if isinstance(v, list) else [v] * n for k, v in doc["bound"].items()}
    return len(per_atom["M"]) != n or len(per_atom["xi"]) != n or min(per_atom["M"]) < 0


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


REPLACEMENTS = (
    True, False, None, "text", 0, 1, 2, -1, 2.0, 2.5, -0.5, 1e300,
    float("nan"), float("inf"), [], {}, [1.0], [[1.0]], [[1.0, 2.0], [3.0]],
    [True], ["a"], {"matrix": [[1.0]]}, {"matrices": [[[1.0]]]},
)
NEW_KEYS = ("matrix", "matrices", "M", "xi", "probs", "A", "C", "out_dir", "b4", "zzz")
# the nodes each mutation applies to; the root can only gain a key
APPLIES = {
    "delete": lambda path, node: bool(path),
    "replace": lambda path, node: bool(path),
    "add": lambda path, node: isinstance(node, dict),
    "renumber": lambda path, node: type(node) in (int, float) and math.isfinite(node),
    "ragged": lambda path, node: isinstance(node, list) and bool(node),
}


@st.composite
def mutated_docs(draw):
    """A base document after one or two deletions, additions, swaps or raggings."""
    doc = copy.deepcopy(draw(st.sampled_from(list(base_docs().values()))))
    replacements = st.sampled_from(REPLACEMENTS).map(copy.deepcopy)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(APPLIES)))
        nodes = [(p, n) for p, n in _nodes(doc) if APPLIES[kind](p, n)]
        # each depth is equally likely, so matrix entries do not drown out top-level fields
        depth = draw(st.sampled_from(sorted({len(p) for p, _ in nodes})))
        path, node = draw(st.sampled_from([(p, n) for p, n in nodes if len(p) == depth]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "replace":
            parent[path[-1]] = draw(replacements)
        elif kind == "add":
            node[draw(st.sampled_from(NEW_KEYS))] = draw(replacements)
        elif kind == "renumber":
            swaps = (float(round(node)), node + 0.5, -node, 0, float("nan"), float("inf"))
            parent[path[-1]] = draw(st.sampled_from(swaps))
        else:
            node.append(copy.deepcopy(node[0]) + [1.0] if isinstance(node[0], list) else [1.0])
    return doc


def assert_agrees_with_reference(doc):
    try:
        scenario_from_dict(doc)
        rejected = False
    except SchemaError:
        rejected = True
    assert rejected == reference_rejects(doc)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs())
def test_readers_reject_exactly_what_the_reference_rejects(doc):
    assert_agrees_with_reference(doc)


EDGES = (
    ("dim", 2.0), ("dim", 2.5), ("dim", True), ("dim", 0), ("seed", -1), ("seed", 1e300),
    ("instances", 0), ("instances", 1.0), ("yosida_time", 0), ("yosida_time", 1e-300),
    ("time_grid", [0.0]), ("time_grid", [0, 1]), ("k_ladder", [1, 0.5]), ("k_ladder", [False]),
    ("eta_grid", []), ("eta_sequence", [-1]), ("suites", [1]), ("tolerances", {"b4": "x"}),
    ("tolerances", {}), ("out_dir", None), ("out_dir", ""),
)


@pytest.mark.parametrize("key, value", EDGES, ids=[f"{k}={v!r}" for k, v in EDGES])
def test_field_edges_agree_with_the_reference(key, value):
    assert_agrees_with_reference({**per_atom_doc(), key: value})


def test_base_documents_are_accepted():
    for doc in base_docs().values():
        assert not reference_rejects(doc)
        scenario_from_dict(doc)


class TestFieldRules:
    def test_integral_float_is_an_integer_and_a_bool_is_not(self):
        doc = per_atom_doc()
        doc.update(dim=2.0, seed=4.0, k_ladder=[8.0])
        scn = scenario_from_dict(doc)
        assert (scn.dim, scn.seed, scn.k_ladder) == (2, 4, (8,))
        assert all(type(v) is int for v in (scn.dim, scn.seed, *scn.k_ladder))
        for key, value in (("dim", True), ("seed", 2.5), ("instances", False)):
            with pytest.raises(SchemaError) as exc:
                scenario_from_dict({**per_atom_doc(), key: value})
            assert exc.value.pointer == f"/{key}"

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError) as exc:
            load_scenario(str(path))
        assert exc.value.pointer == "/"

    def test_unexpected_key_pointer_is_escaped(self):
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict({**per_atom_doc(), "x/~y": 1})
        assert exc.value.pointer == "/x~1~0y"

    def test_out_dir_null_is_rejected(self):
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict({**passing_doc(), "out_dir": None})
        assert exc.value.pointer == "/out_dir"

    def test_ragged_matrices_raise_schema_error(self):
        doc = per_atom_doc()
        doc["operators"]["A"]["matrices"][1] = [[1.0], [0.0, 1.0]]
        with pytest.raises(SchemaError) as exc:
            scenario_from_dict(doc)
        assert exc.value.pointer == "/operators/A/matrices"

    def test_operator_shape_and_certificate_pointers(self):
        cases = (
            (("operators", "C"), {"matrix": [[1.0]]}, "/operators/C/matrix"),
            (("operators", "C"), {"matrices": [[[1.0, 0.0], [0.0, 1.0]]]}, "/operators/C/matrices"),
            (("bound", "M"), [1.0, 2.0], "/bound/M"),
            (("bound", "M"), -1.0, "/bound/M"),
            (("space", "probs"), [0.5, 0.6, 0.2], "/space/probs"),
        )
        for (outer, inner), value, pointer in cases:
            doc = per_atom_doc()
            doc[outer][inner] = value
            with pytest.raises(SchemaError) as exc:
                scenario_from_dict(doc)
            assert exc.value.pointer == pointer

    def test_per_atom_fields_convert(self):
        scn = scenario_from_dict(per_atom_doc())
        assert scn.A.matrices.shape == (3, 2, 2)
        assert scn.bound.M.values.tolist() == [1.5, 2.0, 1.0]
        assert scn.time_grid == (0.0, 1.0)
        assert scn.tolerances == {"b4": 1e-9}
        assert scn.out_dir == "out"


NON_FINITE = (
    (lambda d: d.update(tolerances={"b4": float("nan")}), "/tolerances/b4"),
    (lambda d: d.update(eta_grid=[float("nan")]), "/eta_grid/0"),
    (lambda d: d.update(time_grid=[0.0, float("nan"), 1.0]), "/time_grid/1"),
    (lambda d: d.update(yosida_time=float("inf")), "/yosida_time"),
    (lambda d: d["bound"].update(xi=float("-inf")), "/bound/xi"),
    (
        lambda d: d["operators"]["A"]["matrix"][1].__setitem__(0, float("nan")),
        "/operators/A/matrix/1/0",
    ),
    (lambda d: d.update(tolerances={"a/b~c": float("nan")}), "/tolerances/a~1b~0c"),
)


@pytest.mark.parametrize("mutate, pointer", NON_FINITE, ids=[p for _, p in NON_FINITE])
def test_non_finite_number_is_rejected_at_its_pointer(mutate, pointer):
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict(doc)
    assert exc.value.pointer == pointer


@pytest.mark.parametrize("mutate, pointer", NON_FINITE[:4], ids=[p for _, p in NON_FINITE[:4]])
def test_cli_exits_2_on_a_non_finite_field(tmp_path, capsys, mutate, pointer):
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and json.load reads them
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert pointer in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
