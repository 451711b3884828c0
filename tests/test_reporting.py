"""report.json and meta.json writer: the bytes of json.dumps(sort_keys=True, indent=2)."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnsl.reporting import write_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# every character, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e22, 0.1]
)
INTS = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
SCALARS = FLOATS | INTS | TEXT | st.booleans() | st.none()
PAYLOADS = st.recursive(
    SCALARS | st.lists(FLOATS) | st.lists(INTS),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)


def written(payload) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(str(path), payload)
        return path.read_bytes()


def dumped(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS | st.dictionaries(TEXT, PAYLOADS, max_size=6))
def test_bytes_are_those_of_json_dumps(payload):
    assert written(payload) == dumped(payload)


@pytest.mark.parametrize("name", ["reference", "post_widder", "bad_certificate"])
def test_goldens_rewrite_byte_for_byte(name):
    blob = (GOLDEN / name / "report.json").read_bytes()
    payload = json.loads(blob)
    assert written(payload) == dumped(payload) == blob


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}},
    {"a": [1.0, b"bytes"]},
    {1: "int key"},
    {"a": complex(1.0, 2.0)},
])
def test_other_types_raise_type_error(payload):
    with pytest.raises(TypeError):
        written(payload)
