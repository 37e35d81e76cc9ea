"""The CLI's JSON emitter against the route it replaced.

The reference below is the earlier renderer: tag each float with its
17-digit text in a sentinel string, run `json.dumps(sort_keys=True,
indent=2)`, then strip the tags.  `render_json` must give the same bytes
on any payload that route accepts, and a 2-D array must render as its
`tolist()` rows, with complex entries as {"im", "re"} objects.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qalt.cli import render_json, render_text

_FLOAT_MARK = "@@float@@"
_FLOAT_RE = re.compile(r'"@@float@@([^"]*)@@"')


def _tagged(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return f"{_FLOAT_MARK}{format(float(obj), '.17g')}@@"
    if isinstance(obj, str):
        assert _FLOAT_MARK not in obj
        return obj
    if obj is None:
        return None
    if isinstance(obj, dict):
        return {str(k): _tagged(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tagged(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_json(payload) -> str:
    text = json.dumps(_tagged(payload), sort_keys=True, indent=2)
    return _FLOAT_RE.sub(lambda m: m.group(1), text)


def rows_of(matrix: np.ndarray) -> list:
    """The layout a matrix must render as."""
    if np.iscomplexobj(matrix):
        return [[{"re": z.real, "im": z.imag} for z in row]
                for row in matrix.tolist()]
    return matrix.tolist()


SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324)

scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)

payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner,
                        max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_render_json_matches_the_sentinel_route(payload):
    assert render_json(payload) == reference_json(payload)


def test_render_json_edge_scalars():
    assert render_json([-0.0, 0.0, 5e-324, math.nan, -math.inf]) == (
        "[\n  -0,\n  0,\n  4.9406564584124654e-324,\n  nan,\n  -inf\n]")
    assert render_json({"é": "ü\n", 2: True}) == (
        '{\n  "2": true,\n  "\\u00e9": "\\u00fc\\n"\n}')
    assert render_json({}) == "{}" and render_json(()) == "[]"


MATRICES = [
    np.array([[1.5]]),
    np.array([[-0.0 + 2j]]),
    np.zeros((0, 3)),
    np.zeros((0, 3), dtype=complex),
    np.zeros((3, 0)),
    np.zeros((3, 0), dtype=complex),
    np.array([[1.0, -0.0, math.nan], [math.inf, 5e-324, 1 / 3]]),
    np.array([[1 - 0.0j, -2.5j], [math.nan + 1j / 3, 0j]]),
    np.array([[1, -2], [3, 4]]),
    np.array([[True, False]]),
]


@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: f"{m.dtype}{m.shape}")
def test_a_matrix_renders_as_its_rows(matrix):
    assert render_json(matrix) == reference_json(rows_of(matrix))
    nested = {"m": [matrix, {"k": matrix}], "x": 1.0}
    layout = {"m": [rows_of(matrix), {"k": rows_of(matrix)}], "x": 1.0}
    assert render_json(nested) == reference_json(layout)
    assert render_text(nested) == render_text(layout)


@settings(max_examples=200, deadline=None)
@given(arrays(st.sampled_from([np.float64, np.complex128]),
              st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_random_matrices_render_as_their_rows(matrix):
    assert render_json([matrix]) == reference_json([rows_of(matrix)])


def test_only_two_dimensional_arrays_render():
    with pytest.raises(TypeError):
        render_json({"v": np.zeros(3)})
    with pytest.raises(TypeError):
        render_json([1j])
