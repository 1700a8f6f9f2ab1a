"""Hypothesis properties of the size-only and one-walk paths of the wire format.

``message_size`` sums a payload's JSON length from its parts instead of
encoding it, and ``decode_message`` skips the tag-rebuilding walk for
blobs that cannot hold a tag.  Both are only correct if they agree with
the slow path everywhere, so these properties compare them with it:

* ``message_size(p) == len(encode_message(p))`` over nested payloads of
  every type the wire format takes (unicode and escapes, ``NaN``/±inf,
  big ints, enums, tuples, numpy scalars, ndarrays of any layout);
* a payload that cannot be encoded fails both ways with the same error;
* ``decode_message`` returns what the two-pass decode (kept below as
  the reference) returns, tag names inside strings included.
"""

import base64
import json
import math
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

import repro.util.serialization as serialization
from repro.util.errors import CommunicationError
from repro.util.serialization import decode_message, encode_message, message_size

TAGS = ("__ndarray__", "__npscalar__")


class Colour(IntEnum):
    RED = 1
    BIG = 2**70


class Mode(str, Enum):
    FAST = "fast"
    QUOTED = 'say "é"'


def two_pass_decode(blob: bytes):
    """The decode every blob took before the one-walk path: parse, then
    walk the whole result rebuilding tagged arrays and scalars."""

    def walk(value):
        if isinstance(value, dict):
            if TAGS[0] in value:
                raw = base64.b64decode(value[TAGS[0]])
                arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
                return arr.reshape(value["shape"]).copy()
            if TAGS[1] in value:
                return np.dtype(value["dtype"]).type(value[TAGS[1]])
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(json.loads(blob.decode("utf-8")))


def same(a, b) -> bool:
    """Equality that also holds for NaN and compares array layouts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, np.generic):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


# -- strategies --------------------------------------------------------------

tricky_text = st.sampled_from(
    [
        "",
        '"',
        "\\",
        "\n\t\r\x00\x1f\x7f",
        "  ",
        "\ud800",  # a lone surrogate travels as its escape
        "中文😀",
        "__ndarray__",
        "__npscalar__",
        '{"__ndarray__":"AAAA"}',
        "\\u005f_ndarray__",
    ]
)
text = st.one_of(st.text(max_size=12), tricky_text)
keys = text.filter(lambda k: k not in TAGS)

SCALAR_DTYPES = ["int8", "int16", "int64", "uint8", "uint64", "float16",
                 "float32", "float64", "bool"]
numpy_scalars = st.sampled_from(SCALAR_DTYPES).flatmap(
    lambda name: from_dtype(np.dtype(name)).map(np.dtype(name).type)
)

ARRAY_DTYPES = ["<f8", "<f4", ">i4", "<i2", "|u1", "|b1", "<c16", "<U3"]


@st.composite
def ndarrays(draw):
    arr = draw(
        arrays(
            st.sampled_from(ARRAY_DTYPES),
            array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        )
    )
    layout = draw(st.sampled_from(["as-is", "strided", "transposed"]))
    if layout == "strided" and arr.ndim:
        arr = arr[::2]
    elif layout == "transposed":
        arr = arr.T
    return arr


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    text,
    st.sampled_from(list(Colour) + list(Mode)),
    numpy_scalars,
    ndarrays(),
)

payloads = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(keys, kids, max_size=4),
    ),
    max_leaves=16,
)


# -- exact sizes -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_size_equals_encoded_length(payload):
    assert message_size(payload) == len(encode_message(payload))


@pytest.mark.parametrize(
    "payload",
    [
        {"x": np.float64(3.5)},
        np.array(7),
        {"zero-d": np.array(3.5), "bool": np.array(True)},
        np.zeros((0, 3)),
        np.arange(12, dtype=">i4").reshape(3, 4)[:, ::3],
        {"s": "é \"\\", "n": [math.nan, math.inf, -math.inf]},
        [10**300, -(10**300), True, False, None],
        (Colour.BIG, Mode.QUOTED, ()),
        {},
        [],
    ],
)
def test_size_equals_encoded_length_on_edge_cases(payload):
    assert message_size(payload) == len(encode_message(payload))


@settings(max_examples=200, deadline=None)
@given(ndarrays())
def test_arrays_round_trip_with_their_shape(array):
    """Dtype, shape (``()`` for a 0-d array) and bytes all survive, and
    the size is the encoded length."""
    decoded = decode_message(encode_message({"a": array}))["a"]
    assert decoded.dtype == array.dtype and decoded.shape == array.shape
    assert decoded.tobytes() == np.ascontiguousarray(array).tobytes()
    assert message_size({"a": array}) == len(encode_message({"a": array}))


bad_keys = st.one_of(
    st.integers(), st.none(), st.floats(allow_nan=False), st.booleans()
)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(bad_keys, leaves, min_size=1, max_size=3),
    st.lists(st.booleans(), max_size=3),
)
def test_non_str_keys_fail_the_same_way_both_ways(bad, path):
    payload = bad
    for as_list in path:  # bury the bad dict at some depth
        payload = [payload] if as_list else {"k": payload}
    with pytest.raises(CommunicationError) as encoded:
        encode_message(payload)
    with pytest.raises(CommunicationError) as sized:
        message_size(payload)
    assert str(sized.value) == str(encoded.value)


@pytest.mark.parametrize(
    "payload", [{"x": object()}, [b"bytes"], {"x": {1, 2}}, 1j]
)
def test_unencodable_values_fail_the_same_way_both_ways(payload):
    with pytest.raises(CommunicationError) as encoded:
        encode_message(payload)
    with pytest.raises(CommunicationError) as sized:
        message_size(payload)
    assert str(sized.value) == str(encoded.value)


# -- one-walk decode ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_decode_equals_the_two_pass_reference(payload):
    blob = encode_message(payload)
    assert same(decode_message(blob), two_pass_decode(blob))


def test_tag_free_blob_is_not_walked_again(monkeypatch):
    def walk(value):
        raise AssertionError("second walk of a tag-free blob")

    monkeypatch.setattr(serialization, "_decode_value", walk)
    payload = {"a": [1, 2.5, None, True], "b": {"c": "plain ascii"}}
    assert decode_message(encode_message(payload)) == payload


@pytest.mark.parametrize(
    "payload",
    [{"x": np.zeros(2)}, {"x": np.int8(3)}, {"x": "é"}, {"x": "__ndarray__"}],
)
def test_blob_that_may_hold_a_tag_is_walked(monkeypatch, payload):
    walked = []
    real = serialization._decode_value

    def walk(value):
        walked.append(value)
        return real(value)

    monkeypatch.setattr(serialization, "_decode_value", walk)
    blob = encode_message(payload)
    assert same(decode_message(blob), two_pass_decode(blob))
    assert walked
