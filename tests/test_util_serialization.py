"""Tests for the wire format, including hypothesis round-trip properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import CommunicationError
from repro.util.serialization import decode_message, encode_message, message_size


def test_round_trip_scalars():
    payload = {"a": 1, "b": 2.5, "c": "hello", "d": True, "e": None}
    assert decode_message(encode_message(payload)) == payload


def test_round_trip_nested():
    payload = {"outer": {"inner": [1, [2, {"deep": "x"}]]}}
    assert decode_message(encode_message(payload)) == payload


def test_round_trip_float_array():
    arr = np.linspace(0, 1, 17).reshape(1, 17)
    out = decode_message(encode_message({"x": arr}))["x"]
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == arr.dtype


def test_round_trip_3d_array():
    arr = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    out = decode_message(encode_message(arr))
    np.testing.assert_array_equal(out, arr)
    assert out.shape == (2, 3, 4)


def test_round_trip_noncontiguous_array():
    arr = np.arange(20, dtype=np.float64).reshape(4, 5).T
    out = decode_message(encode_message(arr))
    np.testing.assert_array_equal(out, arr)


def test_round_trip_numpy_scalar():
    out = decode_message(encode_message(np.float32(1.5)))
    assert out == np.float32(1.5)
    assert out.dtype == np.float32


def test_tuple_becomes_list():
    assert decode_message(encode_message((1, 2))) == [1, 2]


def test_decoded_array_is_writable():
    out = decode_message(encode_message(np.zeros(3)))
    out[0] = 1.0  # np.frombuffer gives read-only views; we require a copy
    assert out[0] == 1.0


def test_rejects_arbitrary_objects():
    class Foo:
        pass

    with pytest.raises(CommunicationError):
        encode_message({"bad": Foo()})


def test_rejects_non_string_keys():
    with pytest.raises(CommunicationError):
        encode_message({1: "x"})


def test_malformed_blob_raises():
    with pytest.raises(CommunicationError):
        decode_message(b"\xff\xfenot json")


def test_message_size_positive():
    assert message_size({"x": 1}) > 0


def test_message_size_grows_with_payload():
    small = message_size({"x": np.zeros(10)})
    big = message_size({"x": np.zeros(1000)})
    assert big > small


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)


@settings(max_examples=50)
@given(
    st.recursive(
        _json_scalars,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.dictionaries(st.text(max_size=8), kids, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_round_trip_property_json_like(payload):
    assert decode_message(encode_message(payload)) == payload


@settings(max_examples=30)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=64
    ),
    st.sampled_from([np.float64, np.float32, np.int32, np.int64]),
)
def test_round_trip_property_arrays(values, dtype):
    arr = np.asarray(values, dtype=np.float64)
    if np.issubdtype(dtype, np.integer):
        # stay inside both the dtype's range and the exactly-
        # representable float64 integers
        info = np.iinfo(dtype)
        lo = max(float(info.min), -(2.0**53))
        hi = min(float(info.max) / 2.0, 2.0**53)
        arr = np.clip(arr, lo, hi)
    elif dtype == np.float32:
        finfo = np.finfo(np.float32)
        arr = np.clip(arr, finfo.min, finfo.max)
    arr = arr.astype(dtype)
    out = decode_message(encode_message({"a": arr}))["a"]
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == arr.dtype


# -- typed errors at the boundary ------------------------------------------


def test_object_dtype_array_is_rejected_both_ways():
    # its buffer holds pointers, which mean nothing to a peer
    payload = {"x": np.array(["a", None], dtype=object)}
    with pytest.raises(CommunicationError, match="object-dtype"):
        encode_message(payload)
    with pytest.raises(CommunicationError, match="object-dtype"):
        message_size(payload)


@pytest.mark.parametrize(
    "scalar", [np.complex128(1 + 2j), np.complex64(1j), np.bytes_(b"ab")]
)
def test_numpy_scalar_without_json_form_is_rejected_both_ways(scalar):
    with pytest.raises(CommunicationError, match="numpy scalar"):
        encode_message({"x": scalar})
    with pytest.raises(CommunicationError, match="numpy scalar"):
        message_size({"x": scalar})


def test_complex_array_still_round_trips():
    arr = np.array([1 + 2j, -3j], dtype=np.complex128)
    np.testing.assert_array_equal(decode_message(encode_message(arr)), arr)


@pytest.mark.parametrize(
    "blob",
    [
        # an object dtype cannot be rebuilt from bytes (ValueError)
        b'{"x":{"__ndarray__":"AAAAAAAAAAA=","dtype":"|O","shape":[1]}}',
        # bad base64 (binascii.Error, a ValueError)
        b'{"x":{"__ndarray__":"A","dtype":"<f8","shape":[1]}}',
        # buffer and shape disagree (ValueError)
        b'{"x":{"__ndarray__":"AAAAAAAAAAA=","dtype":"<f8","shape":[2]}}',
        # no dtype (KeyError)
        b'{"x":{"__ndarray__":"AAAAAAAAAAA=","shape":[1]}}',
        # a shape that is not a list of ints (TypeError)
        b'{"x":{"__ndarray__":"AAAAAAAAAAA=","dtype":"<f8","shape":"a"}}',
        # an unknown dtype name (TypeError)
        b'{"x":{"__npscalar__":1,"dtype":"no-such-type"}}',
        # a scalar its dtype cannot hold (ValueError)
        b'{"x":{"__npscalar__":"abc","dtype":"<f8"}}',
    ],
)
def test_errors_while_rebuilding_a_tag_are_typed(blob):
    with pytest.raises(CommunicationError, match="malformed tagged value"):
        decode_message(blob)
