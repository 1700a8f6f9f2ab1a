"""Message serialization for the overlay network.

Copernicus servers exchange request/response messages over SSL; here
the wire format is a compact JSON document in which numpy arrays are
encoded as base64 buffers tagged with dtype and shape (the mpi4py
buffer-protocol idea: ship raw bytes, not pickled objects — fast,
versionable and safe to receive from untrusted peers).

Only plain data survives a round trip: dict/list/str/int/float/bool/
``None``, numpy arrays and numpy scalars.  Arbitrary objects are
rejected rather than pickled, which keeps the protocol auditable.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.util.errors import CommunicationError

_ARRAY_TAG = "__ndarray__"
_SCALAR_TAG = "__npscalar__"

#: Only a blob holding a tag name, or a ``\u`` escape that could spell
#: one, can hold a tagged value: every other blob decodes in one parse.
_TAG_MARKERS = (_ARRAY_TAG.encode("ascii"), _SCALAR_TAG.encode("ascii"), b"\\u")


#: Exact types JSON takes as they are.  Subclasses (``np.float64`` is a
#: ``float``, enums are ``int``/``str``) are not in the set and take the
#: ``isinstance`` chain below.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})

#: What a numpy scalar's ``item()`` may be to travel as JSON (a complex,
#: ``bytes`` or ``datetime`` item has no JSON form).
_SCALAR_ITEMS = frozenset({str, int, float, bool})

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_dict(value: dict) -> dict:
    for key in value:
        if not isinstance(key, str):
            raise CommunicationError(
                f"message keys must be strings, got {type(key).__name__}"
            )
    return {k: _encode_value(v) for k, v in value.items()}


def _array_shape(value: np.ndarray) -> tuple:
    """The shape an array travels with (its own: a 0-d array's is
    ``[]``, decoded back to 0-d); an object array, whose buffer holds
    pointers, is refused."""
    if value.dtype.hasobject:
        raise CommunicationError(
            "cannot serialize an object-dtype array (its buffer holds pointers)"
        )
    return value.shape


def _scalar_item(value: np.generic) -> Any:
    item = value.item()
    if type(item) not in _SCALAR_ITEMS:
        raise CommunicationError(
            f"cannot serialize numpy scalar of dtype {value.dtype}"
        )
    return item


def _encode_value(value: Any) -> Any:
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        return _encode_dict(value)
    if kind is list:
        return [_encode_value(v) for v in value]
    if isinstance(value, np.ndarray):
        shape = _array_shape(value)
        contiguous = np.ascontiguousarray(value)
        return {
            _ARRAY_TAG: base64.b64encode(contiguous.tobytes()).decode("ascii"),
            "dtype": contiguous.dtype.str,
            "shape": list(shape),
        }
    if isinstance(value, np.generic):
        return {_SCALAR_TAG: _scalar_item(value), "dtype": value.dtype.str}
    if isinstance(value, dict):
        return _encode_dict(value)
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CommunicationError(
        f"cannot serialize object of type {type(value).__name__}"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if _ARRAY_TAG in value:
            raw = base64.b64decode(value[_ARRAY_TAG])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(value["shape"]).copy()
        if _SCALAR_TAG in value:
            return np.dtype(value["dtype"]).type(value[_SCALAR_TAG])
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_message(payload: Any) -> bytes:
    """Serialize *payload* to bytes for transmission.

    Raises
    ------
    CommunicationError
        If the payload contains non-data objects.
    """
    return _ENCODER.encode(_encode_value(payload)).encode("utf-8")


def decode_message(blob: bytes) -> Any:
    """Inverse of :func:`encode_message`.

    A blob that cannot hold a tagged array or scalar is returned as
    ``json.loads`` parsed it; only the others are walked again.

    Raises
    ------
    CommunicationError
        If the blob is not valid wire format.
    """
    try:
        value = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CommunicationError(f"malformed message: {exc}") from exc
    if not any(marker in blob for marker in _TAG_MARKERS):
        return value
    try:
        return _decode_value(value)
    except (ValueError, TypeError, KeyError) as exc:
        raise CommunicationError(f"malformed tagged value: {exc!r}") from exc


# -- exact wire sizes without encoding ---------------------------------------

_escaped = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")

#: ``{"__ndarray__":"","dtype":,"shape":[]}`` and
#: ``{"__npscalar__":,"dtype":}``: a tagged value's fixed bytes.
_ARRAY_FRAME = len(_ENCODER.encode({_ARRAY_TAG: "", "dtype": 0, "shape": []})) - 1
_SCALAR_FRAME = len(_ENCODER.encode({_SCALAR_TAG: 0, "dtype": 0})) - 2


def _float_size(value: float) -> int:
    if value != value:
        return 3  # NaN
    if value == _INF:
        return 8  # Infinity
    if value == -_INF:
        return 9  # -Infinity
    return len(_float_repr(value))


def _size(value: Any) -> int:
    """``len(encode_message(value))``, summed from the parts JSON joins."""
    kind = type(value)
    if kind is dict:
        return _dict_size(value)
    if kind is list or kind is tuple:
        return _list_size(value)
    if kind is str:
        return len(_escaped(value))
    if kind is int:
        return len(_int_repr(value))
    if kind is float:
        return _float_size(value)
    if kind is bool:
        return 4 if value else 5
    if value is None:
        return 4
    if isinstance(value, np.ndarray):
        shape = _array_shape(value)
        return (
            _ARRAY_FRAME
            + 4 * ((value.nbytes + 2) // 3)  # base64
            + len(_escaped(value.dtype.str))
            + sum(len(_int_repr(n)) for n in shape)
            + max(len(shape) - 1, 0)  # commas
        )
    if isinstance(value, np.generic):
        return (
            _SCALAR_FRAME
            + _size(_scalar_item(value))
            + len(_escaped(value.dtype.str))
        )
    # subclasses (enums, dict/str subclasses) and rejects: JSON is
    # compositional, so the subtree's own encoding keeps the sum exact
    return len(encode_message(value))


# The container walks size their commonest members (strings, ints,
# bools, nested dicts) in line: most messages are small dicts of those.


def _dict_size(value: dict) -> int:
    total = 2 * len(value) + 1 if value else 2  # braces, colons, commas
    for key, item in value.items():
        if type(key) is not str:
            return len(encode_message(value))  # raises unless a str subclass
        total += len(_escaped(key))
        kind = type(item)
        if kind is str:
            total += len(_escaped(item))
        elif kind is int:
            total += len(_int_repr(item))
        elif kind is bool:
            total += 4 if item else 5
        elif kind is dict:
            total += _dict_size(item)
        else:
            total += _size(item)
    return total


def _list_size(value: list) -> int:
    total = len(value) + 1 if value else 2  # brackets, commas
    for item in value:
        kind = type(item)
        if kind is str:
            total += len(_escaped(item))
        elif kind is dict:
            total += _dict_size(item)
        else:
            total += _size(item)
    return total


def message_size(payload: Any) -> int:
    """Return the wire size of *payload* in bytes (used by bandwidth models).

    Equal to ``len(encode_message(payload))`` without building the
    bytes: strings are sized by their escaped form, numbers by their
    reprs, arrays by their buffer length, containers by their members.

    Raises
    ------
    CommunicationError
        If the payload contains non-data objects.
    """
    return _size(payload)
