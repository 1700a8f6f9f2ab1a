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


#: Exact types JSON takes as they are.  Subclasses (``np.float64`` is a
#: ``float``, enums are ``int``/``str``) are not in the set and take the
#: ``isinstance`` chain below.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode_dict(value: dict) -> dict:
    for key in value:
        if not isinstance(key, str):
            raise CommunicationError(
                f"message keys must be strings, got {type(key).__name__}"
            )
    return {k: _encode_value(v) for k, v in value.items()}


def _encode_value(value: Any) -> Any:
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        return _encode_dict(value)
    if kind is list:
        return [_encode_value(v) for v in value]
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            _ARRAY_TAG: base64.b64encode(contiguous.tobytes()).decode("ascii"),
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
        }
    if isinstance(value, np.generic):
        return {_SCALAR_TAG: value.item(), "dtype": value.dtype.str}
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
    return json.dumps(_encode_value(payload), separators=(",", ":")).encode("utf-8")


def decode_message(blob: bytes) -> Any:
    """Inverse of :func:`encode_message`.

    Raises
    ------
    CommunicationError
        If the blob is not valid wire format.
    """
    try:
        return _decode_value(json.loads(blob.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CommunicationError(f"malformed message: {exc}") from exc


def message_size(payload: Any) -> int:
    """Return the wire size of *payload* in bytes (used by bandwidth models)."""
    return len(encode_message(payload))
