"""The encoder's exact-type fast path and the registry's bound handles
change no byte.

Both are shortcuts in front of code that still exists: the encoder
tests ``type(v)`` before the ``isinstance`` chain, the registry
remembers the child instrument a helper call resolved.  The chains
they shortcut are kept here as references — the encoder's verbatim, the
registry's three helpers as a subclass — and the outputs compared byte
for byte: Hypothesis payloads for the encoder, the canned ``repro obs
metrics`` scenario for the exporters.
"""

import base64
import enum
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    to_json_lines,
    to_prometheus_text,
)
from repro.testing.scenarios import run_swarm_under_faults
from repro.util.errors import CommunicationError, ConfigurationError
from repro.util.serialization import decode_message, encode_message

# -- encoder -----------------------------------------------------------------


def reference_encode_value(value):
    """``_encode_value`` as it was before the fast path (except that an
    array travels with its own shape, ``[]`` for a 0-d one)."""
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            "__ndarray__": base64.b64encode(contiguous.tobytes()).decode("ascii"),
            "dtype": contiguous.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, np.generic):
        return {"__npscalar__": value.item(), "dtype": value.dtype.str}
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CommunicationError(
                    f"message keys must be strings, got {type(key).__name__}"
                )
        return {k: reference_encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encode_value(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CommunicationError(
        f"cannot serialize object of type {type(value).__name__}"
    )


def reference_encode_message(payload) -> bytes:
    return json.dumps(
        reference_encode_value(payload), separators=(",", ":")
    ).encode("utf-8")


class Phase(enum.IntEnum):
    QUEUED = 1
    DONE = 2


class Kind(str, enum.Enum):
    RESULT = "result"


class Tagged(str):
    """A plain ``str`` subclass."""


class Celsius(float):
    """A plain ``float`` subclass."""


class Listing(list):
    """A plain ``list`` subclass."""


plain_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)

subclass_scalars = st.one_of(
    st.sampled_from(list(Phase)),
    st.just(Kind.RESULT),
    st.text(max_size=4).map(Tagged),
    st.floats(allow_nan=False).map(Celsius),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
)

arrays = st.one_of(
    st.floats(allow_nan=False).map(np.array),  # 0-d
    st.sampled_from(
        [
            np.zeros((0,)),
            np.zeros((0, 3), dtype=np.float32),
            np.arange(6).reshape(2, 3),
            np.arange(12.0).reshape(3, 4)[:, ::2],  # not contiguous
            np.array([True, False]),
        ]
    ),
)

keys = st.text(max_size=6) | st.text(max_size=3).map(Tagged)

payloads = st.recursive(
    plain_scalars | subclass_scalars | arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(Listing),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=3).map(OrderedDict),
    ),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(payloads)
def test_fast_path_encodes_the_same_bytes(payload):
    blob = encode_message(payload)
    assert blob == reference_encode_message(payload)
    decode_message(blob)  # and it is still valid wire format


def test_numpy_float_keeps_its_scalar_tag():
    # np.float64 subclasses float: the fast path must not claim it
    assert encode_message({"x": np.float64(1.5)}) == (
        b'{"x":{"__npscalar__":1.5,"dtype":"<f8"}}'
    )
    assert encode_message([True, Phase.DONE, (1, 2)]) == b"[true,2,[1,2]]"


unencodable = st.one_of(
    st.dictionaries(st.integers() | st.none(), plain_scalars, min_size=1),
    st.just(object()),
    st.binary(max_size=4),
    st.sets(st.integers(), max_size=3),
    st.complex_numbers(),
)


@settings(max_examples=200, deadline=None)
@given(
    bad=unencodable,
    wrap=st.sampled_from(
        [
            lambda x: x,
            lambda x: [1, x],
            lambda x: {"k": {"deep": (x,)}},
            lambda x: OrderedDict(a=[x]),
        ]
    ),
)
def test_non_data_is_still_refused(bad, wrap):
    with pytest.raises(CommunicationError) as new:
        encode_message(wrap(bad))
    with pytest.raises(CommunicationError) as old:
        reference_encode_message(wrap(bad))
    assert str(new.value) == str(old.value)


# -- metric handles ----------------------------------------------------------


class ReferenceRegistry(MetricsRegistry):
    """The three helpers as they were: every call re-resolves its family
    and its label set."""

    def inc(self, name, amount=1.0, help="", **labels):
        self.counter(name, help=help, labelnames=sorted(labels)).labels(
            **labels
        ).inc(amount)

    def set_gauge(self, name, value, help="", **labels):
        self.gauge(name, help=help, labelnames=sorted(labels)).labels(
            **labels
        ).set(value)

    def observe(self, name, value, help="", **labels):
        self.histogram(name, help=help, labelnames=sorted(labels)).labels(
            **labels
        ).observe(value)


def test_clashing_registration_still_raises_once_the_handle_is_cached():
    reg = MetricsRegistry()
    for _ in range(3):  # the first call fills the cache, the rest hit it
        reg.inc("jobs_total", server="s0")
    before = to_prometheus_text(reg)
    with pytest.raises(ConfigurationError):
        reg.set_gauge("jobs_total", 1.0, server="s0")  # another kind
    with pytest.raises(ConfigurationError):
        reg.observe("jobs_total", 1.0, server="s0")
    with pytest.raises(ConfigurationError):
        reg.inc("jobs_total", shard="s0")  # another label-name set
    with pytest.raises(ConfigurationError):
        reg.inc("jobs_total")
    with pytest.raises(ConfigurationError):
        reg.inc("jobs_total", server="s0", shard="x")
    with pytest.raises(ConfigurationError):
        reg.inc("jobs_total", -1.0, server="s0")  # a cached counter is a counter
    assert to_prometheus_text(reg) == before
    reg.inc("jobs_total", server="s0")
    assert reg.value("jobs_total", server="s0") == 4.0


def test_label_values_are_compared_as_strings():
    new, old = MetricsRegistry(), ReferenceRegistry()
    for reg in (new, old):
        for _ in range(2):
            reg.inc("hits_total", shard="1")
            reg.inc("hits_total", shard=1)  # the same child as "1"
            reg.inc("hits_total", shard=1.0)  # "1.0": equal to 1 as a key only
            reg.inc("hits_total", shard=True)  # "True": likewise
            reg.set_gauge("depth", 3, b="y", a="x")
            reg.set_gauge("depth", 4, a="x", b="y")  # keyword order is free
    assert new.value("hits_total", shard="1") == 4.0
    assert new.value("hits_total", shard="1.0") == 2.0
    assert new.value("hits_total", shard="True") == 2.0
    assert new.value("depth", a="x", b="y") == 4.0
    assert to_prometheus_text(new) == to_prometheus_text(old)
    assert to_json_lines(new) == to_json_lines(old)


def test_exports_of_the_canned_scenario_are_byte_identical(monkeypatch):
    """Run the ``repro obs metrics`` scenario once, sending every helper
    call to an uncached shadow registry as well: both exports match."""
    shadows = {}

    def tee(method):
        real = getattr(MetricsRegistry, method)
        reference = getattr(ReferenceRegistry, method)

        def call(self, *args, **kwargs):
            shadow = shadows.setdefault(id(self), ReferenceRegistry(self.prefix))
            reference(shadow, *args, **kwargs)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, method, call)

    for method in ("inc", "set_gauge", "observe"):
        tee(method)
    registry = run_swarm_under_faults(seed=0).obs.metrics
    shadow = shadows[id(registry)]
    assert len(registry.collect()) > 20
    assert to_prometheus_text(registry) == to_prometheus_text(shadow)
    assert to_json_lines(registry) == to_json_lines(shadow)
