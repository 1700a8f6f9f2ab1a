"""Tests for the pluggable Adapter protocol and scheme registry."""

import numpy as np
import pytest

from repro.core import AdaptiveMSMController, MSMProjectConfig
from repro.lab.adapters import (
    Adapter,
    MinCountsAdapter,
    UncertaintyAdapter,
    UniformAdapter,
    WeightedCountsAdapter,
    _ADAPTER_REGISTRY,
    normalize_scheme,
    register_adapter,
    registered_adapters,
    resolve_adapter,
)
from repro.msm.adaptive import (
    even_weights,
    mincounts_weights,
    uncertainty_weights,
    weighted_counts_weights,
)
from repro.util.errors import ConfigurationError

COUNTS = np.array(
    [[4.0, 2.0, 0.0], [1.0, 9.0, 0.0], [0.0, 0.0, 0.0]]
)


# ------------------------------------------------------------- registry


def test_registered_adapters_lists_shipped_schemes():
    names = registered_adapters()
    assert {"uniform", "min-counts", "weighted-counts", "uncertainty"} <= set(
        names
    )
    assert names == sorted(names)


def test_resolve_adapter_returns_matching_instances():
    assert isinstance(resolve_adapter("uniform"), UniformAdapter)
    assert isinstance(resolve_adapter("min-counts"), MinCountsAdapter)
    assert isinstance(resolve_adapter("uncertainty"), UncertaintyAdapter)
    wc = resolve_adapter("weighted-counts", n=2.5)
    assert isinstance(wc, WeightedCountsAdapter)
    assert wc.n == 2.5
    assert wc.describe() == {"scheme": "weighted-counts", "n": 2.5}


def test_resolve_adapter_passes_instances_through():
    adapter = WeightedCountsAdapter(n=3.0)
    assert resolve_adapter(adapter) is adapter
    with pytest.raises(ConfigurationError):
        resolve_adapter(adapter, n=1.0)
    with pytest.raises(ConfigurationError):
        resolve_adapter(42)


def test_unknown_scheme_lists_registered_names():
    with pytest.raises(ConfigurationError) as excinfo:
        normalize_scheme("magic")
    message = str(excinfo.value)
    for name in registered_adapters():
        assert name in message


def test_adapter_weights_match_weight_functions():
    np.testing.assert_allclose(
        UniformAdapter().weights(COUNTS), even_weights(COUNTS)
    )
    np.testing.assert_allclose(
        MinCountsAdapter().weights(COUNTS), mincounts_weights(COUNTS)
    )
    np.testing.assert_allclose(
        WeightedCountsAdapter(n=2.0).weights(COUNTS),
        weighted_counts_weights(COUNTS, n=2.0),
    )
    np.testing.assert_allclose(
        UncertaintyAdapter(prior=2.0).weights(COUNTS),
        uncertainty_weights(COUNTS, prior=2.0),
    )


def test_adapter_parameter_validation():
    with pytest.raises(ConfigurationError):
        WeightedCountsAdapter(n=-1.0)
    with pytest.raises(ConfigurationError):
        UncertaintyAdapter(prior=0.0)


# ----------------------------------------------------------- the plugin


class _FirstStateAdapter(Adapter):
    name = "first-state"

    def weights(self, counts):
        w = np.zeros(counts.shape[0])
        w[0] = 1.0
        return w


def test_register_adapter_plugin(monkeypatch):
    monkeypatch.delitem(_ADAPTER_REGISTRY, "first-state", raising=False)
    register_adapter("first-state", _FirstStateAdapter)
    try:
        adapter = resolve_adapter("first-state")
        assert adapter.weights(COUNTS)[0] == 1.0
        # registered names are accepted by the controller config too
        cfg = MSMProjectConfig(weighting="first-state")
        assert AdaptiveMSMController(cfg).adapter.name == "first-state"
    finally:
        _ADAPTER_REGISTRY.pop("first-state", None)


def test_register_adapter_collisions():
    with pytest.raises(ConfigurationError):
        register_adapter("uniform", UniformAdapter)
    with pytest.raises(ConfigurationError):
        register_adapter("", UniformAdapter)
    with pytest.raises(ConfigurationError):
        register_adapter("not-callable", object())


# --------------------------------------------------- controller wiring


def test_controller_has_no_hardcoded_scheme_dict():
    assert not hasattr(AdaptiveMSMController, "_WEIGHTING_SCHEMES")


def test_config_accepts_adapter_instance_and_params():
    cfg = MSMProjectConfig(weighting=WeightedCountsAdapter(n=2.0))
    controller = AdaptiveMSMController(cfg)
    assert controller.adapter.n == 2.0

    cfg = MSMProjectConfig(
        weighting="weighted-counts", weighting_params={"n": 3.0}
    )
    assert AdaptiveMSMController(cfg).adapter.n == 3.0


def test_config_rejects_unknown_scheme_with_registry_listing():
    # "even" was a pre-laboratory alias of "uniform"; it is unknown now
    for weighting in ("magic", "even"):
        with pytest.raises(ConfigurationError) as excinfo:
            MSMProjectConfig(weighting=weighting)
        assert "uniform" in str(excinfo.value)
