"""The metrics registry and its exporters.

The registry is the numeric backbone of the observability layer: every
overlay component increments labelled counters into it, and the
exporters must render those values losslessly.  The core property here
is the round trip — the Prometheus text dump re-parses to exactly the
registry's values — checked both on a hand-built registry and on the
registry a real chaos run under fire leaves behind.
"""

import json
import math

import pytest

from repro.obs import MetricsRegistry, parse_prometheus_text, to_json_lines, to_prometheus_text
from repro.testing import run_swarm_under_faults
from repro.util.errors import ConfigurationError


def test_counter_gauge_basics():
    reg = MetricsRegistry()
    reg.inc("jobs_total", server="srv")
    reg.inc("jobs_total", 2.0, server="srv")
    reg.inc("jobs_total", server="other")
    reg.set_gauge("queue_depth", 7, server="srv")
    reg.set_gauge("queue_depth", 3, server="srv")

    assert reg.value("jobs_total", server="srv") == 3.0
    assert reg.value("jobs_total", server="other") == 1.0
    assert reg.total("jobs_total") == 4.0
    assert reg.value("queue_depth", server="srv") == 3.0
    # absent child / absent family fall back to the default
    assert reg.value("jobs_total", default=99.0, server="nobody") == 99.0
    assert reg.value("no_such_metric", default=5.0) == 5.0


def test_counters_reject_decrease_and_type_conflicts():
    reg = MetricsRegistry()
    reg.inc("a_total")
    with pytest.raises(ConfigurationError):
        reg.counter("a_total").labels().inc(-1.0)
    with pytest.raises(ConfigurationError):
        reg.gauge("a_total")  # already a counter
    with pytest.raises(ConfigurationError):
        reg.inc("a_total", server="srv")  # labelnames changed


def test_histogram_cumulative_semantics():
    reg = MetricsRegistry()
    for v in (0.5, 1.5, 2.5, 100.0):
        reg.observe("latency_seconds", v, help="x")
    family = reg.histogram("latency_seconds")
    hist = family.labels()
    assert hist.count == 4
    assert hist.sum == pytest.approx(104.5)
    cumulative = dict(hist.cumulative())
    # buckets are cumulative: everything <= 5.0 includes the 0.5/1.5/2.5
    assert cumulative[0.5] == 1
    assert cumulative[5.0] == 3
    assert cumulative[math.inf] == 4


def test_prometheus_round_trip_hand_built():
    reg = MetricsRegistry()
    reg.inc("events_total", 5, help="Events.", kind="drop")
    reg.inc("events_total", 2, kind='we"ird\nlabel')
    reg.set_gauge("depth", 4.5, help="Depth.")
    reg.observe("sizes", 0.02, help="Sizes.")
    reg.observe("sizes", 7.0)

    text = to_prometheus_text(reg)
    values, types = parse_prometheus_text(text)

    assert types["events_total"] == "counter"
    assert types["depth"] == "gauge"
    assert types["sizes"] == "histogram"
    # every exported sample re-parses to its registry value
    for sample in reg.collect():
        key = (sample.name, tuple(sorted(sample.labels.items())))
        assert values[key] == pytest.approx(sample.value), sample.name
    # and nothing extra appeared
    assert len(values) == len(reg.collect())


def test_prometheus_round_trip_live_run(canned):
    out = canned("run_swarm_under_faults", 0)
    reg = out.obs.metrics
    values, types = parse_prometheus_text(to_prometheus_text(reg))
    samples = reg.collect()
    assert samples, "a live run must leave metrics behind"
    for sample in samples:
        key = (sample.name, tuple(sorted(sample.labels.items())))
        assert values[key] == pytest.approx(sample.value), sample.name
    # the run's basic accounting shows up under the expected names
    assert values[("repro_server_commands_submitted_total", (("server", "srv"),))] == 3
    assert types["repro_server_queue_wait_seconds"] == "histogram"


def test_json_lines_export():
    reg = MetricsRegistry()
    reg.inc("a_total", 2, kind="x")
    reg.observe("h", 0.3)
    lines = to_json_lines(reg).strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert {p["name"] for p in parsed} >= {"a_total", "h_bucket", "h_sum", "h_count"}
    counter = next(p for p in parsed if p["name"] == "a_total")
    assert counter == {
        "labels": {"kind": "x"},
        "name": "a_total",
        "type": "counter",
        "value": 2.0,
    }


def test_snapshot_is_deterministic_across_seeded_runs():
    # the swarm harness's one true run-twice test: it proves seeding
    # itself works, where the other determinism tests trust a digest
    first = run_swarm_under_faults(seed=3).obs.metrics.snapshot()
    second = run_swarm_under_faults(seed=3).obs.metrics.snapshot()
    # every series, the byte accounting included: a result carries no
    # wall-clock field, so its serialized size is the seed's alone
    assert first == second
    assert first["repro_net_bytes_total"][""] == pytest.approx(
        second["repro_net_bytes_total"][""], abs=16
    )
