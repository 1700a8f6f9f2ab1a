"""Circuit breakers: unit automaton tests and the sick-peer scenario."""

import pytest

from repro.net.circuit import BreakerPolicy, BreakerState, CircuitBreaker
from repro.testing import Invariants
from repro.util.errors import ConfigurationError


# -- automaton unit behavior -------------------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ConfigurationError):
        BreakerPolicy(cooldown_seconds=0.0)
    with pytest.raises(ConfigurationError):
        BreakerPolicy(cooldown_backoff=0.5)
    with pytest.raises(ConfigurationError):
        BreakerPolicy(half_open_probes=0)


def test_breaker_opens_after_consecutive_failures():
    breaker = CircuitBreaker("peer", BreakerPolicy(failure_threshold=3))
    for _ in range(2):
        breaker.record_failure(0.0)
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 1
    assert not breaker.allow(1.0)
    assert breaker.skips == 1


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker("peer", BreakerPolicy(failure_threshold=3))
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    breaker.record_success(0.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.CLOSED  # streak broken at 2


def test_half_open_probes_close_the_breaker():
    policy = BreakerPolicy(
        failure_threshold=1, cooldown_seconds=100.0, half_open_probes=2
    )
    breaker = CircuitBreaker("peer", policy)
    breaker.record_failure(0.0)
    assert not breaker.allow(50.0)
    assert breaker.allow(100.0)  # cooldown over: half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success(100.0)
    assert breaker.state is BreakerState.HALF_OPEN  # one probe is not enough
    assert breaker.allow(101.0)
    breaker.record_success(101.0)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.closes == 1


def test_failed_probe_reopens_with_escalated_cooldown():
    policy = BreakerPolicy(
        failure_threshold=1, cooldown_seconds=100.0, cooldown_backoff=2.0
    )
    breaker = CircuitBreaker("peer", policy)
    breaker.record_failure(0.0)        # open until 100
    assert breaker.allow(100.0)        # half-open
    breaker.record_failure(100.0)      # still sick: open until 100+200
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 2
    assert not breaker.allow(250.0)
    assert breaker.allow(300.0)
    # a successful recovery resets the cooldown ladder
    breaker.record_success(300.0)
    breaker.record_success(300.0)
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure(400.0)
    assert not breaker.allow(499.0)    # back to the base 100 s cooldown
    assert breaker.allow(500.0)


def test_escalated_cooldown_is_capped():
    policy = BreakerPolicy(
        failure_threshold=1,
        cooldown_seconds=100.0,
        cooldown_backoff=10.0,
        max_cooldown_seconds=250.0,
    )
    breaker = CircuitBreaker("peer", policy)
    breaker.record_failure(0.0)
    assert breaker.allow(100.0)
    breaker.record_failure(100.0)  # 100*10 capped at 250
    assert not breaker.allow(349.0)
    assert breaker.allow(350.0)


# -- the canned sick-peer scenario ------------------------------------------


def test_sick_peer_trips_and_recovers_the_relay_breaker(canned):
    out = canned("run_relay_with_sick_peer", 0)
    breaker = out.breaker
    # the breaker opened on the sick window, skipped while open, and
    # re-closed through half-open probes once the peer recovered
    assert breaker.opens == 1
    assert breaker.skips > 0
    assert breaker.closes == 1
    assert breaker.state is BreakerState.CLOSED
    # fetches kept succeeding via the project server the whole time
    assert len(out.controller.finished) == 8
    Invariants(out.runner).assert_ok()


def test_sick_peer_breaker_surfaces_in_traffic_report(canned):
    out = canned("run_relay_with_sick_peer", 0)
    rows = [
        row
        for row in out.network.traffic_report()
        if row.get("link") == "breaker:relay->sick"
    ]
    assert rows and rows[0]["opens"] == 1 and rows[0]["skips"] > 0
    assert rows[0]["state"] == "closed"


def test_sick_peer_scenario_is_deterministic(reproducible):
    # transcript and breaker counters among the digested parts
    reproducible("run_relay_with_sick_peer", 1)
