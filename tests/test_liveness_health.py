"""Worker health scoring, quarantine and the flapping-worker scenario."""

import pytest

from repro.core.events import EventKind
from repro.server.health import (
    HealthPolicy,
    HealthRegistry,
    HealthState,
)
from repro.testing import Invariants
from repro.util.errors import ConfigurationError


# -- registry unit behavior --------------------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        HealthPolicy(alpha=0.0)
    with pytest.raises(ConfigurationError):
        HealthPolicy(quarantine_threshold=0.7, probation_threshold=0.6)
    with pytest.raises(ConfigurationError):
        HealthPolicy(quarantine_seconds=0.0)
    with pytest.raises(ConfigurationError):
        HealthPolicy(probation_commands=0)


def test_unseen_worker_is_healthy_and_uncapped():
    registry = HealthRegistry()
    assert registry.score("ghost") == 1.0
    assert registry.admit("ghost", now=0.0) == (True, None, None)


def test_failures_walk_down_through_probation_to_quarantine():
    registry = HealthRegistry(HealthPolicy(alpha=0.4))
    # 1 -> 0.6: below probation bar (0.65)
    assert registry.observe_failure("w", "crash", now=0.0) == "probation"
    allowed, cap, transition = registry.admit("w", now=0.0)
    assert (allowed, transition) == (True, None)
    assert cap == registry.policy.probation_commands
    # 0.6 -> 0.36 -> 0.216: through the quarantine bar (0.3)
    assert registry.observe_failure("w", "flap", now=10.0) is None
    assert registry.observe_failure("w", "crash", now=20.0) == "quarantined"
    assert registry.record_for("w").state is HealthState.QUARANTINED
    assert registry.admit("w", now=21.0) == (False, None, None)
    assert registry.quarantines == 1


def test_single_death_and_revival_does_not_quarantine():
    # the existing chaos tests revive workers once; that must stay
    # below the quarantine bar (1 -> 0.6 -> 0.36 > 0.3)
    registry = HealthRegistry()
    registry.observe_failure("w", "crash", now=0.0)
    assert registry.observe_failure("w", "flap", now=1.0) is None
    assert registry.record_for("w").state is not HealthState.QUARANTINED


def test_speculation_loss_is_a_soft_failure():
    registry = HealthRegistry()
    registry.observe_failure("w", "speculation_loss", now=0.0)
    # 1 -> 0.7: the work finished, just slower than modelled
    assert registry.score("w") == pytest.approx(0.7)


def test_readmission_floors_score_and_counts():
    policy = HealthPolicy(alpha=0.5, quarantine_seconds=100.0)
    registry = HealthRegistry(policy)
    registry.observe_failure("w", "crash", now=0.0)     # 0.5
    registry.observe_failure("w", "crash", now=1.0)     # 0.25 -> quarantine
    assert registry.admit("w", now=50.0)[0] is False
    allowed, cap, transition = registry.admit("w", now=101.0)
    assert (allowed, cap, transition) == (True, 1, "readmitted")
    record = registry.record_for("w")
    assert record.state is HealthState.PROBATION
    assert record.score == pytest.approx(policy.quarantine_threshold)
    assert registry.readmissions == 1
    # one success lifts 0.3 -> 0.65, back over the probation bar
    assert registry.observe_success("w", now=102.0) == "recovered"
    assert record.quarantine_count == 0  # a clean slate


def test_repeat_quarantine_cooldown_escalates():
    policy = HealthPolicy(
        alpha=0.5, quarantine_seconds=100.0, quarantine_backoff=2.0
    )
    registry = HealthRegistry(policy)
    for _ in range(2):
        registry.observe_failure("w", "crash", now=0.0)
    first_until = registry.record_for("w").quarantined_until
    assert first_until == pytest.approx(100.0)
    registry.admit("w", now=150.0)  # readmitted (probation, score 0.3)
    registry.observe_failure("w", "crash", now=160.0)  # 0.15 -> quarantine
    assert registry.record_for("w").quarantined_until == pytest.approx(
        160.0 + 200.0
    )


# -- the canned flapping scenario -------------------------------------------


def test_flapping_worker_is_quarantined_then_readmitted(canned):
    out = canned("run_swarm_with_flapping_worker", 0)
    runner, server = out.runner, out.server
    events = runner.events

    # the flap was seen as a death and a revival...
    deaths = events.filter(kind=EventKind.WORKER_DEAD)
    assert any(e.details.get("worker") == "w0" for e in deaths)
    revivals = events.filter(kind=EventKind.WORKER_REVIVED)
    assert any(e.details.get("worker") == "w0" for e in revivals)

    # ...which quarantined the worker and denied it workload
    quarantines = events.filter(kind=EventKind.WORKER_QUARANTINED)
    assert [e.details.get("worker") for e in quarantines] == ["w0"]
    assert server.workloads_denied > 0
    assert server.health.quarantines == 1

    # the cooldown expired and the worker came back on probation
    readmissions = events.filter(kind=EventKind.WORKER_READMITTED)
    assert [e.details.get("worker") for e in readmissions] == ["w0"]
    assert readmissions[0].time > quarantines[0].time
    assert server.health.readmissions == 1

    # the project still completed, and every liveness invariant holds
    assert len(out.controller.finished) == 10
    Invariants(runner).assert_ok()


def test_flapping_worker_receives_no_workload_while_quarantined(canned):
    out = canned("run_swarm_with_flapping_worker", 0)
    events = out.runner.events
    quarantined_at = events.filter(kind=EventKind.WORKER_QUARANTINED)[0].time
    readmitted_at = events.filter(kind=EventKind.WORKER_READMITTED)[0].time
    for record in events.filter(kind=EventKind.WORKLOAD_ASSIGNED):
        if record.details.get("worker") != "w0":
            continue
        assert not (quarantined_at <= record.time < readmitted_at)


def test_flapping_scenario_is_deterministic(reproducible):
    reproducible("run_swarm_with_flapping_worker", 3)
