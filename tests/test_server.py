"""Tests for the server: queue, matching, heartbeats, result routing."""

import pytest

from repro.core.command import Command
from repro.net import Network
from repro.server import (
    CommandQueue,
    CopernicusServer,
    HeartbeatMonitor,
    FairShareScheduler,
    WorkerCapabilities,
)
from repro.util.errors import SchedulingError


def cmd(cid, executable="mdrun", min_cores=1, preferred=1, priority=0, project="p"):
    return Command(
        command_id=cid,
        project_id=project,
        executable=executable,
        min_cores=min_cores,
        preferred_cores=preferred,
        priority=priority,
    )


# ---------------------------------------------------------------- queue


def test_queue_priority_order():
    q = CommandQueue()
    q.push(cmd("low", priority=5))
    q.push(cmd("high", priority=0))
    q.push(cmd("mid", priority=2))
    assert [c.command_id for c in q.commands()] == ["high", "mid", "low"]
    assert q.pop().command_id == "high"


def test_queue_fifo_within_priority():
    q = CommandQueue()
    for name in ("first", "second", "third"):
        q.push(cmd(name, priority=1))
    assert q.pop().command_id == "first"
    assert q.pop().command_id == "second"


def test_queue_pop_empty():
    q = CommandQueue()
    assert q.pop() is None
    assert q.peek() is None


def test_queue_remove_project():
    q = CommandQueue()
    q.push(cmd("a", project="p1"))
    q.push(cmd("b", project="p2"))
    q.push(cmd("c", project="p1"))
    assert q.remove_project("p1") == 2
    assert [c.command_id for c in q.commands()] == ["b"]


# -------------------------------------------------------------- matching


def _build(queue, caps):
    return FairShareScheduler().build(queue, caps, now=0.0, queued_at={})


def test_capabilities_validation():
    with pytest.raises(SchedulingError):
        WorkerCapabilities(worker="w", platform="smp", cores=0)


def test_capabilities_payload_roundtrip():
    caps = WorkerCapabilities("w", "smp", 4, ["mdrun"])
    assert WorkerCapabilities.from_payload(caps.to_payload()) == caps


def test_build_workload_packs_cores():
    q = CommandQueue()
    for k in range(5):
        q.push(cmd(f"c{k}", preferred=2))
    caps = WorkerCapabilities("w", "smp", 4, ["mdrun"])
    workload = _build(q, caps)
    assert sum(cores for _, cores in workload) == 4
    assert len(workload) == 2
    assert len(q) == 3


def test_build_workload_respects_executables():
    q = CommandQueue()
    q.push(cmd("md", executable="mdrun"))
    q.push(cmd("fep", executable="fepsample"))
    caps = WorkerCapabilities("w", "smp", 4, ["fepsample"])
    workload = _build(q, caps)
    assert [c.command_id for c, _ in workload] == ["fep"]
    assert len(q) == 1  # mdrun command stays queued


def test_build_workload_respects_min_cores():
    q = CommandQueue()
    q.push(cmd("big", min_cores=8, preferred=8))
    caps = WorkerCapabilities("w", "smp", 4, ["mdrun"])
    assert _build(q, caps) == []
    assert len(q) == 1


def test_build_workload_degrades_preferred():
    q = CommandQueue()
    q.push(cmd("a", min_cores=1, preferred=3))
    q.push(cmd("b", min_cores=1, preferred=3))
    caps = WorkerCapabilities("w", "smp", 4, ["mdrun"])
    workload = _build(q, caps)
    cores = [k for _, k in workload]
    assert cores == [3, 1]


def test_build_workload_priority_first():
    q = CommandQueue()
    q.push(cmd("later", priority=5))
    q.push(cmd("urgent", priority=0))
    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"])
    workload = _build(q, caps)
    assert workload[0][0].command_id == "urgent"


# ------------------------------------------------------------- heartbeat


def test_heartbeat_monitor_alive_cycle():
    mon = HeartbeatMonitor(interval=10.0)
    mon.register("w", now=0.0)
    assert mon.is_alive("w")
    assert mon.check(now=15.0) == []  # within 2x interval
    assert mon.check(now=25.0) == ["w"]
    assert not mon.is_alive("w")
    # dead worker reported once only
    assert mon.check(now=30.0) == []


def test_heartbeat_revives_worker():
    mon = HeartbeatMonitor(interval=10.0)
    mon.register("w", now=0.0)
    mon.check(now=25.0)
    mon.beat("w", now=26.0)
    assert mon.is_alive("w")


def heartbeat(server, worker, now, checkpoints):
    from repro.net.protocol import Message, MessageType

    server.handle(
        Message(
            MessageType.HEARTBEAT,
            src=worker,
            dst=server.name,
            payload={"worker": worker, "now": now, "checkpoints": checkpoints},
        )
    )


def test_heartbeat_stores_checkpoints():
    server = CopernicusServer("srv", Network())
    server.leases.grant("w", cmd("cmd1"), now=0.0, deadline=100.0)
    heartbeat(server, "w", 0.0, {"p::cmd1": {"step": 100}})
    assert server.leases.get("w", "p::cmd1").checkpoint == {"step": 100}
    # the checkpoint lives and dies with its lease
    server.leases.clear("w", "p::cmd1")
    assert server.leases.get("w", "p::cmd1") is None


def test_heartbeat_unknown_worker_checkpoint_none():
    # a checkpoint for a command the worker holds no lease on is
    # neither kept nor granted a lease
    server = CopernicusServer("srv", Network())
    heartbeat(server, "ghost", 0.0, {"p::cmd": {"step": 5}})
    assert server.monitor.is_alive("ghost")
    assert server.leases.get("ghost", "p::cmd") is None
    assert len(server.leases) == 0


def test_heartbeat_invalid_interval():
    with pytest.raises(ValueError):
        HeartbeatMonitor(interval=0.0)


# ------------------------------------------------------------------ server


def make_deployment():
    net = Network(seed=0)
    origin = CopernicusServer("origin", net, heartbeat_interval=10.0)
    relay = CopernicusServer("relay", net, heartbeat_interval=10.0)
    net.connect("origin", "relay")
    return net, origin, relay


def test_server_hosts_and_routes_result_locally():
    net, origin, _ = make_deployment()
    got = []
    origin.host_project("p", lambda c, r: got.append((c.command_id, r)))
    command = cmd("c0")
    origin.submit_commands([command])
    assert command.origin_server == "origin"
    # simulate a result arriving directly
    from repro.net.protocol import Message, MessageType

    origin.handle(
        Message(
            MessageType.COMMAND_RESULT,
            src="w",
            dst="origin",
            payload={
                "worker": "w",
                "command": command.to_payload(),
                "result": {"ok": 1},
            },
        )
    )
    assert got == [("c0", {"ok": 1})]


def test_server_forwards_result_to_origin():
    net, origin, relay = make_deployment()
    got = []
    origin.host_project("p", lambda c, r: got.append(c.command_id))
    command = cmd("c1")
    command.origin_server = "origin"
    from repro.net.protocol import Message, MessageType

    relay.handle(
        Message(
            MessageType.COMMAND_RESULT,
            src="w",
            dst="relay",
            payload={
                "worker": "w",
                "command": command.to_payload(),
                "result": {"ok": 1},
            },
        )
    )
    assert got == ["c1"]


def test_server_result_without_sink_raises():
    net, origin, relay = make_deployment()
    command = cmd("c2")
    command.origin_server = "origin"  # but no project hosted
    from repro.net.protocol import Message, MessageType

    with pytest.raises(SchedulingError):
        origin.handle(
            Message(
                MessageType.COMMAND_RESULT,
                src="w",
                dst="origin",
                payload={
                    "worker": "w",
                    "command": command.to_payload(),
                    "result": {},
                },
            )
        )


def test_server_workload_request_fetches_from_peer():
    net, origin, relay = make_deployment()
    origin.host_project("p", lambda c, r: None)
    origin.submit_commands([cmd("c3")])
    from repro.net.protocol import Message, MessageType

    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"]).to_payload()
    response = relay.handle(
        Message(MessageType.WORKLOAD_REQUEST, src="w", dst="relay", payload=caps)
    )
    assert len(response["commands"]) == 1
    assert response["commands"][0]["command_id"] == "c3"
    # the relay (worker's server) holds the lease
    assert relay.leases.get("w", "p::c3") is not None
    assert len(origin.queue) == 0


def test_server_failure_requeues_with_checkpoint():
    net, origin, _ = make_deployment()
    origin.host_project("p", lambda c, r: None)
    origin.submit_commands([cmd("c4")])
    from repro.net.protocol import Message, MessageType

    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"]).to_payload()
    caps["now"] = 0.0
    origin.handle(
        Message(MessageType.WORKER_ANNOUNCE, src="w", dst="origin", payload=caps)
    )
    origin.handle(
        Message(MessageType.WORKLOAD_REQUEST, src="w", dst="origin", payload=caps)
    )
    # worker heartbeats a checkpoint, then goes silent
    origin.handle(
        Message(
            MessageType.HEARTBEAT,
            src="w",
            dst="origin",
            payload={
                "worker": "w",
                "now": 5.0,
                "checkpoints": {"p::c4": {"step": 123}},
            },
        )
    )
    dead = origin.check_liveness(now=100.0)
    assert dead == ["w"]
    assert origin.requeued_after_failure == 1
    requeued = origin.queue.pop()
    assert requeued.command_id == "c4"
    assert requeued.checkpoint == {"step": 123}


def test_server_status_report():
    net, origin, _ = make_deployment()
    origin.host_project("p", lambda c, r: None)
    origin.submit_commands([cmd("gen0_r0"), cmd("gen0_r1")])
    from repro.net.protocol import Message, MessageType

    status = origin.handle(
        Message(MessageType.PROJECT_STATUS, src="x", dst="origin", payload={})
    )
    assert status["queued"] == 2
    assert "gen0_r0" in status["queued_ids"]


def test_command_payload_roundtrip():
    c = cmd("c5", min_cores=2, preferred=4, priority=3)
    c.origin_server = "origin"
    c.checkpoint = {"step": 7}
    restored = Command.from_payload(c.to_payload())
    assert restored == c


# ------------------------------------------------- result-loss window fix


def test_result_forward_failure_keeps_assignment_for_retry():
    """A transient failure forwarding a result to the origin must leave
    the lease and checkpoint intact: the worker parks the result and
    resubmits, and until then the requeue path still exists."""
    net, origin, relay = make_deployment()
    got = []
    origin.host_project("p", lambda c, r: got.append(c.command_id))
    command = cmd("c6")
    command.origin_server = "origin"
    relay.leases.grant("w", command, now=0.0, deadline=100.0)
    heartbeat(relay, "w", 0.0, {"p::c6": {"step": 50}})

    from repro.net.protocol import Message, MessageType
    from repro.util.errors import TransientCommunicationError

    original_send = relay.send
    fail_once = {"n": 0}

    def flaky_send(dst, type, payload=None, timeout=None):
        if fail_once["n"] == 0:
            fail_once["n"] += 1
            raise TransientCommunicationError("uplink flapped")
        return original_send(dst, type, payload, timeout)

    relay.send = flaky_send
    message = Message(
        MessageType.COMMAND_RESULT,
        src="w",
        dst="relay",
        payload={
            "worker": "w",
            "command": command.to_payload(),
            "result": {"ok": 1},
        },
    )
    with pytest.raises(TransientCommunicationError):
        relay.handle(message)
    assert relay.leases.get("w", "p::c6").checkpoint == {"step": 50}
    assert got == []

    relay.handle(message)  # the worker's resubmission
    assert got == ["c6"]
    assert relay.leases.get("w", "p::c6") is None


# ----------------------------------------------- peer-fetch error triage


def test_unclaimed_wildcard_fetch_is_quiet():
    """Nobody on the overlay has work: an expected outcome, not a
    failure — no event, no exception, the worker just idles."""
    from repro.core.events import EventKind, EventLog
    from repro.net.protocol import Message, MessageType

    net, origin, relay = make_deployment()
    relay.events = EventLog()
    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"]).to_payload()
    response = relay.handle(
        Message(MessageType.WORKLOAD_REQUEST, src="w", dst="relay", payload=caps)
    )
    assert response == {"commands": [], "cores": []}
    assert relay.events.filter(kind=EventKind.PEER_FETCH_FAILED) == []


def test_transient_peer_failure_records_event_and_idles():
    from repro.core.events import EventKind, EventLog
    from repro.net.protocol import Message, MessageType
    from repro.util.errors import TransientCommunicationError

    net, origin, relay = make_deployment()
    relay.events = EventLog()

    def failing_send(dst, type, payload=None, timeout=None):
        raise TransientCommunicationError("peer flapped")

    relay.send = failing_send
    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"]).to_payload()
    response = relay.handle(
        Message(MessageType.WORKLOAD_REQUEST, src="w", dst="relay", payload=caps)
    )
    assert response == {"commands": [], "cores": []}
    failures = relay.events.filter(kind=EventKind.PEER_FETCH_FAILED)
    assert len(failures) == 1
    assert failures[0].details["worker"] == "w"
    assert failures[0].details["error"] == "TransientCommunicationError"


def test_permanent_peer_error_propagates():
    """Misconfigured overlays (unknown endpoints, broken trust) must
    surface, not be swallowed as an empty workload."""
    from repro.net.protocol import Message, MessageType
    from repro.util.errors import CommunicationError

    net, origin, relay = make_deployment()

    def broken_send(dst, type, payload=None, timeout=None):
        raise CommunicationError("trust store rejects peer")

    relay.send = broken_send
    caps = WorkerCapabilities("w", "smp", 1, ["mdrun"]).to_payload()
    with pytest.raises(CommunicationError):
        relay.handle(
            Message(
                MessageType.WORKLOAD_REQUEST, src="w", dst="relay", payload=caps
            )
        )
