"""Regression tests for re-announce / revive-after-dead semantics.

``HeartbeatMonitor.register`` used to replace the whole
``WorkerRecord`` on every announce, so a worker that reconnected after
an outage silently lost the checkpoints its server had saved for it —
exactly the state needed to recover its commands.  Checkpoints live
on the command's lease, which no announce touches.
"""

from repro.core.command import Command
from repro.net.protocol import MessageType
from repro.server.heartbeat import HeartbeatMonitor
from repro.server.server import CopernicusServer
from repro.testing import ChaosNetwork, FaultPlan
from repro.net.transport import Endpoint

CAPS = {"worker": "w", "platform": "smp", "cores": 1, "executables": ["mdrun"]}


def leased_deployment():
    """A server whose worker ``w`` holds the lease on ``p::cmd0``."""
    net = ChaosNetwork(plan=FaultPlan(seed=0), seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=60.0)
    server.host_project("p", lambda c, r: None)
    worker = Endpoint("w", net, handler=lambda m: None)
    net.connect("srv", "w")
    worker.send("srv", MessageType.WORKER_ANNOUNCE, {**CAPS, "now": 0.0})
    server.submit_commands(
        [Command(command_id="cmd0", project_id="p", executable="mdrun")]
    )
    worker.send("srv", MessageType.WORKLOAD_REQUEST, {**CAPS, "now": 0.0})
    assert server.leases.get("w", "p::cmd0") is not None
    return server, worker


def test_register_preserves_existing_checkpoints():
    server, worker = leased_deployment()
    worker.send(
        "srv",
        MessageType.HEARTBEAT,
        {"worker": "w", "now": 10.0, "checkpoints": {"p::cmd0": {"step": 1000}}},
    )
    # the worker re-announces (e.g. after reconnecting)
    worker.send("srv", MessageType.WORKER_ANNOUNCE, {**CAPS, "now": 20.0})
    assert server.leases.get("w", "p::cmd0").checkpoint == {"step": 1000}
    assert server.monitor.is_alive("w")


def test_register_refreshes_liveness_of_dead_worker():
    mon = HeartbeatMonitor(interval=60.0)
    mon.register("w", now=0.0)
    assert mon.check(now=500.0) == ["w"]
    assert not mon.is_alive("w")
    mon.register("w", now=510.0)
    assert mon.is_alive("w")
    # fresh timestamp: not immediately re-declared dead
    assert mon.check(now=520.0) == []


def test_beat_reports_revival_exactly_once():
    mon = HeartbeatMonitor(interval=60.0)
    mon.register("w", now=0.0)
    assert mon.beat("w", now=10.0) is False  # already alive
    assert mon.check(now=500.0) == ["w"]
    assert mon.beat("w", now=510.0) is True  # revived
    assert mon.beat("w", now=520.0) is False  # still alive


def test_dead_reported_at_most_once_per_outage():
    mon = HeartbeatMonitor(interval=60.0)
    mon.register("w", now=0.0)
    assert mon.check(now=500.0) == ["w"]
    assert mon.check(now=600.0) == []  # same outage: not re-reported
    mon.beat("w", now=610.0)
    assert mon.check(now=2000.0) == ["w"]  # new outage: reported again


def test_reannounce_after_outage_keeps_checkpoints_at_server_level():
    """Full protocol path: lease, checkpointed heartbeat, outage,
    re-announce — the saved checkpoint must survive for recovery."""
    server, worker = leased_deployment()
    worker.send(
        "srv",
        MessageType.HEARTBEAT,
        {"worker": "w", "now": 10.0, "checkpoints": {"p::cmd0": {"step": 3000}}},
    )
    assert server.check_liveness(now=500.0) == ["w"]
    # the worker reconnects and re-announces
    worker.send("srv", MessageType.WORKER_ANNOUNCE, {**CAPS, "now": 510.0})
    assert server.monitor.is_alive("w")
    # the dead lease's checkpoint went back on the queue with the command
    assert server.leases.get("w", "p::cmd0") is None
    assert server.queue.pop().checkpoint == {"step": 3000}
    # same outage ended by the re-announce: no duplicate death report
    assert server.check_liveness(now=520.0) == []
