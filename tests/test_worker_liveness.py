"""Worker-side liveness plumbing: bounded parked results, pacing, jitter."""

import pytest

from repro.core.command import Command
from repro.md.engine import MDTask
from repro.net import Network
from repro.net.protocol import MessageType
from repro.net.topology import apply_poll_jitter, workstation
from repro.obs.trace import TRACE_ID_HEADER, trace_id_for
from repro.server import CopernicusServer
from repro.worker import SMPPlatform, Worker
from repro.util.errors import ConfigurationError, TransientCommunicationError


def _worker(**kwargs):
    net = Network(seed=0)
    return Worker("w0", net, server="srv", **kwargs)


def _cmd(command_id):
    return Command(command_id=command_id, project_id="p", executable="mdrun")


# ------------------------------------------------- bounded parked results


def test_worker_parameter_validation():
    with pytest.raises(ConfigurationError):
        _worker(pending_results_limit=0)
    with pytest.raises(ConfigurationError):
        _worker(segments_per_cycle=0)
    with pytest.raises(ConfigurationError):
        _worker(segment_steps=0)


def test_parked_results_bounded_drop_oldest():
    worker = _worker(pending_results_limit=2)
    worker._park_result(_cmd("a"), {"n": 1})
    worker._park_result(_cmd("b"), {"n": 2})
    worker._park_result(_cmd("c"), {"n": 3})
    # "a" — the oldest — was sacrificed for bounded memory, and counted
    assert [c.command_id for c, _ in worker._pending_results] == ["b", "c"]
    assert worker.pending_results_dropped == 1


def test_parked_results_dedupe_by_command_id():
    worker = _worker(pending_results_limit=4)
    worker._park_result(_cmd("a"), {"n": 1})
    worker._park_result(_cmd("b"), {"n": 2})
    worker._park_result(_cmd("a"), {"n": 3})
    # re-parking replaces the stale entry rather than queuing a second
    assert [c.command_id for c, _ in worker._pending_results] == ["b", "a"]
    assert worker._pending_results[-1][1] == {"n": 3}
    assert worker.pending_results_dropped == 0


def test_parked_results_of_two_tenants_sharing_a_command_id_both_deliver(
    monkeypatch,
):
    """One worker holds two tenants' ``cmd0``: parked while the uplink
    is down, both reach the server once it returns, each carrying its
    own tenant's trace id."""
    net = Network(seed=0)
    server = CopernicusServer("srv", net)
    worker = Worker("w0", net, server="srv", platform=SMPPlatform(cores=2))
    net.connect("srv", "w0")
    received = []
    for tenant in ("p1", "p2"):
        server.host_project(
            tenant, lambda c, r: received.append((c.project_id, c.command_id))
        )
        task = MDTask(model="muller-brown", n_steps=100, seed=1, task_id="cmd0")
        server.submit_commands(
            [Command("cmd0", tenant, "mdrun", task.to_payload())]
        )
    worker.announce(0.0)

    uplink = {"down": True}
    delivered = []
    send = worker.send

    def flaky_send(dst, type, payload=None, timeout=None, headers=None):
        if type == MessageType.COMMAND_RESULT:
            if uplink["down"]:
                raise TransientCommunicationError("uplink down")
            delivered.append(
                (payload["command"]["project_id"], headers[TRACE_ID_HEADER])
            )
        return send(dst, type, payload, timeout=timeout, headers=headers)

    monkeypatch.setattr(worker, "send", flaky_send)
    for cycle in range(3):
        worker.work_once(now=float(cycle))
    assert received == [] and delivered == []

    uplink["down"] = False
    assert worker.flush_pending_results() == 2
    assert sorted(received) == [("p1", "cmd0"), ("p2", "cmd0")]
    assert sorted(delivered) == [
        (tenant, trace_id_for(tenant, "cmd0")) for tenant in ("p1", "p2")
    ]


# ------------------------------------------------------------------ pacing


def _paced_rig():
    net = Network(seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=10.0)
    worker = Worker(
        "w0",
        net,
        server="srv",
        platform=SMPPlatform(cores=2),
        segment_steps=300,
        segments_per_cycle=1,
    )
    net.connect("srv", "w0")
    results = []
    server.host_project("p", lambda c, r: results.append(c.command_id))
    task = MDTask(model="muller-brown", n_steps=600, seed=1, task_id="c0")
    server.submit_commands(
        [
            Command(
                command_id="c0",
                project_id="p",
                executable="mdrun",
                payload=task.to_payload(),
            )
        ]
    )
    worker.announce(0.0)
    return server, worker, results


def test_pacing_parks_and_resumes_across_cycles():
    server, worker, results = _paced_rig()
    # 600 steps at 300 per segment, one segment per cycle: two cycles
    assert worker.work_once(now=1.0) == 0
    assert worker._active is not None  # parked mid-command
    assert results == []
    assert worker.work_once(now=2.0) == 1
    assert worker._active is None
    assert results == ["c0"]


def test_paced_worker_heartbeats_checkpoints_while_parked():
    server, worker, results = _paced_rig()
    worker.work_once(now=1.0)
    worker.heartbeat(now=1.0)
    checkpoint = server.leases.get("w0", "p::c0").checkpoint
    assert checkpoint is not None and checkpoint["step"] == 300


# ------------------------------------------------------------------ jitter


def test_poll_jitter_is_seeded_and_bounded():
    def offsets(seed):
        net = Network(seed=seed)
        workers = [
            Worker(f"w{k}", net, server="srv") for k in range(6)
        ]
        apply_poll_jitter(net, workers, heartbeat_interval=120.0, poll_jitter=0.1)
        return [w.poll_offset for w in workers]

    first, again = offsets(7), offsets(7)
    assert first == again  # pure function of the seed
    assert all(0.0 <= o < 12.0 for o in first)
    assert len(set(first)) > 1  # the herd is actually staggered
    assert offsets(8) != first


def test_poll_jitter_zero_is_a_noop():
    net = Network(seed=0)
    workers = [Worker("w0", net, server="srv")]
    apply_poll_jitter(net, workers, heartbeat_interval=120.0, poll_jitter=0.0)
    assert workers[0].poll_offset == 0.0


def test_poll_jitter_validation():
    net = Network(seed=0)
    with pytest.raises(ConfigurationError):
        apply_poll_jitter(net, [], heartbeat_interval=120.0, poll_jitter=1.0)
    with pytest.raises(ConfigurationError):
        apply_poll_jitter(net, [], heartbeat_interval=120.0, poll_jitter=-0.1)


def test_topology_builders_stagger_their_fleets():
    deployment = workstation(n_workers=5, seed=3, heartbeat_interval=120.0)
    offsets = [w.poll_offset for w in deployment.workers]
    assert all(0.0 <= o < 12.0 for o in offsets)
    assert len(set(offsets)) > 1
