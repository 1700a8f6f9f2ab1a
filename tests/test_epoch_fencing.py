"""Per-project ownership epochs: journaling, stamping, fencing.

Every effectful path a stale writer could reach — lease grant,
heartbeat checkpoint, result acceptance, result forward, re-adoption —
must validate the command's epoch stamp against the project's current
regime and reject older stamps with a typed, *quiet* verdict: counted
in ``repro_fencing_rejections_total``, recorded as
``FENCING_REJECTED``, never retried and never fed to circuit
breakers.  These tests pin each path down in isolation; the
partition scenario in test_partition_failover.py proves them composed.
"""

import pytest

from repro.core.command import Command
from repro.core.events import EventKind, EventLog
from repro.net.protocol import Message, MessageType
from repro.net.transport import Network
from repro.server.server import CopernicusServer
from repro.server.shardmon import ShardMonitor
from repro.server.wal import ProjectJournal, ServerJournal
from repro.util.errors import FencedError
from repro.worker.platform import SMPPlatform
from repro.worker.worker import Worker


def make_owner(tmp_path, name="owner", epoch=0, pid="p"):
    net = Network(seed=0)
    owner = CopernicusServer(name, net)
    owner.events = EventLog()
    owner.attach_journal(ServerJournal(tmp_path / name))
    received = []
    owner.host_project(pid, lambda c, r: received.append(c.command_id))
    if epoch:
        owner.adopt_epoch(pid, epoch)
    return net, owner, received


def stale_command(command_id="c1", pid="p", epoch=0):
    command = Command(command_id, pid, "mdrun", {})
    command.epoch = epoch
    return command


# -- the WAL record ---------------------------------------------------------


def test_epoch_record_round_trips_through_recovery(tmp_path):
    journal = ProjectJournal(tmp_path / "p", snapshot_every=None)
    assert journal.state.epoch == 0
    journal.record_epoch(3)
    journal.close()
    assert ProjectJournal(tmp_path / "p").recover().epoch == 3


def test_epoch_record_is_idempotent_and_forward_only(tmp_path):
    journal = ProjectJournal(tmp_path / "p", snapshot_every=None)
    journal.record_epoch(2)
    before = list(journal.wal.records())
    journal.record_epoch(2)  # same regime: no new record
    journal.record_epoch(1)  # older regime: silently ignored
    assert list(journal.wal.records()) == before
    assert journal.state.epoch == 2


def test_epoch_survives_snapshot_compaction(tmp_path):
    journal = ProjectJournal(tmp_path / "p", snapshot_every=None)
    journal.record_epoch(4)
    journal.record_result(stale_command("c1", epoch=4), {"steps": 1})
    journal.snapshot()  # compacts the log into the snapshot
    journal.close()
    state = ProjectJournal(tmp_path / "p").recover()
    assert state.epoch == 4
    assert [c.command_id for c, _ in state.results] == ["c1"]


def test_pre_epoch_journal_recovers_at_epoch_zero(tmp_path):
    # a journal written before epochs existed has no epoch record: it
    # must recover at the epoch-zero regime, not crash
    journal = ProjectJournal(tmp_path / "p", snapshot_every=None)
    journal.record_issued([stale_command("c1")])
    journal.close()
    assert ProjectJournal(tmp_path / "p").recover().epoch == 0


# -- adoption ---------------------------------------------------------------


def test_adopt_epoch_journals_and_records_the_bump(tmp_path):
    net, owner, _ = make_owner(tmp_path)
    owner.adopt_epoch("p", 2)
    assert owner.epochs["p"] == 2
    assert owner.journal.project("p").state.epoch == 2
    bumps = owner.events.filter(kind=EventKind.EPOCH_BUMPED)
    assert [(e.details["previous"], e.details["epoch"]) for e in bumps] == [
        (0, 2)
    ]
    # re-adopting the same epoch is a restart, not a regime change
    owner.adopt_epoch("p", 2)
    assert len(owner.events.filter(kind=EventKind.EPOCH_BUMPED)) == 1


def test_adopt_older_epoch_is_fenced(tmp_path):
    net, owner, _ = make_owner(tmp_path, epoch=3)
    with pytest.raises(FencedError) as caught:
        owner.adopt_epoch("p", 1)
    assert caught.value.project_id == "p"
    assert caught.value.stale_epoch == 1
    assert caught.value.current_epoch == 3
    assert owner.epochs["p"] == 3
    assert owner.obs.metrics.value(
        "repro_fencing_rejections_total", server="owner", project="p", path="adopt"
    ) == 1


def test_restore_commands_restamps_the_recovered_epoch(tmp_path):
    net, owner, _ = make_owner(tmp_path)
    command = stale_command("c1", epoch=0)
    owner.restore_commands("p", [command], {"done"}, epoch=5)
    assert owner.epochs["p"] == 5
    assert command.epoch == 5  # reissued under the owner's regime
    assert [c.command_id for c in owner.queue.commands()] == ["c1"]
    assert "p::done" in owner.completed_ids


# -- the effectful paths ----------------------------------------------------


def test_stale_queued_command_is_never_leased(tmp_path):
    net, owner, _ = make_owner(tmp_path, name="srv", epoch=2)
    worker = Worker(
        "w0", net, server="srv", platform=SMPPlatform(cores=2),
        segment_steps=100,
    )
    net.connect("srv", "w0")
    worker.announce(0.0)
    owner.queue.push(stale_command(epoch=0))
    completed = worker.work_once(now=0.0)
    # the stale command was dropped before the lease was granted —
    # not handed to the worker, not left in the queue
    assert completed == 0
    assert len(owner.queue) == 0
    assert len(owner.leases) == 0
    assert owner.obs.metrics.value(
        "repro_fencing_rejections_total", server="srv", project="p", path="lease"
    ) == 1


def test_stale_result_is_fenced_before_the_dedup_barrier(tmp_path):
    net, owner, received = make_owner(tmp_path, epoch=2)
    outcome = owner._route_result(stale_command(epoch=1), {"steps": 1})
    assert outcome == "fenced"
    assert received == []
    # never journaled, never marked complete: the current regime's
    # re-issue of the same command must still be acceptable
    assert owner.journal.project("p").state.results == []
    assert "p::c1" not in owner.completed_ids
    fresh = stale_command(epoch=2)
    assert owner._route_result(fresh, {"steps": 1}) == "completed"
    assert received == ["c1"]


def test_stale_heartbeat_checkpoint_is_rejected_not_journaled(tmp_path):
    net, owner, _ = make_owner(tmp_path, name="srv", epoch=2)
    command = stale_command(epoch=0)
    owner.monitor.register("w0", 0.0)
    owner.leases.grant("w0", command, 0.0, 100.0)
    owner.handle(
        Message(
            type=MessageType.HEARTBEAT,
            src="w0",
            dst="srv",
            payload={
                "worker": "w0",
                "now": 1.0,
                "checkpoints": {command.scoped_id: {"step": 100}},
            },
        )
    )
    assert owner.journal.project("p").state.checkpoints == {}
    assert owner.obs.metrics.value(
        "repro_fencing_rejections_total", server="srv", project="p", path="checkpoint"
    ) == 1



def test_fenced_heartbeat_checkpoint_is_not_kept_for_a_requeue(tmp_path):
    net, owner, _ = make_owner(tmp_path, name="srv", epoch=2)
    command = stale_command(epoch=0)
    owner.monitor.register("w0", 0.0)
    owner.leases.grant("w0", command, 0.0, 100.0)
    owner.handle(
        Message(
            type=MessageType.HEARTBEAT,
            src="w0",
            dst="srv",
            payload={
                "worker": "w0",
                "now": 1.0,
                "checkpoints": {command.scoped_id: {"step": 100}},
            },
        )
    )
    assert owner.leases.get("w0", command.scoped_id).checkpoint is None
    # w0 dies: the requeued copy resumes from no dead-regime state
    assert owner.check_liveness(now=1000.0) == ["w0"]
    requeued = owner.queue.pop()
    assert requeued.scoped_id == command.scoped_id
    assert requeued.checkpoint is None
    assert owner.journal.project("p").state.checkpoints == {}

def test_stale_forward_raises_typed_fenced_error(tmp_path):
    net, owner, received = make_owner(tmp_path, epoch=2)
    carrier = CopernicusServer("carrier", net)
    net.connect("carrier", "owner")
    with pytest.raises(FencedError) as caught:
        carrier.send(
            "owner",
            MessageType.RESULT_FORWARD,
            {"command": stale_command(epoch=1).to_payload(), "result": {}},
        )
    assert caught.value.project_id == "p"
    assert caught.value.stale_epoch == 1
    assert caught.value.current_epoch == 2
    assert received == []
    assert owner.obs.metrics.value(
        "repro_fencing_rejections_total", server="owner", project="p", path="forward"
    ) == 1


# -- satellite: transport triage --------------------------------------------


def test_fencing_rejection_is_permanent_and_quiet_in_transport(tmp_path):
    """FencedError must not be retried, must not count as a send
    failure, and must never feed circuit-breaker penalties."""
    net, owner, _ = make_owner(tmp_path, epoch=2)
    carrier = CopernicusServer("carrier", net)
    net.connect("carrier", "owner")
    with pytest.raises(FencedError):
        carrier.send(
            "owner",
            MessageType.RESULT_FORWARD,
            {"command": stale_command(epoch=0).to_payload(), "result": {}},
        )
    # exactly one rejection at the owner: the handler ran once — the
    # retry loop re-raised instead of re-sending the doomed write
    assert owner.fencing_rejections == 1
    assert carrier.send_retries == 0
    assert carrier.send_failures == 0
    assert not net.obs.metrics.value(
        "repro_net_send_failures_total", endpoint="carrier"
    )
    # breaker counters flat: no failures recorded, nothing opened
    for breaker in carrier.peer_breakers.values():
        assert breaker.opens == 0
        assert breaker.failures == 0
    assert not net.obs.metrics.value(
        "repro_net_breaker_transitions_total", endpoint="carrier"
    )


def test_relay_drops_fenced_result_quietly(tmp_path):
    # a carrier relaying a dead regime's result learns the verdict and
    # drops the relay instead of erroring or retrying
    net, owner, received = make_owner(tmp_path, epoch=2)
    carrier = CopernicusServer("carrier", net)
    net.connect("carrier", "owner")
    carrier.update_route("p", "owner")
    outcome = carrier._route_result(stale_command(epoch=0), {"steps": 1})
    assert outcome == "fenced"
    assert received == []
    assert carrier.obs.metrics.value(
        "repro_server_results_total", server="carrier", outcome="fenced"
    ) == 1


# -- demotion ---------------------------------------------------------------


def make_zombie_pair(tmp_path):
    """owner (epoch 2) and a zombie that still thinks it hosts ``p``."""
    net = Network(seed=0)
    owner = CopernicusServer("owner", net)
    owner.events = EventLog()
    owner.attach_journal(ServerJournal(tmp_path / "owner"))
    received = []
    owner.host_project("p", lambda c, r: received.append(c.command_id))
    owner.adopt_epoch("p", 2)
    zombie = CopernicusServer("zombie", net)
    zombie.events = EventLog()
    zombie.attach_journal(ServerJournal(tmp_path / "zombie"))
    zombie.host_project("p", lambda c, r: None)
    net.connect("zombie", "owner")
    return net, owner, zombie, received


def test_demotion_stands_the_zombie_down_completely(tmp_path):
    net, owner, zombie, received = make_zombie_pair(tmp_path)
    # the dead regime's residue: a queued command, a leased one, and
    # two locally-journaled split-brain completions
    zombie.queue.push(stale_command("queued"))
    leased = stale_command("leased")
    zombie.monitor.register("w0", 0.0)
    zombie.leases.grant("w0", leased, 0.0, 100.0)
    journal = zombie.journal.project("p")
    journal.record_result(stale_command("done1"), {"steps": 1})
    journal.record_result(stale_command("done2"), {"steps": 1})

    report = zombie.demote_project("p", 2, "owner")

    assert report["queue_purged"] == 1
    assert report["leases_voided"] == 1
    assert report["results_forwarded"] == 2
    # the forwards still carried their stale stamps: the owner's fence
    # rejected them — nothing was applied at the new regime
    assert report["forwards_rejected"] == 2
    assert received == []
    assert owner.fencing_rejections == 2
    # dispatch is over: no queue, no leases, no sink, route flipped
    assert len(zombie.queue) == 0
    assert len(zombie.leases) == 0
    assert not zombie.hosts("p")
    assert zombie.routes["p"] == "owner"
    assert zombie.epochs["p"] == 2
    assert "p" not in zombie.journal._journals  # journal handle freed
    fenced = zombie.events.filter(kind=EventKind.PROJECT_FENCED)
    assert [e.details["owner"] for e in fenced] == ["owner"]
    assert zombie.obs.metrics.value(
        "repro_projects_fenced_total", server="zombie", project="p"
    ) == 1


def test_demotion_is_idempotent(tmp_path):
    net, owner, zombie, _ = make_zombie_pair(tmp_path)
    first = zombie.demote_project("p", 2, "owner")
    assert zombie.demote_project("p", 2, "owner") is first
    assert len(zombie.events.filter(kind=EventKind.PROJECT_FENCED)) == 1


def test_demoted_server_refuses_late_submissions(tmp_path):
    net, owner, zombie, _ = make_zombie_pair(tmp_path)
    zombie.demote_project("p", 2, "owner")
    with pytest.raises(FencedError):
        zombie.submit_commands([stale_command("late")])


def test_probe_fence_table_demotes_a_healed_zombie(tmp_path):
    # the zombie-watch path end to end: the gateway's probe carries the
    # fence table; the healed zombie demotes itself synchronously and
    # the demotion report rides back on the probe answer
    net, owner, zombie, _ = make_zombie_pair(tmp_path)
    gateway = CopernicusServer("gateway", net)
    net.connect("gateway", "zombie")
    monitor = ShardMonitor(gateway, ["zombie"])
    monitor.record_fence("p", 2, "owner")
    monitor.mark_dead("zombie")
    assert monitor.check(10.0) == []  # zombie watch: dead stays dead
    assert len(monitor.demotions) == 1
    report = monitor.demotions[0]
    assert report["project_id"] == "p"
    assert report["server"] == "zombie"
    assert report["owner"] == "owner"
    assert report["epoch"] == 2
    assert not zombie.hosts("p")
    # the next probe does not demote again (idempotent, one report)
    monitor.check(20.0)
    assert len(monitor.demotions) == 1
