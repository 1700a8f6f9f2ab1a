"""Tests for workers: platforms, executables, execution, crash recovery."""

import os

import numpy as np
import pytest

from repro.core.command import Command
from repro.md.engine import MDTask
from repro.net import Network
from repro.server import CopernicusServer
from repro.worker import (
    ExecutableRegistry,
    MPISimPlatform,
    SMPPlatform,
    Worker,
    default_registry,
    run_executable,
)
from repro.util.errors import ConfigurationError


# --------------------------------------------------------------- platform


def test_smp_platform_detect_explicit():
    info = SMPPlatform(cores=8).detect()
    assert info.cores == 8
    assert info.nodes == 1
    assert info.name == "smp"


def test_smp_platform_autodetect():
    info = SMPPlatform().detect()
    assert info.cores >= 1


def test_smp_platform_autodetect_counts_usable_cpus(monkeypatch):
    """Affinity masks and cpusets shrink what a worker may announce."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert SMPPlatform().detect().cores == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert SMPPlatform().detect().cores == 64


def test_smp_platform_invalid():
    with pytest.raises(ConfigurationError):
        SMPPlatform(cores=0)


def test_mpi_platform_detect():
    info = MPISimPlatform(nodes=4, cores_per_node=24).detect()
    assert info.cores == 96
    assert info.nodes == 4
    assert info.interconnect == "infiniband"


def test_mpi_platform_invalid():
    with pytest.raises(ConfigurationError):
        MPISimPlatform(nodes=0, cores_per_node=4)


# ------------------------------------------------------------- executables


def test_default_registry_has_builtin_executables():
    registry = default_registry()
    assert "mdrun" in registry.names
    assert "fepsample" in registry.names


def test_registry_subset():
    registry = ExecutableRegistry(["mdrun"])
    assert registry.names == ["mdrun"]
    with pytest.raises(ConfigurationError):
        registry.run("fepsample", {})


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError):
        ExecutableRegistry(["notathing"])


def test_run_executable_unknown():
    with pytest.raises(ConfigurationError):
        run_executable("ghost", {})


def test_mdrun_executable_runs():
    task = MDTask(model="muller-brown", n_steps=200, seed=0, task_id="t")
    result, completed = run_executable("mdrun", task.to_payload())
    assert completed
    assert result["steps_completed"] == 200


def test_mdrun_executable_abort_returns_checkpoint():
    task = MDTask(model="muller-brown", n_steps=1000, seed=0, task_id="t")
    result, completed = run_executable("mdrun", task.to_payload(), 300)
    assert not completed
    assert result["checkpoint"]["step"] == 300


def test_fepsample_executable_runs():
    payload = {"k": 1.0, "k_next": 2.0, "n_samples": 50, "kt": 1.0, "seed": 1}
    result, completed = run_executable("fepsample", payload)
    assert completed
    assert len(result["work_to_next"]) == 50


# ----------------------------------------------------------------- worker


def make_rig(cores=2, segment_steps=300):
    net = Network(seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=10.0)
    worker = Worker(
        "w0",
        net,
        server="srv",
        platform=SMPPlatform(cores=cores),
        segment_steps=segment_steps,
    )
    net.connect("srv", "w0")
    return net, server, worker


def submit_md(server, cid="c0", n_steps=600, model="muller-brown"):
    results = []
    if not server.hosts("p"):
        server.host_project("p", lambda c, r: results.append((c.command_id, r)))
    task = MDTask(model=model, n_steps=n_steps, seed=1, task_id=cid)
    server.submit_commands(
        [Command(command_id=cid, project_id="p", executable="mdrun", payload=task.to_payload())]
    )
    return results


def test_worker_announce_registers_capabilities():
    net, server, worker = make_rig(cores=4)
    worker.announce(0.0)
    assert server.worker_caps["w0"].cores == 4
    assert "mdrun" in server.worker_caps["w0"].executables


def test_worker_full_cycle_completes_command():
    net, server, worker = make_rig()
    results = submit_md(server)
    worker.announce(0.0)
    assert worker.work_once(now=1.0) == 1
    assert len(results) == 1
    assert results[0][1]["completed"]
    assert results[0][1]["steps_completed"] == 600


def test_worker_segments_merge_frames():
    """Frames from checkpointed segments form one continuous trajectory."""
    net, server, worker = make_rig(segment_steps=200)
    results = submit_md(server, n_steps=600)
    worker.announce(0.0)
    worker.work_once(now=1.0)
    result = results[0][1]
    times = np.asarray(result["times"])
    assert np.all(np.diff(times) > 0), "duplicate or unordered frames"
    # report interval 100, 600 steps -> frames at 0,100,...,600
    assert len(times) == 7
    assert result["steps_completed"] == 600


def test_worker_heartbeats_during_segments():
    net, server, worker = make_rig(segment_steps=200)
    submit_md(server, n_steps=600)
    worker.announce(0.0)
    worker.work_once(now=3.0)
    assert server.monitor.is_alive("w0")


def test_worker_crash_hook_kills_mid_command():
    net, server, worker = make_rig(segment_steps=200)
    results = submit_md(server, n_steps=1000)
    worker.announce(0.0)
    worker.set_crash_hook(lambda cid, segment: segment == 2)
    done = worker.work_once(now=1.0)
    assert done == 0
    assert worker.crashed
    assert results == []
    # but checkpoints were heartbeaten before death
    chk = server.monitor.checkpoint_for("w0", "p::c0")
    assert chk is not None and chk["step"] == 400


def test_crashed_worker_command_recovered_by_second_worker():
    """The paper's recovery path: another client continues from the
    checkpoint after the first worker dies."""
    net = Network(seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=10.0)
    w0 = Worker("w0", net, server="srv", platform=SMPPlatform(cores=1), segment_steps=200)
    w1 = Worker("w1", net, server="srv", platform=SMPPlatform(cores=1), segment_steps=200)
    net.connect("srv", "w0")
    net.connect("srv", "w1")
    results = []
    server.host_project("p", lambda c, r: results.append(r))
    task = MDTask(model="muller-brown", n_steps=1000, seed=2, task_id="c0")
    server.submit_commands(
        [Command("c0", "p", "mdrun", task.to_payload())]
    )
    w0.announce(0.0)
    w1.announce(0.0)
    w0.set_crash_hook(lambda cid, seg: seg == 2)  # dies at step 400
    assert w0.work_once(now=1.0) == 0
    # w0 silent; w1 stays alive; failure detected after 2x interval
    w1.heartbeat(20.0)
    dead = server.check_liveness(now=25.0)
    assert dead == ["w0"]
    # w1 picks the command up and finishes from step 400
    assert w1.work_once(now=26.0) == 1
    assert len(results) == 1
    assert results[0]["completed"]
    assert results[0]["checkpoint"]["step"] == 1000
    # only the remaining 600 steps were redone by w1
    assert results[0]["steps_completed"] == 600


def test_worker_multiple_commands_in_workload():
    net, server, worker = make_rig(cores=2)
    results = submit_md(server, "c0")
    submit_md(server, "c1")
    worker.announce(0.0)
    assert worker.work_once(now=1.0) == 2
    assert {r[0] for r in results} == {"c0", "c1"}


def test_crashed_worker_requests_nothing():
    net, server, worker = make_rig()
    submit_md(server)
    worker.announce(0.0)
    worker.crash()
    assert worker.request_workload() == []
    assert worker.work_once(now=1.0) == 0


def test_worker_invalid_segment_steps():
    net = Network(seed=0)
    CopernicusServer("srv", net)
    with pytest.raises(ConfigurationError):
        Worker("w", net, server="srv", segment_steps=0)
