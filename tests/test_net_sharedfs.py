"""Tests for shared-filesystem data passing."""

import numpy as np
import pytest

from repro.net import MessageType, Network
from repro.net.transport import Endpoint, SHARED_FS_REF_BYTES
from repro.util.errors import CommunicationError


def echo(message):
    return {"ok": True}


def rig():
    net = Network(seed=0)
    for name in ("srv", "worker", "remote"):
        Endpoint(name, net, handler=echo)
    net.connect("srv", "worker")
    net.connect("srv", "remote")
    return net


def test_shared_fs_reduces_bytes():
    big_payload = {"frames": np.zeros((100, 50, 3))}
    # without shared FS
    net_plain = rig()
    net_plain.endpoint("worker").send("srv", MessageType.COMMAND_RESULT, big_payload)
    plain_bytes = net_plain.total_bytes()
    # with shared FS between worker and its server
    net_fs = rig()
    net_fs.attach_filesystem("lustre", ["srv", "worker"])
    net_fs.endpoint("worker").send("srv", MessageType.COMMAND_RESULT, big_payload)
    fs_bytes = net_fs.total_bytes()
    assert fs_bytes < plain_bytes / 10
    assert net_fs.bytes_saved_by_shared_fs > 0


def test_shared_fs_does_not_affect_other_pairs():
    net = rig()
    net.attach_filesystem("lustre", ["srv", "worker"])
    payload = {"frames": np.zeros((100, 50, 3))}
    net.endpoint("remote").send("srv", MessageType.COMMAND_RESULT, payload)
    # remote does not share the FS: full payload crossed the wire
    assert net.total_bytes() > 10000
    assert net.bytes_saved_by_shared_fs == 0


def test_small_messages_unchanged():
    net = rig()
    net.attach_filesystem("lustre", ["srv", "worker"])
    net.endpoint("worker").send("srv", MessageType.HEARTBEAT, {"now": 1.0})
    assert net.bytes_saved_by_shared_fs == 0


def test_share_filesystem_predicate():
    net = rig()
    net.attach_filesystem("lustre", ["srv", "worker"])
    assert net.share_filesystem("srv", "worker")
    assert not net.share_filesystem("srv", "remote")


def test_attach_unknown_endpoint_rejected():
    net = rig()
    with pytest.raises(CommunicationError):
        net.attach_filesystem("fs", ["ghost"])


def test_mount_added_after_a_lookup_changes_the_answer():
    net = rig()
    assert not net.share_filesystem("srv", "remote")
    net.attach_filesystem("nfs", ["srv", "remote"])
    assert net.share_filesystem("srv", "remote")
    # a grown mount counts too, and sends see it
    assert not net.share_filesystem("worker", "remote")
    net.attach_filesystem("nfs", ["worker"])
    assert net.share_filesystem("worker", "remote")
    net.endpoint("remote").send(
        "worker", MessageType.COMMAND_RESULT, {"frames": np.zeros((100, 50, 3))}
    )
    assert net.bytes_saved_by_shared_fs > 0

