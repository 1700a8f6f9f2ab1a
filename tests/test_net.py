"""Tests for the overlay network: auth, routing, accounting."""

import numpy as np
import pytest

from repro.net import Network, MessageType
from repro.net.auth import KeyPair, TrustStore, exchange_keys, mutual_handshake
from repro.net.protocol import ANY_SERVER
from repro.net.transport import Endpoint
from repro.util.errors import AuthenticationError, CommunicationError
from repro.util.rng import RandomStream


def echo_handler(message):
    return {"echo": message.payload, "type": message.type.value}


# ------------------------------------------------------------------ auth


def test_keypair_generation_unique():
    rng = RandomStream(0)
    a = KeyPair.generate(rng, "a")
    b = KeyPair.generate(rng, "b")
    assert a.public != b.public


def test_trust_store_lifecycle():
    store = TrustStore()
    assert not store.is_trusted("pub-x")
    store.add("pub-x")
    assert store.is_trusted("pub-x")
    store.remove("pub-x")
    assert not store.is_trusted("pub-x")


def test_mutual_handshake_requires_both_sides():
    rng = RandomStream(1)
    ka, kb = KeyPair.generate(rng, "a"), KeyPair.generate(rng, "b")
    sa, sb = TrustStore(), TrustStore()
    with pytest.raises(AuthenticationError):
        mutual_handshake(ka, sa, kb, sb)
    sa.add(kb.public)
    with pytest.raises(AuthenticationError):
        mutual_handshake(ka, sa, kb, sb)
    sb.add(ka.public)
    mutual_handshake(ka, sa, kb, sb)  # no raise


def test_exchange_keys_establishes_mutual_trust():
    rng = RandomStream(2)
    ka, kb = KeyPair.generate(rng, "a"), KeyPair.generate(rng, "b")
    sa, sb = TrustStore(), TrustStore()
    exchange_keys(ka, sa, kb, sb)
    mutual_handshake(ka, sa, kb, sb)


# -------------------------------------------------------------- topology


def make_line_network():
    """a - b - c linear overlay with echo handlers."""
    net = Network(seed=0)
    for name in "abc":
        Endpoint(name, net, handler=echo_handler)
    net.connect("a", "b", latency=0.01)
    net.connect("b", "c", latency=0.02)
    return net


def test_duplicate_endpoint_rejected():
    net = Network()
    Endpoint("x", net, handler=echo_handler)
    with pytest.raises(CommunicationError):
        Endpoint("x", net, handler=echo_handler)


def test_self_link_rejected():
    net = Network()
    Endpoint("x", net, handler=echo_handler)
    with pytest.raises(CommunicationError):
        net.connect("x", "x")


def test_duplicate_link_rejected():
    net = make_line_network()
    with pytest.raises(CommunicationError):
        net.connect("a", "b")


def test_shortest_path_direct_and_multihop():
    net = make_line_network()
    assert net.shortest_path("a", "b") == ["a", "b"]
    assert net.shortest_path("a", "c") == ["a", "b", "c"]


def test_shortest_path_prefers_low_latency():
    net = Network()
    for name in "abcd":
        Endpoint(name, net, handler=echo_handler)
    net.connect("a", "d", latency=1.0)       # slow direct
    net.connect("a", "b", latency=0.01)
    net.connect("b", "c", latency=0.01)
    net.connect("c", "d", latency=0.01)      # fast triple hop
    assert net.shortest_path("a", "d") == ["a", "b", "c", "d"]


def test_cached_route_follows_a_cheaper_link_added_later():
    net = Network()
    for name in "abc":
        Endpoint(name, net, handler=echo_handler)
    net.connect("a", "b", latency=0.01)
    net.connect("b", "c", latency=0.01)
    assert net.shortest_path("a", "c") == ["a", "b", "c"]  # now memoised
    net.connect("a", "c", latency=0.001)
    assert net.shortest_path("a", "c") == ["a", "c"]
    Endpoint("d", net, handler=echo_handler)
    net.connect("c", "d", latency=0.001)
    assert net.shortest_path("a", "d") == ["a", "c", "d"]


def test_mutating_a_returned_path_does_not_poison_the_route():
    net = make_line_network()
    path = net.shortest_path("a", "c")
    path.reverse()
    path.append("x")
    assert net.shortest_path("a", "c") == ["a", "b", "c"]
    assert net.shortest_path("a", "c") is not net.shortest_path("a", "c")


def test_no_route_raises():
    net = Network()
    Endpoint("a", net, handler=echo_handler)
    Endpoint("b", net, handler=echo_handler)
    with pytest.raises(CommunicationError):
        net.shortest_path("a", "b")
    # a failed search is not memoised: linking the two makes a route
    net.connect("a", "b")
    assert net.shortest_path("a", "b") == ["a", "b"]


def test_unknown_endpoint_raises():
    net = Network()
    with pytest.raises(CommunicationError):
        net.endpoint("ghost")


# --------------------------------------------------------------- delivery


def test_direct_delivery_roundtrip():
    net = make_line_network()
    a = net.endpoint("a")
    response = a.send("c", MessageType.PROJECT_STATUS, {"q": 1})
    assert response["echo"] == {"q": 1}


def test_delivery_accounts_bytes_on_every_hop():
    net = make_line_network()
    a = net.endpoint("a")
    a.send("c", MessageType.PROJECT_STATUS, {"blob": "x" * 100})
    assert net.link("a", "b").bytes_carried > 100
    assert net.link("b", "c").bytes_carried > 100
    # response also crossed back
    assert net.link("a", "b").messages_carried >= 2


def test_delivery_numpy_payload():
    net = make_line_network()
    a = net.endpoint("a")
    arr = np.arange(12.0).reshape(3, 4)
    response = a.send("b", MessageType.PROJECT_STATUS, {"data": arr})
    # handler echoes the dict; arrays survive structurally
    assert "data" in response["echo"]


def test_wildcard_walks_until_accepted():
    net = Network()
    rejections = []

    def refuser(message):
        rejections.append(message.dst)
        return None

    def acceptor(message):
        return {"accepted_by": "c"}

    Endpoint("a", net, handler=refuser)
    Endpoint("b", net, handler=refuser)
    Endpoint("c", net, handler=acceptor)
    net.connect("a", "b")
    net.connect("b", "c")
    response = net.endpoint("a").send(ANY_SERVER, MessageType.COMMAND_FETCH, {})
    assert response == {"accepted_by": "c"}
    assert rejections == ["b"]


def test_wildcard_nobody_accepts_raises():
    net = Network()
    Endpoint("a", net, handler=lambda m: None)
    Endpoint("b", net, handler=lambda m: None)
    net.connect("a", "b")
    with pytest.raises(CommunicationError):
        net.endpoint("a").send(ANY_SERVER, MessageType.COMMAND_FETCH, {})


def test_untrusted_hop_blocks_traffic():
    net = make_line_network()
    # revoke b's trust of a
    net.endpoint("b").trust.remove(net.endpoint("a").keypair.public)
    with pytest.raises(AuthenticationError):
        net.endpoint("a").send("b", MessageType.PROJECT_STATUS, {})


def test_endpoint_without_handler_raises():
    net = Network()
    Endpoint("a", net)
    Endpoint("b", net)
    net.connect("a", "b")
    with pytest.raises(CommunicationError):
        net.endpoint("a").send("b", MessageType.PROJECT_STATUS, {})


def test_traffic_report_structure():
    net = make_line_network()
    net.endpoint("a").send("c", MessageType.PROJECT_STATUS, {})
    report = net.traffic_report()
    assert len(report) == 2
    assert {"link", "bytes", "messages", "busy_seconds"} <= set(report[0])
    assert net.total_bytes() == sum(r["bytes"] for r in report)


def test_link_latency_affects_busy_time():
    net = Network()
    Endpoint("a", net, handler=echo_handler)
    Endpoint("b", net, handler=echo_handler)
    link = net.connect("a", "b", latency=0.5, bandwidth=1e9)
    net.endpoint("a").send("b", MessageType.PROJECT_STATUS, {})
    assert link.busy_seconds >= 1.0  # request + response latency


def test_link_other():
    net = make_line_network()
    link = net.link("a", "b")
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(CommunicationError):
        link.other("z")
