"""Unit and property tests for the TCP implementation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.link import Channel
from repro.simnet.node import Host, wire
from repro.simnet.tcp import TcpServer, open_connection


def build(seed=0, rate=10e6, delay=0.01, loss=0.0, loss_burst=1.0, queue=256 * 1024):
    sim = Simulator(seed=seed)
    a = Host(sim, "client")
    b = Host(sim, "server")
    fwd = Channel(sim, "fwd", rate_bps=rate, delay=delay, loss=loss,
                  loss_burst=loss_burst, queue_limit_bytes=queue)
    bwd = Channel(sim, "bwd", rate_bps=rate, delay=delay, loss=loss,
                  loss_burst=loss_burst, queue_limit_bytes=queue)
    wire(sim, a, "eth0", b, "eth0", bwd, fwd)  # bwd: client->server
    a.set_default_route(a.interfaces["eth0"])
    b.set_default_route(b.interfaces["eth0"])
    return sim, a, b


def transfer(sim, client_node, server_node, size, request=400, until=300.0, cc="cubic"):
    state = {"received": 0, "closed": False, "server_ep": None,
             "established": False, "failures": []}

    def on_conn(ep):
        state["server_ep"] = ep

        def respond(nbytes, now):
            if not state.get("responded"):
                state["responded"] = True
                ep.send(size)
                ep.close()

        ep.on_data = respond

    server = TcpServer(sim, server_node, 80, on_conn, cc=cc)
    client = open_connection(sim, client_node, server_node.name, 80, cc=cc)

    def on_established():
        state["established"] = True
        client.send(request)

    client.on_established = on_established
    client.on_fail = state["failures"].append

    def on_data(n, t):
        state["received"] += n
        state["t_done"] = t

    client.on_data = on_data
    client.on_close = lambda: state.__setitem__("closed", True)
    client.connect()
    sim.run(until=until)
    state["client"] = client
    return state


def test_handshake_and_small_transfer():
    sim, a, b = build()
    state = transfer(sim, a, b, size=10_000)
    assert state["received"] == 10_000
    assert state["closed"] is True


def test_exact_delivery_large_transfer():
    sim, a, b = build()
    state = transfer(sim, a, b, size=2_000_000)
    assert state["received"] == 2_000_000


def test_delivery_under_heavy_loss():
    """All bytes are delivered exactly once despite 5% bursty loss."""
    sim, a, b = build(seed=7, loss=0.05, loss_burst=3.0)
    state = transfer(sim, a, b, size=400_000, until=600.0)
    assert state["received"] == 400_000
    assert state["server_ep"].stat_retransmits > 0


def test_no_spurious_retransmits_on_clean_link():
    sim, a, b = build()
    state = transfer(sim, a, b, size=1_000_000)
    assert state["server_ep"].stat_retransmits == 0
    assert state["server_ep"].stat_timeouts == 0


def test_rtt_estimate_close_to_path_rtt():
    sim, a, b = build(delay=0.05)
    state = transfer(sim, a, b, size=500_000)
    ep = state["server_ep"]
    assert ep.srtt == pytest.approx(0.1, abs=0.12)  # 2x50ms + queueing


def test_throughput_near_line_rate():
    sim, a, b = build(rate=8e6)
    state = transfer(sim, a, b, size=4_000_000, until=30.0)
    assert state["received"] == 4_000_000
    # delivered well before the 30s cap: effective rate > 50% of line rate
    assert state["t_done"] < 12.0


def test_handshake_failure_reported():
    sim = Simulator()
    a = Host(sim, "client")
    b = Host(sim, "server")
    fwd = Channel(sim, "f", rate_bps=1e6, loss=1.0)  # black hole
    bwd = Channel(sim, "b", rate_bps=1e6, loss=1.0)
    wire(sim, a, "eth0", b, "eth0", fwd, bwd)
    a.set_default_route(a.interfaces["eth0"])
    failures = []
    client = open_connection(sim, a, "server", 80)
    client.on_fail = failures.append
    client.connect()
    sim.run(until=300.0)
    assert failures == ["handshake-timeout"]
    assert client.closed


def test_syn_retry_recovers_from_syn_loss():
    sim, a, b = build(seed=1, loss=0.4, loss_burst=1.0)
    state = transfer(sim, a, b, size=5_000, until=400.0)
    assert state["received"] == 5_000


def test_send_after_close_rejected():
    sim, a, b = build()
    client = open_connection(sim, a, "server", 80)
    client.close()
    with pytest.raises(RuntimeError):
        client.send(10)


def test_negative_send_rejected():
    sim, a, b = build()
    client = open_connection(sim, a, "server", 80)
    with pytest.raises(ValueError):
        client.send(-1)


def test_mss_negotiated_to_minimum():
    sim, a, b = build()
    got = {}

    def on_conn(ep):
        got["ep"] = ep

    TcpServer(sim, b, 80, on_conn, mss=1000)
    client = open_connection(sim, a, "server", 80, mss=1460)
    client.connect()
    sim.run(until=5.0)
    assert got["ep"].mss == 1000
    assert client.mss == 1000


def test_flow_control_small_receiver_window():
    """A tiny advertised window caps throughput (memory-pressure path)."""
    sim, a, b = build(rate=100e6, delay=0.05)
    state = {"received": 0}

    def on_conn(ep):
        ep.on_data = lambda n, t: (ep.send(3_000_000), ep.close()) if n else None

    TcpServer(sim, b, 80, on_conn)
    client = open_connection(sim, a, "server", 80, recv_capacity=16 * 1024)
    client.on_established = lambda: client.send(300)
    client.on_data = lambda n, t: state.__setitem__("received", state["received"] + n)
    client.connect()
    sim.run(until=10.0)
    # rwnd/RTT = 16KB / 0.1s ~= 1.3 Mbit/s -> far from done after 10s
    assert 0 < state["received"] < 3_000_000


def test_abort_frees_port():
    sim, a, b = build()
    client = open_connection(sim, a, "server", 80)
    client.connect()
    sim.run(until=1.0)
    client.abort()
    assert client.closed
    # port is reusable
    a.bind(6, client.local_port, lambda p: None, "server", 80)


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=300_000),
    loss=st.sampled_from([0.0, 0.01, 0.03]),
    seed=st.integers(min_value=0, max_value=10_000),
)
# Bursty loss eats all six SYNs: the handshake gives up after
# MAX_SYN_RETRIES retries and no byte arrives.
@example(size=0, loss=0.01, seed=475)
@example(size=1, loss=0.01, seed=475)
def test_property_exact_once_delivery(size, loss, seed):
    """Invariant: a connection that opens reads exactly the bytes sent,
    once, and closes; one that cannot open fails once, reading nothing."""
    sim, a, b = build(seed=seed, loss=loss, loss_burst=2.0)
    state = transfer(sim, a, b, size=size, until=900.0)
    if state["established"]:
        assert state["failures"] == []
        assert state["received"] == size
        assert state["closed"] is True
    else:
        assert state["failures"] == ["handshake-timeout"]
        assert state["received"] == 0
