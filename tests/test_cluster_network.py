"""Unit tests for the TCP-like network model."""

import pytest

from repro.cluster.network import (Address, ConnectionRefused, Network)
from repro.simkernel.engine import Engine
from repro.simkernel.store import StoreClosed


def _pair(engine, cluster):
    """Connect node1 -> node0:5000 and return (server_sock, client_sock)."""
    out = {}

    def server(proc):
        ls = proc.node.listen(5000, owner=proc)
        out["server"] = yield ls.accept()
        yield engine.event()        # stay alive

    def client(proc):
        out["client"] = yield proc.node.connect(
            cluster.node(0).addr(5000), owner=proc)
        yield engine.event()

    cluster.node(0).spawn("server", server)
    cluster.node(1).spawn("client", client)
    engine.run(until=1.0)
    return out["server"], out["client"]


def test_connect_and_exchange(engine, cluster):
    srv, cli = _pair(engine, cluster)
    got = []

    def reader():
        msg = yield srv.recv()
        got.append((engine.now, msg))

    engine.process(reader())
    start = engine.now
    cli.send("hello", size=0)
    engine.run(until=start + 1.0)
    assert got and got[0][1] == "hello"
    # one latency for a zero-size message
    assert got[0][0] == pytest.approx(start + 1e-4)


def test_transfer_time_scales_with_size(engine, cluster):
    srv, cli = _pair(engine, cluster)
    got = []

    def reader():
        msg = yield srv.recv()
        got.append(engine.now)

    engine.process(reader())
    start = engine.now
    cli.send("big", size=10**8)   # 100 MB at 100 MB/s = 1 s
    engine.run(until=start + 5.0)
    assert got[0] == pytest.approx(start + 1.0 + 1e-4)


def test_per_connection_fifo_no_reordering(engine, cluster):
    """A small message sent after a big one must not overtake it."""
    srv, cli = _pair(engine, cluster)
    got = []

    def reader():
        while True:
            try:
                msg = yield srv.recv()
            except StoreClosed:
                return
            got.append(msg)

    engine.process(reader())
    cli.send("big", size=10**7)
    cli.send("small", size=10)
    engine.run(until=engine.now + 5.0)
    assert got == ["big", "small"]


def test_connect_refused_without_listener(engine, cluster):
    outcome = []

    def client(proc):
        try:
            yield proc.node.connect(Address("m0", 9999), owner=proc)
        except ConnectionRefused:
            outcome.append("refused")

    # node name prefix in conftest cluster is "node"
    def client2(proc):
        try:
            yield proc.node.connect(cluster.node(0).addr(9999), owner=proc)
        except ConnectionRefused:
            outcome.append("refused")

    cluster.node(1).spawn("client", client2)
    engine.run(until=1.0)
    assert outcome == ["refused"]


def test_double_bind_rejected(engine, cluster):
    cluster.node(0).listen(5000)
    with pytest.raises(OSError):
        cluster.node(0).listen(5000)


def test_close_notifies_peer(engine, cluster):
    srv, cli = _pair(engine, cluster)
    outcome = []

    def reader():
        try:
            yield srv.recv()
        except StoreClosed:
            outcome.append(engine.now)

    engine.process(reader())
    start = engine.now
    engine.call_later(0.5, cli.close)
    engine.run(until=start + 2.0)
    assert outcome and outcome[0] == pytest.approx(start + 0.5 + 1e-4)


def test_process_kill_closes_its_sockets(engine, cluster):
    """The failure-detection channel of the paper: task kill => peers
    observe the closure immediately."""
    outcome = {}

    def server(proc):
        ls = proc.node.listen(5000, owner=proc)
        sock = yield ls.accept()
        try:
            yield sock.recv()
        except StoreClosed:
            outcome["detected_at"] = engine.now

    def client(proc):
        yield proc.node.connect(cluster.node(0).addr(5000), owner=proc)
        yield engine.event()    # hold the connection forever

    cluster.node(0).spawn("server", server)
    cli_proc = cluster.node(1).spawn("client", client)
    engine.call_later(1.0, cli_proc.kill)
    engine.run(until=5.0)
    assert outcome["detected_at"] == pytest.approx(1.0 + 1e-4)


def test_listener_close_refuses_future_connects(engine, cluster):
    outcome = []
    ls = cluster.node(0).listen(5000)
    ls.close()

    def client(proc):
        try:
            yield proc.node.connect(cluster.node(0).addr(5000), owner=proc)
        except ConnectionRefused:
            outcome.append("refused")

    cluster.node(1).spawn("client", client)
    engine.run(until=1.0)
    assert outcome == ["refused"]


def test_network_counters(engine, cluster):
    srv, cli = _pair(engine, cluster)
    sent_before = cluster.network.messages_sent
    cli.send("x", size=500)
    engine.run(until=engine.now + 1.0)
    assert cluster.network.messages_sent == sent_before + 1
    assert cluster.network.bytes_sent >= 500


def test_bad_network_params_rejected():
    eng = Engine(seed=0)
    with pytest.raises(ValueError):
        Network(eng, latency=-1.0)
    with pytest.raises(ValueError):
        Network(eng, bandwidth=0.0)


def test_connection_ends_are_slotted_and_label_lazily(engine, cluster):
    """What a connection costs: no instance dict on either end, no
    queue until something waits in one, no label but the connection id
    both ends already hold, no remote address at the server end."""
    listener = cluster.node(2).listen(7000)
    srv, cli = _pair(engine, cluster)
    for end in (srv, cli, listener, srv._rx, listener._rx):
        assert not hasattr(end, "__dict__")
    assert cli._rx._label is cli.conn_id and cli._rx.items is None
    assert cli._rx.name == srv._rx.name == f"sock#{cli.conn_id}"
    assert srv.remote is None and cli.remote == cluster.node(0).addr(5000)
    assert listener._rx.name == f"listen({listener.addr})" == "listen(node2:7000)"


def test_size_hint_comes_from_the_message_when_not_given(engine, cluster):
    class Sized:
        def __init__(self, size):
            self.size = size

    srv, cli = _pair(engine, cluster)
    before = cluster.network.bytes_sent
    cli.send(Sized(300))                # the message's own hint
    cli.send(Sized(2.9))                # floats truncate
    cli.send(Sized(-1))                 # nonsense -> the default
    cli.send(Sized("big"))
    cli.send("no hint at all")
    cli.send(Sized(300), size=7)        # an explicit size wins
    assert cluster.network.bytes_sent - before == 300 + 2 + 3 * 1024 + 7


def test_a_connection_refused_at_delivery_leaves_nothing_behind(
        engine, cluster, monkeypatch):
    """The listener's process dies inside the round trip: the dialer is
    refused, its process gains no socket, and no close notification is
    ever scheduled for the half-built pair — not at the kill, not when
    the dialer exits later."""
    from repro.cluster.network import Socket

    notified = []
    monkeypatch.setattr(Socket, "_closed_by_peer",
                        lambda sock: notified.append(sock))

    def server(proc):
        proc.node.listen(5000, owner=proc)
        yield engine.event()

    def idle(proc):
        yield engine.event()

    srv = cluster.node(0).spawn("server", server)
    dialer = cluster.node(1).spawn("dialer", idle)
    engine.run(until=0.5)
    outcome = []
    cluster.node(1).connect(cluster.node(0).addr(5000), owner=dialer) \
        .add_callback(lambda ev: outcome.append(ev.exception))
    assert len(dialer._sockets) == 1            # adopted while in flight
    engine.call_later(1e-4, srv.kill)           # the round trip is 2e-4
    engine.run(until=1.0)
    assert isinstance(outcome[0], ConnectionRefused)
    assert not dialer._sockets
    dialer.kill()
    engine.run(until=2.0)
    assert notified == []


def test_a_dialer_killed_in_the_round_trip_leaves_no_live_end(engine,
                                                              cluster):
    """A client end closed while its connection is still in flight (the
    dialer died 10 µs into the 200 µs round trip) is never registered
    as a live connection when the round trip completes: severance would
    otherwise scan a closed end for the rest of the run."""
    def server(proc):
        proc.node.listen(5000, owner=proc)
        yield engine.event()

    def idle(proc):
        yield engine.event()

    cluster.node(0).spawn("server", server)
    dialer = cluster.node(1).spawn("dialer", idle)
    engine.run(until=0.5)
    cluster.node(1).connect(cluster.node(0).addr(5000), owner=dialer)
    engine.call_later(1e-5, dialer.kill)
    engine.run(until=1.0)
    assert list(cluster.network._conns) == []
