"""Direct unit tests of the Vcl daemon's Chandy-Lamport bookkeeping.

The integration tests exercise these paths through full runs; here we
drive a single :class:`VclDaemon` core by hand (inside a minimal
cluster) to pin down marker semantics precisely: duplicate markers,
late-channel logging windows, blocking-mode hold-back, scheduler acks.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.network import Mesh
from repro.mpi.endpoint import UNMATCHED_KEY
from repro.mpi.message import AppMessage
from repro.mpichv import wire
from repro.mpichv.ckptserver import ckpt_server_main
from repro.mpichv.config import VclConfig
from repro.mpichv.vdaemon import VclDaemon
from repro.simkernel.engine import Engine


class FakeSock:
    """Records sends; looks closed/open like a real socket."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, msg, size=None):
        self.sent.append(msg)


class FakeMesh:
    """Records what each row is sent; every rank but 0 has joined over
    its own row."""

    def __init__(self, n):
        self.sent = {r: [] for r in range(n)}
        self.peers = list(range(1, n))
        self.attached = [-1] + list(range(1, n))

    def send(self, row, msg, size=None):
        self.sent[row].append(msg)

    def send_all(self, rows, msg, size=None):
        for row in rows:
            self.send(row, msg, size)


def make_core(n=3, blocking=False, seed=0):
    engine = Engine(seed=seed)
    cluster = Cluster(engine, 1, name_prefix="m")
    def idle(p):
        yield engine.event()

    proc = cluster.node(0).spawn("vdaemon.0", idle, notify=False)
    config = VclConfig(n_procs=n, n_machines=n + 1, footprint=3e8,
                       blocking=blocking)

    def app(ep):
        yield ep.engine.event()

    core = VclDaemon(proc, config, rank=0, epoch=0, incarnation=1,
                     app_factory=app)
    core.mesh = FakeMesh(n)
    core.sched_sock = FakeSock()
    core.ckpt_sock = FakeSock()
    return engine, core


def msg(src, tag=1, payload=0):
    return AppMessage(src=src, dst=0, tag=tag, payload=payload, size=64)


def test_marker_starts_checkpoint_and_relays():
    engine, core = make_core()
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    assert core.logging_wave == 1
    assert core.pending_markers == {1, 2}
    for peer in core.mesh.peers:
        relayed = [m for m in core.mesh.sent[peer]
                   if isinstance(m, wire.Marker)]
        assert len(relayed) == 1 and relayed[0].wave == 1


def test_duplicate_and_stale_markers_ignored():
    engine, core = make_core()
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    assert core.current_wave == 1
    assert core.logging_wave is None
    # stale re-delivery changes nothing
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    assert core.current_wave == 1
    relays = sum(1 for peer in core.mesh.peers
                 for m in core.mesh.sent[peer] if isinstance(m, wire.Marker))
    assert relays == 2      # one per peer, once


def test_peer_marker_first_excludes_that_channel():
    engine, core = make_core()
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    assert core.pending_markers == {1}


def test_late_channel_messages_logged_and_delivered():
    engine, core = make_core()
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    # message from rank 1 (marker still pending): channel state
    core.on_data(1, msg(1, tag=10))
    # message from rank 2 after its marker arrived: not channel state
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    core.on_data(2, msg(2, tag=11))
    assert [m.tag for m in core.late_logs] == [10]
    # both were delivered live to the application buffer
    assert [m.tag for m in core.app_state[UNMATCHED_KEY]] == [10, 11]
    # closing the window ships the logs and completes the image
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    assert core.wave_img.complete
    assert [m.tag for m in core.wave_img.logs] == [10]
    appends = [m for m in core.ckpt_sock.sent
               if isinstance(m, wire.CkptLogAppend)]
    assert len(appends) == 1 and [m.tag for m in appends[0].logs] == [10]


def test_late_logs_reach_the_shard_once():
    """The shard's copy of a non-blocking image holds each late channel
    message once: the image is shipped without them, and the wave's
    ``CkptLogAppend`` carries them."""
    engine, core = make_core()
    # the wave of test_late_channel_messages_logged_and_delivered
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    core.on_data(1, msg(1, tag=10))
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    core.on_data(2, msg(2, tag=11))
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    # past the local write: the transfer thread ships the image
    engine.run(until=core.config.image_size / core.timing.local_disk_bw + 1)
    sent = list(core.ckpt_sock.sent)
    assert [type(m) for m in sent] == [wire.CkptLogAppend, wire.CkptStore]

    # a real checkpoint server ingests what the daemon sent, in order
    node = core.proc.node
    server = node.spawn("ckptserver",
                        lambda p: ckpt_server_main(p, core.config, 0),
                        notify=False)

    def feed(p):
        sock = yield node.connect(
            node.addr(core.config.ckpt_server_port_base), owner=p)
        for m in sent:
            sock.send(m)
        yield engine.event()

    node.spawn("feeder", feed, notify=False)
    engine.run()
    img = server.tags["ckpt_state"].images[1][0]
    assert [m.tag for m in img.logs] == [10]


def test_snapshot_contains_delivered_unconsumed_messages():
    engine, core = make_core()
    core.on_data(1, msg(1, tag=5))          # delivered before the wave
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    assert [m.tag for m in core.wave_img.state[UNMATCHED_KEY]] == [5]
    assert core.wave_img.logs == []          # in state, not channel logs


def test_sched_ack_requires_two_server_acks_and_logging_end():
    engine, core = make_core()
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    core._note_store_ack(1)
    core._note_store_ack(1)
    assert not any(isinstance(m, wire.SchedAck) for m in core.sched_sock.sent)
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    # _finish_logging sent the append; its ack is the third
    core._note_store_ack(1)
    acks = [m for m in core.sched_sock.sent if isinstance(m, wire.SchedAck)]
    assert len(acks) >= 1 and acks[0].wave == 1


def test_blocking_holds_post_flush_messages_out_of_snapshot():
    engine, core = make_core(blocking=True)
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    core.on_data(1, msg(1, tag=20))          # pre-flush: channel content
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    core.on_data(1, msg(1, tag=21))          # rank 1 already flushed: held
    assert [m.tag for m in core.post_flush] == [21]
    assert [m.tag for m in core.app_state[UNMATCHED_KEY]] == [20]
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    # snapshot taken at flush: includes 20, excludes 21
    assert [m.tag for m in core.wave_img.state[UNMATCHED_KEY]] == [20]
    # and 21 was released to the live application afterwards
    assert [m.tag for m in core.app_state[UNMATCHED_KEY]] == [20, 21]
    assert core.post_flush == []


def test_blocking_single_server_ack_suffices():
    engine, core = make_core(blocking=True)
    core.handle_marker(wire.Marker(wave=1, src_rank=-1))
    core.handle_marker(wire.Marker(wave=1, src_rank=1))
    core.handle_marker(wire.Marker(wave=1, src_rank=2))
    core._note_store_ack(1)
    acks = [m for m in core.sched_sock.sent if isinstance(m, wire.SchedAck)]
    assert len(acks) == 1


def test_self_send_bypasses_network():
    engine, core = make_core()
    core.app_send(AppMessage(src=0, dst=0, tag=9, payload="x", size=10))
    assert [m.tag for m in core.app_state[UNMATCHED_KEY]] == [9]
    assert all(not sent for sent in core.mesh.sent.values())


def test_send_to_dead_peer_dropped():
    """Over a real mesh: once the peer's process is dead, what the
    daemon sends it goes on no wire."""
    engine = Engine(seed=0)
    cluster = Cluster(engine, 2, name_prefix="m")

    def idle(p):
        yield engine.event()

    proc = cluster.node(0).spawn("vdaemon.0", idle, notify=False)
    peer = cluster.node(1).spawn("peer", idle, notify=False)
    core = VclDaemon(proc, VclConfig(n_procs=2, n_machines=3,
                                     footprint=3e8),
                     rank=0, epoch=0, incarnation=1, app_factory=idle)
    core.mesh = Mesh(proc, cluster.node(0).listen(9, owner=proc), 0, 2,
                     core.on_peer_msg, None, core.accept_hello,
                     core.on_peer_connected)
    got = []
    far = Mesh(peer, cluster.node(1).listen(9, owner=peer), 1, 2,
               lambda row, msg: got.append(msg.app.tag), None, None,
               lambda rows: (far.send(0, wire.Hello(rank=1, epoch=0)),
                             far.serve(0)))
    far.dial([(0, cluster.node(0).addr(9))], 1.0, 1.0, lambda: False)
    engine.run(until=1.0)
    assert core.mesh.peers == [1]
    network = cluster.network
    core.app_send(AppMessage(src=0, dst=1, tag=8, payload="x", size=10))
    engine.run(until=2.0)
    assert got == [8]
    peer.kill()
    engine.run(until=3.0)
    before = network.messages_sent
    core.app_send(AppMessage(src=0, dst=1, tag=9, payload="x", size=10))
    engine.run(until=4.0)
    assert network.messages_sent == before and got == [8]
