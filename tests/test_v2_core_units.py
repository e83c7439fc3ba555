"""Direct unit tests of the V2 daemon core (dedup, pessimistic hold,
replay staging, sender-log GC) — driven by hand, no full deployment."""

from repro.cluster.cluster import Cluster
from repro.mpi.endpoint import UNMATCHED_KEY
from repro.mpi.message import AppMessage
from repro.mpichv import wire
from repro.mpichv.checkpoint import CheckpointImage
from repro.mpichv.config import VclConfig
from repro.mpichv.v2daemon import DELIVERED, POS, SENT, V2Daemon
from repro.simkernel.engine import Engine


class FakeSock:
    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, msg, size=None, cause=None):
        self.sent.append(msg)

    def close(self):
        self.closed = True


class FakeMesh:
    """Records what each mesh row is sent; every rank but 0 has joined
    over its own row."""

    def __init__(self, n):
        self.sent = {r: [] for r in range(n)}
        self.order = []         # the rows sent to, in send order
        self.peers = list(range(1, n))
        self.attached = [-1] + list(range(1, n))
        self.closed = []

    def rank_of(self, row):
        return row

    def send(self, row, msg, size=None, cause=None):
        self.sent[row].append(msg)
        self.order.append(row)

    def send_all(self, rows, msg, size=None, cause=None):
        # a list is one message per row, anything else goes to every row
        for row, one in zip(rows, msg if type(msg) is list
                            else [msg] * len(rows)):
            self.send(row, one, size)

    def close_end(self, row, read=False):
        self.closed.append((row, read))

    def join(self, row):
        if self.attached[row] < 0:
            self.attached[row] = row
            self.peers.append(row)

    def leave(self, row):
        if self.attached[row] == row:
            self.attached[row] = -1
            self.peers.remove(row)


def make_core(n=3, seed=0):
    engine = Engine(seed=seed)
    cluster = Cluster(engine, 1, name_prefix="m")

    def idle(p):
        yield engine.event()

    proc = cluster.node(0).spawn("vdaemon.0", idle, notify=False)
    config = VclConfig(n_procs=n, n_machines=n + 1, footprint=3e8,
                       protocol="v2")

    def app(ep):
        yield ep.engine.event()

    core = V2Daemon(proc, config, rank=0, epoch=0, incarnation=1,
                    app_factory=app)
    core.mesh = FakeMesh(n)
    core.evlog_sock = FakeSock()
    core.ckpt_sock = FakeSock()
    core.next_pos_to_log = core.app_state[POS]
    return engine, core


def msg(src, tag=1):
    return AppMessage(src=src, dst=0, tag=tag, payload=0, size=64)


def buffered_tags(core):
    return [m.tag for m in core.app_state[UNMATCHED_KEY]]


def test_send_assigns_sequence_and_logs():
    engine, core = make_core()
    for tag in (1, 2, 3):
        core.app_send(AppMessage(src=0, dst=1, tag=tag, payload=0, size=64))
    sent = core.mesh.sent[1]
    assert [d.seq for d in sent] == [1, 2, 3]
    assert core.app_state[SENT][1] == 3
    assert [seq for seq, _m in core.send_log[1]] == [1, 2, 3]


def test_send_to_down_peer_logged_not_transmitted():
    engine, core = make_core()
    core.on_peer_gone(1)
    core.app_send(AppMessage(src=0, dst=1, tag=7, payload=0, size=64))
    assert core.mesh.sent[1] == []
    assert len(core.send_log[1]) == 1


def test_pessimistic_hold_until_logger_ack():
    engine, core = make_core()
    core.on_data(1, 1, msg(1, tag=10))
    # held: not yet delivered, but the log request went out
    assert buffered_tags(core) == []
    logs = [m for m in core.evlog_sock.sent if isinstance(m, wire.EvLog)]
    assert len(logs) == 1 and logs[0].pos == 1 and logs[0].src_seq == 1
    core.on_evlog_ack(1)
    assert buffered_tags(core) == [10]
    assert core.app_state[DELIVERED][1] == 1
    assert core.app_state[POS] == 1


def test_acks_release_in_order():
    engine, core = make_core()
    core.on_data(1, 1, msg(1, tag=10))
    core.on_data(2, 1, msg(2, tag=11))
    core.on_evlog_ack(2)       # cumulative ack covers both
    assert buffered_tags(core) == [10, 11]
    assert core.app_state[POS] == 2


def test_duplicate_suppression():
    engine, core = make_core()
    core.on_data(1, 1, msg(1, tag=10))
    core.on_evlog_ack(1)
    core.on_data(1, 1, msg(1, tag=10))      # re-sent duplicate
    assert buffered_tags(core) == [10]
    assert core.app_state[POS] == 1


def test_replay_follows_logged_order():
    engine, core = make_core()
    core.replaying = True
    core.begin_replay([(2, 1), (1, 1), (2, 2)])
    # resends arrive in a different order than the original delivery
    core.on_data(1, 1, msg(1, tag=101))
    assert buffered_tags(core) == []        # waits for (2,1) first
    core.on_data(2, 1, msg(2, tag=201))
    assert buffered_tags(core) == [201, 101]
    core.on_data(2, 2, msg(2, tag=202))
    assert buffered_tags(core) == [201, 101, 202]
    assert not core.replaying
    assert core.app_state[POS] == 3
    # replayed deliveries are NOT re-logged
    assert [m for m in core.evlog_sock.sent if isinstance(m, wire.EvLog)] == []


def test_post_replay_traffic_goes_through_logger():
    engine, core = make_core()
    core.replaying = True
    core.begin_replay([(1, 1)])
    core.on_data(1, 1, msg(1, tag=101))
    core.on_data(1, 2, msg(1, tag=102))      # beyond the log: staged
    assert not core.replaying
    # 102 went through the pessimistic path: held until ack
    assert buffered_tags(core) == [101]
    core.on_evlog_ack(core.app_state[POS] + 1)
    assert buffered_tags(core) == [101, 102]


def test_gc_note_prunes_sender_log():
    engine, core = make_core()
    for tag in range(5):
        core.app_send(AppMessage(src=0, dst=1, tag=tag, payload=0, size=64))
    # simulate the receiver's checkpoint covering seq <= 3
    note = wire.V2GcNote(rank=1, upto=3)
    log = core.send_log[1]
    while log and log[0][0] <= note.upto:
        log.popleft()
    assert [seq for seq, _ in core.send_log[1]] == [4, 5]


def test_post_checkpoint_sends_one_note_per_peer_in_peer_order():
    engine, core = make_core(n=5)
    core.on_peer_gone(2)
    core.mesh.join(2)               # rejoined: now last in peer order
    assert core.mesh.peers == [1, 3, 4, 2]
    img = CheckpointImage(rank=0, wave=1,
                          state={DELIVERED: {1: 7, 2: 4}, POS: 11})
    core.post_checkpoint(img)
    assert core.mesh.order == core.mesh.peers
    notes = []
    for row in core.mesh.peers:
        [note] = core.mesh.sent[row]
        assert isinstance(note, wire.V2GcNote) and note.rank == 0
        notes.append(note)
    # the image's counters, an untouched peer reading 0
    assert [note.upto for note in notes] == [7, 0, 0, 4]
    [prune] = core.evlog_sock.sent
    assert isinstance(prune, wire.EvPrune) and prune.upto == 11


def test_attach_peer_resends_from_request():
    engine, core = make_core()
    for tag in (1, 2, 3):
        core.app_send(AppMessage(src=0, dst=1, tag=tag, payload=0, size=64))
    core.on_peer_gone(1)
    core.attach_peer(1, resend_from=2)
    assert [d.seq for d in core.mesh.sent[1][3:]] == [2, 3]


def test_attach_peer_zero_means_no_resend():
    engine, core = make_core()
    core.app_send(AppMessage(src=0, dst=1, tag=1, payload=0, size=64))
    core.attach_peer(1, resend_from=0)
    assert len(core.mesh.sent[1]) == 1
