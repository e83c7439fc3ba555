"""``Network`` against the per-pair FIFO model (``reference_network``).

A hypothesis state machine drives a real three-node cluster and the
model with the same random program: dials into one listener, sends of
sizes that queue behind each other on a pipe, closes, kills, host
isolations and heals (one of them before its severance lands),
debugger stops and continues — each between instants, after the clock has moved by 0, a
fraction of a latency, one or two latencies or much more.  After every
move of the clock, what each end's reader was handed (and when), when
each receive stream closed, when and how each dial ended and how many
messages went on the wire must be what the model says.  The same
machine then drives the daemons' :class:`~repro.cluster.network.Mesh`
against the model's mesh reading.

Mutants this kills (each checked on a copy of the tree): a close notice
that overtakes what its end already sent; a severance that ignores a
heal landing first; a close that keeps its buffered messages readable.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from reference_network import CLOSED, Model
from repro.cluster.cluster import Cluster
from repro.cluster.network import ConnectionRefused, Mesh
from repro.simkernel.engine import Engine

LATENCY = 1.37e-4
BANDWIDTH = 1e6
#: on the wire: one latency plus 0, 0.14, 2 and 33 ms
SIZES = (0, 137, 1999, 33333)
STEPS = (0.0, 0.4 * LATENCY, LATENCY, 2 * LATENCY, 3.1e-3, 0.05)
PROCS = ("p0", "p1", "p2")


class RealWorld:
    """``p0`` listens on node 0 and reads every end it accepts; ``p1``
    and ``p2`` dial it and read the ends they get."""

    def __init__(self):
        self.eng = eng = Engine(seed=0)
        self.cluster = Cluster(eng, 3, latency=LATENCY, bandwidth=BANDWIDTH)
        self.network = self.cluster.network
        self.log = {}
        self.ends = {}

        def forever(proc):
            yield eng.event()

        self.procs = {name: self.cluster.node(i).spawn(name, forever)
                      for i, name in enumerate(PROCS)}
        eng.run(until=0.0)
        p0 = self.procs["p0"]
        self.listener = self.cluster.node(0).listen(1, owner=p0)
        p0.spawn_reader(self.listener, lambda sock: self.read(
            p0, f"s{sock.conn_id}", sock))

    def note(self, who, what):
        self.log.setdefault(who, []).append((round(self.eng.now, 9), what))

    def read(self, proc, name, sock):
        self.ends[name] = sock
        proc.spawn_reader(sock, lambda msg: self.note(name, msg),
                          lambda: self.note(name, CLOSED))

    def connect(self, name):
        proc = self.procs[name]

        def outcome(ev):
            if isinstance(ev.exception, ConnectionRefused):
                self.note(name, "refused")
            elif proc.state.alive:
                sock = ev.value
                self.note(name, f"connected c{sock.conn_id}")
                self.read(proc, f"c{sock.conn_id}", sock)

        self.network.connect(proc.node.name, self.listener.addr,
                             proc).add_callback(outcome)

    def send(self, name, msg, size):
        sock = self.ends[name]
        if not sock.closed:
            sock.send(msg, size=size)


class NetworkVersusModel(RuleBasedStateMachine):

    @initialize()
    def build(self):
        self.real = RealWorld()
        hosts = {name: proc.node.name
                 for name, proc in self.real.procs.items()}
        self.model = Model(LATENCY, BANDWIDTH, hosts, "p0")
        self.t = 0.0
        self.msg = 0

    def end(self, i):
        names = sorted(self.real.ends, key=lambda n: (int(n[1:]), n[0]))
        return names[i % len(names)] if names else None

    def model_end(self, name):
        [end] = [e for e in self.model.ends if e.name == name]
        return end

    @rule(dt=st.sampled_from(STEPS))
    def advance(self, dt):
        self.t += dt
        self.real.eng.run(until=self.t)
        self.model.advance(self.t)
        assert self.real.log == self.model.log
        assert self.real.network.messages_sent == self.model.sent

    def settle(self):
        """What a verb set off at this instant runs before the next
        verb."""
        self.real.eng.run(until=self.t)
        self.model.read()

    @rule(who=st.sampled_from(PROCS[1:]))
    def connect(self, who):
        self.real.connect(who)
        self.model.connect(who)

    @rule(i=st.integers(0, 15), size=st.sampled_from(SIZES),
          count=st.integers(1, 3))
    def send(self, i, size, count):
        name = self.end(i)
        if name is None:
            return
        for _ in range(count):
            self.msg += 1
            self.real.send(name, self.msg, size)
            self.model.send(self.model_end(name), self.msg, size)

    @rule(i=st.integers(0, 15))
    def close(self, i):
        name = self.end(i)
        if name is not None:
            self.real.ends[name].close()
            self.model.close(self.model_end(name))
            self.settle()

    @rule(who=st.sampled_from(PROCS))
    def kill(self, who):
        self.real.procs[who].kill()
        self.model.kill(who)
        self.settle()

    @rule(who=st.sampled_from(PROCS))
    def stop(self, who):
        self.real.procs[who].suspend()
        self.model.stop(who)
        self.settle()

    @rule(who=st.sampled_from(PROCS))
    def cont(self, who):
        self.real.procs[who].resume_all()
        self.model.cont(who)
        self.settle()

    @rule(who=st.sampled_from(PROCS))
    def isolate(self, who):
        host = self.real.procs[who].node.name
        self.real.network.isolate(host)
        self.model.isolate(host)

    @rule(who=st.sampled_from(PROCS))
    def flap(self, who):
        """An isolation healed before its severance lands."""
        self.isolate(who)
        self.advance(0.4 * LATENCY)
        self.heal()

    @rule()
    def heal(self):
        self.real.network.heal()
        self.model.heal()


NetworkVersusModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestNetworkVersusModel = NetworkVersusModel.TestCase


# ---------------------------------------------------------------------------
# the same machine over Mesh channels
# ---------------------------------------------------------------------------

class MeshWorld:
    """``p0``'s mesh (rank 0) is dialed once by each incarnation of
    ``p1`` and ``p2`` (ranks 1 and 2), whose first word is its name;
    every end is read from its handshake on.  A refused dial is not
    retried.  Once an end's close is read its row may carry the next
    connection with that rank, so nothing more is sent under its name:
    a daemon leaves the row then."""

    def __init__(self):
        self.eng = eng = Engine(seed=0)
        self.cluster = Cluster(eng, 3, latency=LATENCY, bandwidth=BANDWIDTH)
        self.network = self.cluster.network
        self.log = {}
        self.ends = {}
        self.gone = set()
        self.procs = {name: self.spawn(name, i)
                      for i, name in enumerate(PROCS)}
        eng.run(until=0.0)
        self.meshes = {name: self.mesh(name) for name in PROCS}

    def spawn(self, name, rank):
        def forever(proc):
            yield self.eng.event()

        return self.cluster.node(rank).spawn(name, forever)

    def note(self, who, what):
        self.log.setdefault(who, []).append((round(self.eng.now, 9), what))

    def mesh(self, name):
        rank = int(name[1])
        proc = self.procs[name]
        listener = proc.node.listen(1, owner=proc)
        # rank 0 names the server end of a row by who said hello on it,
        # a dialer its client end by itself
        names = {}

        def hello(row, msg):
            names[row] = f"s{msg}"
            self.ends[names[row]] = (mesh, row)
            self.note(names[row], msg)
            mesh.serve(row)

        def connected(rows):
            [row] = rows        # one dial per incarnation
            names[row] = f"c{name}"
            self.ends[names[row]] = (mesh, row)
            self.note(name, f"connected c{name}")
            mesh.send(row, name, size=0)
            mesh.serve(row)

        mesh = Mesh(proc, listener, rank, 3,
                    lambda row, msg: self.note(names[row], msg),
                    lambda row: self.left(names[row]), hello, connected)
        return mesh

    def left(self, name):
        self.note(name, CLOSED)
        self.gone.add(name)

    def restart(self, name, incarnation):
        self.procs[incarnation] = self.spawn(incarnation, int(name[1]))
        self.eng.run(until=self.eng.now)
        self.meshes[incarnation] = self.mesh(incarnation)

    def connect(self, name):
        tried = []

        def stop():
            tried.append(1)
            return len(tried) > 1

        self.meshes[name].dial([(0, self.cluster.node(0).addr(1))],
                               1.0, 1.0, stop)

    def send(self, name, msg, size):
        if name not in self.gone:
            mesh, row = self.ends[name]
            mesh.send(row, msg, size=size)


class MeshVersusModel(NetworkVersusModel):
    """No ``close`` of a single end (a mesh end closes with its
    process), one dial per incarnation, a dead dialer's next
    incarnation starts on its node and dials at once (the accepting
    side's row for that rank may still be busy with the last one: its
    close unread, or still on its way), and only the accepting process
    is stopped: a stopped dialer's hello would wait for the continue.
    ``p0`` also sends a message per row in one call, as V2's prune notes
    go out."""

    @initialize()
    def build(self):
        self.real = MeshWorld()
        hosts = {name: proc.node.name
                 for name, proc in self.real.procs.items()}
        self.model = Model(LATENCY, BANDWIDTH, hosts, "p0", mesh=True)
        self.t = 0.0
        self.msg = 0
        self.dialed = set()
        self.current = {name: name for name in PROCS}

    def end(self, i):
        names = sorted(self.real.ends)
        return names[i % len(names)] if names else None

    @rule(who=st.sampled_from(PROCS[1:]))
    def connect(self, who):
        name = self.current[who]
        if name not in self.dialed:
            self.dialed.add(name)
            NetworkVersusModel.connect(self, name)
            self.settle()           # a mesh dials from a payload

    @rule(who=st.sampled_from(PROCS))
    def kill(self, who):
        NetworkVersusModel.kill(self, self.current[who])

    @rule(who=st.sampled_from(PROCS[1:]))
    def restart(self, who):
        """A dead dialer's next incarnation starts and dials."""
        name = self.current[who]
        if not self.real.procs[name].state.alive:
            self.current[who] = incarnation = name + "'"
            self.real.restart(name, incarnation)
            self.model.restart(name, incarnation)
            self.connect(who)

    @rule(size=st.sampled_from(SIZES))
    def send_each(self, size):
        """``p0`` sends a message of its own down each row it accepted,
        in one call: a list of one message per row."""
        mesh = self.real.meshes["p0"]
        ends = [(name, row) for name, (m, row) in sorted(self.real.ends.items())
                if m is mesh and name not in self.real.gone]
        msgs = []
        for name, _row in ends:
            self.msg += 1
            msgs.append(self.msg)
            self.model.send(self.model_end(name), self.msg, size)
        mesh.send_all([row for _name, row in ends], msgs, size=size)

    @rule()
    def close(self):
        pass

    @rule()
    def stop(self):
        NetworkVersusModel.stop(self, "p0")

    @rule()
    def cont(self):
        NetworkVersusModel.cont(self, "p0")


MeshVersusModel.TestCase.settings = settings(
    max_examples=250, stateful_step_count=40, deadline=None)
TestMeshVersusModel = MeshVersusModel.TestCase


@pytest.mark.parametrize("stopped", [False, True])
@pytest.mark.parametrize("gap", STEPS)
def test_a_restart_while_the_last_connection_is_busy(stopped, gap):
    """The machine's moves where ``p0``'s row for rank 1 is still busy
    with the last incarnation's connection when the next one dials: its
    close not yet landed, landed but unread (``p0`` stopped), or landed
    and read — the random machine rarely strings these together."""
    machine = MeshVersusModel()
    machine.build()
    machine.connect("p1")
    machine.connect("p2")
    machine.advance(STEPS[3])
    if stopped:
        machine.stop()
    machine.kill("p1")
    machine.advance(gap)
    machine.restart("p1")
    for dt in STEPS[1:]:
        machine.advance(dt)
        machine.send(1, 137, 1)
    machine.cont()
    machine.advance(STEPS[-1])
    machine.send(2, 1999, 2)
    machine.advance(STEPS[-1])
    assert "sp1'" in machine.real.ends


def test_a_severed_row_carries_the_next_incarnation():
    """A severance closes ``p0``'s row for rank 2, the close is read, and
    the next incarnation's connection takes the same row: what ``p0``
    then sends goes to the new connection alone, and the old end's name
    sends nothing."""
    machine = MeshVersusModel()
    machine.build()
    machine.connect("p2")
    machine.advance(STEPS[3])
    machine.isolate("p0")
    machine.advance(STEPS[2])
    machine.heal()
    machine.kill("p2")
    machine.restart("p2")
    machine.advance(STEPS[3])
    machine.send_each(0)
    machine.send(0, 0, 1)
    machine.advance(STEPS[2])
    machine.advance(STEPS[-1])
    machine.send_each(137)
    machine.advance(STEPS[-1])
    assert machine.real.ends["sp2"] == machine.real.ends["sp2'"]
    assert machine.real.log["cp2'"]
