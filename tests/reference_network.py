"""A per-pair FIFO reference model of :class:`repro.cluster.network.Network`.

The model is a plain timeline of what the network promises, with no
engine, no slots and no readers: every connection is two ends, each
with its own outgoing pipe, and every observable thing — a message
handed to the process that reads an end, an end's receive stream
closing, a dial's outcome — is a ``(time, what)`` entry in that end's
(or that dialer's) log.  The rules, for a latency ``L`` and a bandwidth
``B`` shared by every path:

* a message of ``size`` bytes sent at ``t`` lands at ``max(pipe free,
  t + L + size / B)``, and the pipe is then busy until it lands, so a
  pair never reorders; a message sent to an end whose receive stream
  has closed, or across a cut, vanishes;
* closing an end (or killing its process) closes its own receive
  stream at once and the far end's when a notice lands, one latency
  later but never before what the end already sent (``max(pipe free,
  t + L)``); an end whose far end has closed owes no notice;
* a dial is refused after one round trip when nothing listens or the
  path is cut, at the dial or when it lands; otherwise both ends exist
  when it lands, and the dialer may have died meanwhile;
* a cut severs every registered connection that spans it one latency
  later, unless a heal comes first; a heal never resurrects anything;
* a reader is handed the first message that reaches it while it
  waits; what lands behind it waits until the reader is done with the
  instant's arrivals, so a close notice landing in that instant drops
  it (a reset drops unread data) — the handed message is still read;
* a process stopped by the debugger reads nothing until it is
  continued: what reached it waits, and is read at the continue, under
  the same rule.

With ``mesh=True`` the model is the one a daemon's
:class:`~repro.cluster.network.Mesh` keeps: a dialer says its name the
instant its dial lands, a dead process dials nothing (its next
incarnation, :meth:`Model.restart`, may), and the accepting side looks
at one landed connection at a time, in landing order — it reads a
connection from its first message on, and skips one that closes before
saying anything.

Commands are applied *between* instants: :meth:`Model.advance` runs
every model event up to and including ``t`` an instant at a time, as
``Engine.run(until=t)`` does, the readers reading after each instant's
arrivals; a command then acts after them, and its readers read at once.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Set, Tuple

CLOSED = "closed"


class End:
    """One end of a connection, read by its owner's reader."""

    def __init__(self, name: str, owner: str, host: str):
        self.name = name
        self.owner = owner
        self.host = host
        self.far: Optional["End"] = None
        self.pipe = 0.0
        self.closed = False         # closed by its owner
        self.rx_closed = False
        #: the reader has taken its first look (its owner was running)
        self.started = False
        #: the message handed over while the owner was stopped
        self.handed = None
        self.buf: List = []
        self.close_seen = False
        #: its owner holds it: a client end from the dial, a server end
        #: once the dial lands
        self.held = False
        #: its owner reads it: once the dial lands
        self.exists = False


class Model:
    def __init__(self, latency: float, bandwidth: float,
                 hosts: Dict[str, str], listener_owner: str,
                 mesh: bool = False):
        self.mesh = mesh
        #: landed connections the accept side has yet to read (mesh)
        self.accepting: List[End] = []
        self.L = latency
        self.B = bandwidth
        #: process -> host
        self.hosts = hosts
        self.listener_owner = listener_owner
        self.listening = True
        self.now = 0.0
        self._events: List[Tuple[float, int, object]] = []
        self._seq = itertools.count()
        self.alive: Set[str] = set(hosts)
        self.stopped: Set[str] = set()
        self.ends: List[End] = []
        #: live client ends, in registration order (severance scan)
        self.registry: Dict[End, None] = {}
        self.severing: Set[End] = set()
        self.cuts: Set[frozenset] = set()
        self.next_conn = 1
        #: messages that went on the wire (not the vanished ones)
        self.sent = 0
        self.log: Dict[str, List[Tuple[float, object]]] = {}

    # -- time --------------------------------------------------------------
    def at(self, t: float, fn) -> None:
        heapq.heappush(self._events, (t, next(self._seq), fn))

    def advance(self, t: float) -> None:
        while self._events and self._events[0][0] <= t:
            when = self._events[0][0]
            self.now = when
            while self._events and self._events[0][0] == when:
                heapq.heappop(self._events)[2]()
            self.read()
        self.now = t

    def note(self, who: str, what) -> None:
        self.log.setdefault(who, []).append((round(self.now, 9), what))

    def reachable(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) not in self.cuts

    def running(self, proc: str) -> bool:
        return proc in self.alive and proc not in self.stopped

    # -- reading ---------------------------------------------------------------
    def _arrive(self, end: End, msg) -> None:
        if end.rx_closed or end.owner not in self.alive:
            return
        if end.started and end.handed is None and not end.buf:
            end.handed = (msg,)
        else:
            end.buf.append(msg)

    def _rx_close(self, end: End) -> None:
        if not end.rx_closed:
            end.rx_closed = True
            end.buf = []

    def _see_closed(self, end: End) -> None:
        if not end.close_seen:
            end.close_seen = True
            self.note(end.name, CLOSED)

    def read(self) -> None:
        """Every running reader reads what reached it."""
        while self.accepting and self.running(self.listener_owner):
            end = self.accepting[0]
            end.started = True          # the accept side waits on it
            if end.handed is None and not end.buf:
                if not end.rx_closed:
                    break
            else:
                msg = end.handed[0] if end.handed else end.buf.pop(0)
                end.handed = None
                self.note(end.name, msg)
                end.exists = True
            self.accepting.pop(0)
        for end in self.ends:
            if end.exists and self.running(end.owner):
                self._first_look(end)

    def _first_look(self, end: End) -> None:
        """The reader takes its first look, or reads what waited."""
        end.started = True
        if end.handed is not None:
            self.note(end.name, end.handed[0])
            end.handed = None
        for msg in end.buf:
            self.note(end.name, msg)
        end.buf = []
        if end.rx_closed:
            self._see_closed(end)

    # -- commands ----------------------------------------------------------------
    def connect(self, proc: str) -> None:
        if self.mesh and proc not in self.alive:
            return                  # a mesh dials from its process
        src = self.hosts[proc]
        dst = self.hosts[self.listener_owner]
        t = self.now
        land = t + 2 * self.L
        if not self.listening or not self.reachable(src, dst):
            if not self.mesh:
                self.at(land, lambda: self.note(proc, "refused"))
            return
        cid = proc if self.mesh else self.next_conn
        self.next_conn += 1
        client = End(f"c{cid}", proc, src)
        server = End(f"s{cid}", self.listener_owner, dst)
        client.held = True
        client.far, server.far = server, client
        self.ends += [client, server]

        def landed():
            if not self.listening or not self.reachable(src, dst):
                if not self.mesh:
                    self.note(proc, "refused")
                self.ends.remove(client)
                self.ends.remove(server)
                return
            if not client.closed:
                self.registry[client] = None
            server.held = True
            if self.mesh:
                self.accepting.append(server)
            else:
                server.exists = True
            if proc in self.alive:
                self.note(proc, f"connected c{cid}")
                client.exists = True
                if self.mesh:
                    self.send(client, proc, 0)

        self.at(land, landed)

    def send(self, end: End, msg, size: int) -> None:
        far = end.far
        if end.closed or far is None or far.rx_closed:
            return
        if not self.reachable(end.host, far.host):
            return
        arrival = max(end.pipe, self.now + self.L + size / self.B)
        end.pipe = arrival
        self.sent += 1
        self.at(arrival, lambda: self._arrive(far, msg))

    def close(self, end: End, seen: bool = True) -> None:
        if end.closed:
            return
        end.closed = True
        if seen:
            self._rx_close(end)
        else:
            end.rx_closed = True
            end.buf = []
        self.registry.pop(end, None)
        far = end.far
        if far is None or far.closed:
            return
        self.at(max(end.pipe, self.now + self.L),
                lambda: self._rx_close(far))

    def kill(self, proc: str) -> None:
        if proc not in self.alive:
            return
        self.alive.discard(proc)
        self.stopped.discard(proc)
        if proc == self.listener_owner:
            self.listening = False
        for end in self.ends:
            if end.owner == proc and end.held:
                self.close(end, seen=False)

    def restart(self, proc: str, incarnation: str) -> None:
        """``incarnation`` runs where dead ``proc`` did."""
        self.hosts[incarnation] = self.hosts[proc]
        self.alive.add(incarnation)

    def stop(self, proc: str) -> None:
        if proc in self.alive:
            self.stopped.add(proc)

    def cont(self, proc: str) -> None:
        self.stopped.discard(proc)

    def cut(self, a: str, b: str) -> None:
        self.cuts.add(frozenset((a, b)))
        for client in list(self.registry):
            server = client.far
            if server is None or (client.rx_closed and server.rx_closed):
                continue
            if client in self.severing \
                    or self.reachable(client.host, server.host):
                continue
            self.severing.add(client)

            def fire(c=client, s=server):
                self.severing.discard(c)
                if self.reachable(c.host, s.host):
                    return
                for e in (c, s):
                    self._rx_close(e)
                self.registry.pop(c, None)

            self.at(self.now + self.L, fire)

    def heal(self) -> None:
        self.cuts.clear()
