"""The checkpoint server (paper §3, "Checkpoint server and checkpoint
mechanism").

Each server owns a disk whose bandwidth serializes image ingestion —
the reason a checkpoint wave takes several seconds and the lever behind
the Fig. 6 discussion (bigger per-process images at small scale).  A
deployment runs one server per *shard* (``n_ckpt_servers``); ranks are
assigned to servers by the deterministic shard map in
:mod:`repro.mpichv.shardmap`, so at scale the ingest load spreads over
k disks instead of funnelling through one.  Storage is the paper's
two-file alternation as this shard sees it: the images of the shard's
two newest wave numbers are kept, whichever ranks they hold, and a
wave becomes restorable only when the scheduler commits it.  Evicting
by age can drop the committed wave (an aborted wave and a newer one
push it out): ROADMAP item 16 is that defect.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.coverage import hit_bucket
from repro.cluster.unixproc import UnixProcess
from repro.mpichv.checkpoint import CheckpointImage
from repro.mpichv import shardmap, wire
from repro.mpichv.config import SERVER_DISK_BW
from repro.simkernel.store import Store, StoreClosed


class CkptServerState:
    """Shared state of one checkpoint server process."""

    def __init__(self) -> None:
        #: wave -> rank -> CheckpointImage
        self.images: Dict[int, Dict[int, CheckpointImage]] = {}
        self.committed_wave: Optional[int] = None
        #: log batches that arrived before their image (the message
        #: connection can outrun the pipelined data connection)
        self._early_logs: Dict[tuple, list] = {}
        #: shard load accounting: bytes written through this server's
        #: disk (images + logs), surfaced via
        #: ``RunResult.ckpt_shard_bytes`` — the Fig. 6 ingest hot
        #: spot, and how sharding dissolves it
        self.bytes_ingested: int = 0
        #: disk-queue wait of every request, in milliseconds, as a
        #: log-bucketed histogram (bucket -> requests): how long the
        #: Fig. 6 ingest bottleneck keeps a daemon waiting
        self.disk_wait_ms: Dict[int, int] = {}

    def note_disk_wait(self, wait_ms: float) -> None:
        """Count one request's queue wait in its log bucket (1, 2, 4,
        ...); a wait below 1 ms shares the bucket 1 — smaller than the
        resolution is one behaviour, not many."""
        bucket = hit_bucket(max(1, int(wait_ms)))
        self.disk_wait_ms[bucket] = self.disk_wait_ms.get(bucket, 0) + 1

    def store_image(self, img: CheckpointImage) -> None:
        early = self._early_logs.pop((img.wave, img.rank), None)
        if early is not None:
            img.logs.extend(early)
            img.complete = True
        self.images.setdefault(img.wave, {})[img.rank] = img
        # keep the shard's two newest wave numbers (whole waves, not
        # two per rank; ROADMAP item 16: this can drop the committed one)
        waves = sorted(self.images)
        for wave in waves[:-2]:
            del self.images[wave]

    def append_logs(self, rank: int, wave: int, logs) -> None:
        img = self.images.get(wave, {}).get(rank)
        if img is not None:
            img.logs.extend(logs)
            img.complete = True
        else:
            self._early_logs.setdefault((wave, rank), []).extend(logs)

    def commit(self, wave: int) -> None:
        self.committed_wave = wave

    def lookup(self, rank: int, wave: Optional[int]) -> Optional[CheckpointImage]:
        if wave is None:
            wave = self.committed_wave
        if wave is None:
            return None
        return self.images.get(wave, {}).get(rank)


def ckpt_server_main(proc: UnixProcess, server_index: int):
    """Main generator of a checkpoint server process."""
    engine = proc.engine
    proc.site = f"ckpt{server_index}"
    state = CkptServerState()
    proc.tags["ckpt_state"] = state
    listener = proc.node.listen(shardmap.ckpt_server_port(server_index),
                                owner=proc)

    #: FIFO disk queue: (kind, nbytes, t_enqueued, fn) — fn runs when
    #: the disk I/O ends; kind/t_enqueued feed the store spans and the
    #: queue-wait histogram
    disk_q: Store = Store(engine, name=f"ckptsrv{server_index}.disk")

    def disk_writer():
        while True:
            try:
                kind, nbytes, t_enq, fn = yield disk_q.get()
            except StoreClosed:
                return
            state.note_disk_wait((engine.now - t_enq) * 1000.0)
            # the disk serializes, so store spans on this lane are
            # disjoint
            span = engine.span("store", lane=proc.node.name,
                               op=kind, bytes=nbytes,
                               server=server_index)
            if nbytes > 0:
                yield engine.timeout(nbytes / SERVER_DISK_BW)
            fn()
            engine.end(span)

    proc.spawn_thread(disk_writer(), name=f"ckptsrv{server_index}.disk")

    def serve_conn(sock) -> None:
        def on_msg(msg) -> None:
            if isinstance(msg, wire.CkptStore):
                img = CheckpointImage(rank=msg.rank, wave=msg.wave,
                                      state=msg.state, img_size=msg.img_size)

                def _stored():
                    state.store_image(img)
                    state.bytes_ingested += img.img_size
                    engine.log("ckpt_stored", rank=img.rank, wave=img.wave,
                               server=server_index)
                    if not sock.closed and sock.peer_alive:
                        sock.send(wire.CkptStoredAck(rank=img.rank,
                                                     wave=img.wave), cause=msg)

                disk_q.put(("image", msg.img_size, engine.now, _stored))
            elif isinstance(msg, wire.CkptLogAppend):

                def _logged():
                    state.append_logs(msg.rank, msg.wave, msg.logs)
                    state.bytes_ingested += msg.size
                    if not sock.closed and sock.peer_alive:
                        sock.send(wire.CkptStoredAck(rank=msg.rank,
                                                     wave=msg.wave), cause=msg)

                disk_q.put(("logs", msg.size, engine.now, _logged))
            elif isinstance(msg, wire.FetchReq):

                def _read():
                    img = state.lookup(msg.rank, msg.wave)
                    if img is None:
                        resp = wire.FetchResp(rank=msg.rank, wave=None, state=None)
                    else:
                        snap = img.snapshot_of()
                        resp = wire.FetchResp(rank=msg.rank, wave=snap.wave,
                                              state=snap.state, logs=snap.logs,
                                              img_size=snap.img_size)
                    sock.send(resp, cause=msg)

                img = state.lookup(msg.rank, msg.wave)
                read_bytes = img.img_size if img is not None else 0
                disk_q.put(("fetch", read_bytes, engine.now, _read))
            elif isinstance(msg, wire.WaveCommit):
                state.commit(msg.wave)
            elif isinstance(msg, wire.Shutdown):
                # End of experiment: take the whole server process down
                # (asynchronously — we are one of its threads).
                engine.call_later(0.0, proc.kill)
                reader.kill()

        reader = proc.spawn_reader(sock, on_msg)

    proc.spawn_reader(listener, serve_conn)
    yield engine.event(name=f"ckptsrv{server_index}.forever")
