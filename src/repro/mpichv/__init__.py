"""MPICH-V runtime with the Vcl protocol (non-blocking Chandy-Lamport).

Components (mirroring Fig. 2 of the paper):

* :mod:`repro.mpichv.vdaemon` — the communication daemon paired with
  each MPI computation thread; relays application messages, implements
  marker handling and in-transit message logging;
* :mod:`repro.mpichv.dispatcher` — launches the application, detects
  failures through socket closures and orchestrates restart waves.
  Carries the paper's §5.3 dispatcher bug, toggleable via
  ``bug_compat``;
* :mod:`repro.mpichv.ckptserver` — checkpoint servers with two-slot
  (current / last complete) storage and disk-rate-limited ingestion;
* :mod:`repro.mpichv.shardmap` — deterministic service placement and
  checkpoint-server sharding (``rank`` modulo the shard count); the
  single source of truth for the ``svc*`` node layout;
* :mod:`repro.mpichv.scheduler` — the checkpoint scheduler emitting a
  marker wave every ``ckpt_period`` seconds, committing waves when all
  ranks acknowledge;
* :mod:`repro.mpichv.runtime` — wiring: builds the cluster deployment
  and runs an application under the chosen protocol;
* :mod:`repro.mpichv.daemonbase` — the generic daemon lifecycle every
  protocol's daemon runs (listener, dispatcher exchange, trace point,
  service dialing, mesh build, uniform termination);
* :mod:`repro.mpichv.protocols` — the protocol registry: each family
  member declares its daemon class, its service plan and its config
  validation; the dispatcher/runtime/config consult the registry
  instead of string-matching protocol names;
* :mod:`repro.mpichv.v2daemon` / :mod:`repro.mpichv.eventlog` — the V2
  protocol (pessimistic sender-based message logging), selectable via
  ``VclConfig(protocol="v2")``;
* :mod:`repro.mpichv.v1daemon` / :mod:`repro.mpichv.channelmemory` —
  the V1 protocol (remote pessimistic logging through stable Channel
  Memories), selectable via ``VclConfig(protocol="v1")``.
"""
