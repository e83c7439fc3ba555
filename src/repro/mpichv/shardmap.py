"""Deterministic service placement and checkpoint-server sharding.

One deployment's service nodes follow a fixed layout (Fig. 2b of the
paper, generalized to ``k`` checkpoint servers):

========================  =================================================
``svc0``                  dispatcher
``svc1``                  protocol coordinator (vcl: checkpoint scheduler,
                          v2: stable event logger, v1: idle)
``svc2 .. svc{1+k}``      checkpoint servers, shard 0 .. k-1
``svc{2+k} ..``           protocol extras (v1: channel memories)
========================  =================================================

Every rank is assigned to exactly one checkpoint-server *shard* by
:func:`ckpt_shard` — a pure function of ``(rank, n_ckpt_servers)``, so
the daemon dialing its server, the restart path fetching a committed
image, and the scheduler's commit broadcast all agree without any
coordination, across every protocol and every incarnation.  ``k = 1``
degenerates to the single-server deployment (every rank maps to shard
0) and is bit-identical to it; ``k > n_procs`` is legal — the surplus
servers deploy and simply stay idle.

This module is the single source of truth for the layout: nothing
outside it may spell ``svc{2+...}`` arithmetic.
"""

from __future__ import annotations

from typing import Tuple

#: fixed service nodes of every deployment
DISPATCHER_NODE = "svc0"
COORDINATOR_NODE = "svc1"

#: service-node index of checkpoint shard 0
_CKPT_BASE = 2


def ckpt_shard(rank: int, n_ckpt_servers: int) -> int:
    """Shard owning ``rank``'s checkpoint images (``rank % k``)."""
    if n_ckpt_servers < 1:
        raise ValueError(f"need at least one checkpoint server, "
                         f"got {n_ckpt_servers}")
    if rank < 0:
        raise ValueError(f"negative rank {rank}")
    return rank % n_ckpt_servers


def ckpt_server_node(shard: int) -> str:
    """Service node hosting checkpoint shard ``shard``."""
    return f"svc{_CKPT_BASE + shard}"


def ckpt_server_port(config, shard: int) -> int:
    """Listen port of checkpoint shard ``shard``."""
    return config.ckpt_server_port_base + shard


def ckpt_server_for_rank(config, rank: int) -> Tuple[str, int]:
    """(node, port) of the checkpoint server owning ``rank``."""
    shard = ckpt_shard(rank, config.n_ckpt_servers)
    return ckpt_server_node(shard), ckpt_server_port(config, shard)


def extras_base(config) -> int:
    """First service-node index after the checkpoint servers."""
    return _CKPT_BASE + config.n_ckpt_servers


def cm_node(config, cm_index: int) -> str:
    """Service node hosting Channel Memory ``cm_index`` (v1)."""
    return f"svc{extras_base(config) + cm_index}"


def cm_port(config, cm_index: int) -> int:
    """Listen port of Channel Memory ``cm_index`` (v1)."""
    return config.channel_memory_port_base + cm_index
