"""Test-only views of a live :class:`repro.obs.causal.CausalGraph`.

The transmission table never leaves the recorder — the ``obs``
document carries only its folds — so tests that pin the table read it
off the recorder, before the runtime is dropped:

* :func:`run_keeping_recorder` runs one trial and hands back the result
  together with its recorder;
* :func:`mint` and :func:`send` drive a bare recorder the way the
  network's send paths do: a context minted for a message, and one
  send's rows written through ``put`` then closed with ``on_send``;
* :func:`graph_view` expands the columns into the node/edge graph they
  encode — row ``r`` is the node pair ``2r`` (send) / ``2r + 1``
  (receive) joined by a ``net`` edge, and a recorded parent row ``p``
  is a ``causal`` edge from ``p``'s receive to ``r``'s send;
* ``reference_*`` are the readers of the version-3 document, which held
  the columns themselves, kept verbatim as the oracle the recorder-side
  folds must equal (:func:`columns_doc` rebuilds that document;
  :func:`assert_folds_equal_reference` is the comparison).
"""

from types import SimpleNamespace

from repro.analysis.critpath import critical_paths
from repro.obs.causal import causal_kind_rollup, causal_totals, stamp
from repro.obs.phases import epoch_phase_table

#: indices into a node ``[id, t, host, kind]`` and an edge
#: ``[src_index, dst_index, type]`` of the expanded view
N_ID, N_T, N_HOST, N_KIND = 0, 1, 2, 3
E_SRC, E_DST, E_TYPE = 0, 1, 2


def run_keeping_recorder(setup, seed):
    """``(result, CausalGraph)`` of one trial of a ``TrialSetup``."""
    runtime, _deployment = setup.build(seed)
    return runtime.run(), runtime.obs.causal


class Msg:
    """A stand-in for a wire message (plain object, stampable)."""


def mint(graph, site, t, parent=None):
    """A fresh context on ``graph``, minted by ``site`` at ``t`` with
    cause ``parent`` (a context, or None), through :func:`stamp`."""
    engine = SimpleNamespace(obs=SimpleNamespace(causal=graph), now=t)
    cause = None
    if parent is not None:
        cause = Msg()
        vars(cause)["_causal_ctx"] = parent
    return stamp(engine, Msg(), site, cause)


def send(graph, ctx, kind, src, t_send, arrivals):
    """One send of ``ctx`` as the network's send loops record it: a row
    per ``(dst, t_recv)`` of ``arrivals`` while the recorder takes
    rows, then one ``on_send`` for the whole send."""
    put = graph.put
    for dst, t_recv in arrivals:
        if put is not None:
            put((t_recv, src, dst))
    graph.on_send(ctx, kind, t_send, len(arrivals))


def columns_of(graph):
    """The version-3 ``causal`` section: the recorder's columns."""
    return {
        "tid": graph.tid, "t_send": graph.t_send, "t_recv": graph.t_recv,
        "src": graph.src, "dst": graph.dst, "kind": graph.kind,
        "parent": graph.parent,
        "hosts": list(graph.hosts), "kinds": list(graph.kinds),
        "dropped_nodes": graph.dropped_nodes,
        "dropped_edges": graph.dropped_edges,
        "minted": graph.minted,
    }


def columns_doc(obs_doc, graph):
    """``obs_doc`` with the columns where its folds are."""
    return {**obs_doc, "causal": columns_of(graph)}


def graph_view(graph):
    """``(nodes, edges)`` of one recorder."""
    causal = columns_of(graph)
    hosts, kinds = causal["hosts"], causal["kinds"]
    nodes, edges = [], []
    for row, tid in enumerate(causal["tid"]):
        kind = kinds[causal["kind"][row]]
        nodes.append([f"{tid}:s", causal["t_send"][row],
                      hosts[causal["src"][row]], kind])
        nodes.append([f"{tid}:r", causal["t_recv"][row],
                      hosts[causal["dst"][row]], kind])
        edges.append([2 * row, 2 * row + 1, "net"])
        parent = causal["parent"][row]
        if parent >= 0:
            edges.append([2 * parent + 1, 2 * row, "causal"])
    return nodes, edges


# ---------------------------------------------------------------------------
# the version-3 readers, verbatim (minus the version check)
# ---------------------------------------------------------------------------

PHASES = ("detect", "relaunch", "restore", "replay")

ATTRIBUTION = {
    "FetchReq": "restore_transfer",
    "FetchResp": "restore_transfer",
    "EvFetch": "log_fetch",
    "EvFetchResp": "log_fetch",
    "CMAttach": "log_fetch",
    "CMDeliver": "replay",
    "V2Data": "replay",
    "DataMsg": "replay",
    "Marker": "sched_commit",
    "SchedAck": "sched_commit",
    "WaveCommit": "sched_commit",
    "Register": "relaunch_control",
    "RegisterAck": "relaunch_control",
    "CommandMap": "relaunch_control",
    "Terminate": "relaunch_control",
    "Hello": "mesh",
    "V2Hello": "mesh",
    "SchedHello": "mesh",
}

MAX_CHAIN = 64

_EPS = 1e-9


def causal_columns(obs_doc):
    causal = (obs_doc or {}).get("causal") or {}
    if not causal:
        return [], [], [], []
    kinds = causal["kinds"]
    return (causal["t_send"], causal["t_recv"],
            [kinds[k] for k in causal["kind"]], causal["parent"])


def node_id(obs_doc, row, recv):
    return f"{obs_doc['causal']['tid'][row]}:{'r' if recv else 's'}"


def reference_totals(obs_doc):
    causal = (obs_doc or {}).get("causal") or {}
    parent = causal.get("parent", ())
    return {"nodes": 2 * len(parent),
            "edges": len(parent) + sum(1 for p in parent if p >= 0),
            "minted": causal.get("minted", 0),
            "dropped_nodes": causal.get("dropped_nodes", 0),
            "dropped_edges": causal.get("dropped_edges", 0)}


def reference_kind_rollup(obs_doc):
    rollup = {}
    t_send, t_recv, kind, _parent = causal_columns(obs_doc)
    for row, name in enumerate(kind):
        entry = rollup.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += t_recv[row] - t_send[row]
    for entry in rollup.values():
        entry["seconds"] = round(entry["seconds"], 9)
    return rollup


def reference_critical_paths(obs_doc):
    phase_rows = epoch_phase_table(obs_doc)
    if not phase_rows:
        return []
    t_send, t_recv, kind, parent = causal_columns(obs_doc)
    # rows by receive instant (the sort is stable: ties in row order)
    recv_by_time = sorted(range(len(t_recv)), key=t_recv.__getitem__)

    out = []
    for prow in phase_rows:
        t0 = prow["t_fault"]
        segments = []
        t = t0
        recovery = 0.0          # the tiling identity, exact by construction
        for phase in PHASES:
            dur = prow[phase]
            segments.append({"phase": phase, "t0": t, "t1": t + dur,
                             "dur": dur})
            t = t + dur
            recovery += dur
        t_end = t

        attribution = {}
        for row, sent in enumerate(t_send):
            if sent < t0 - _EPS or sent > t_end + _EPS:
                continue
            cat = ATTRIBUTION.get(kind[row], "other")
            entry = attribution.setdefault(cat,
                                           {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += t_recv[row] - sent
        for entry in attribution.values():
            entry["seconds"] = round(entry["seconds"], 9)

        # backward chain from the last receive inside the window: a
        # receive steps to its own send, a send to the receive that
        # caused it
        chain = []
        row = -1
        for i in reversed(recv_by_time):
            if t_recv[i] <= t_end + _EPS:
                if t_recv[i] >= t0 - _EPS:
                    row = i
                break
        at_recv = True
        while row >= 0 and len(chain) < MAX_CHAIN:
            if (t_recv[row] if at_recv else t_send[row]) < t0 - _EPS:
                break
            chain.append(node_id(obs_doc, row, at_recv))
            if not at_recv:
                row = parent[row]
            at_recv = not at_recv
        chain.reverse()         # chronological: cause first

        out.append({
            "epoch": prow["epoch"],
            "rank": prow["rank"],
            "lane": prow["lane"],
            "suspected": prow["suspected"],
            "truncated": prow["truncated"],
            "t_fault": t0,
            "t_end": t_end,
            "recovery": recovery,
            "segments": segments,
            "attribution": attribution,
            "chain": chain,
        })
    return out


def assert_folds_equal_reference(obs_doc, graph):
    """The oracle: the version-3 readers applied to the live recorder's
    columns equal the document's folds exactly — floats and key order
    included.  Returns the critical-path rows."""
    old = columns_doc(obs_doc, graph)
    assert causal_totals(obs_doc) == reference_totals(old)
    rollup, reference = causal_kind_rollup(obs_doc), reference_kind_rollup(old)
    assert rollup == reference and list(rollup) == list(reference)
    rows = critical_paths(obs_doc)
    for row, ref in zip(rows, reference_critical_paths(old), strict=True):
        assert {**ref, "causal_truncated": row["causal_truncated"]} == row
        assert list(row["attribution"]) == list(ref["attribution"])
    return rows
