"""Unit tests of causal message tracing: graph recording + caps,
stamping helpers, the mint rule of the network's send paths, the
critical-path walk on synthetic documents, the trace-diff renderer,
and the campaign rollup exposition formats."""

import json

import pytest

from repro.analysis.classify import classify_run
from repro.analysis.critpath import (add_phase_seconds, critical_paths,
                                     render_critical_paths)
from repro.analysis.tracediff import trace_diff_text
from repro.analysis.traces import Trace
from repro.cluster.cluster import Cluster
from repro.cluster.network import Mesh
from repro.mpichv import wire
from repro.obs.spans import Obs
from repro.obs.causal import (MAX_CAUSAL_NODES, MAX_CHAIN, CausalGraph,
                              adopt, causal_kind_rollup, causal_totals,
                              ctx_of, stamp)
from repro.obs.phases import epoch_phase_table, recovery_window
from repro.obs.report import aggregate_obs, html_report, openmetrics_text
from repro.simkernel.engine import Engine
from causal_view import (E_TYPE, N_ID, Msg, assert_folds_equal_reference,
                         columns_of, graph_view, mint, send)


# ---------------------------------------------------------------------------
# graph recording
# ---------------------------------------------------------------------------

def test_mint_ids_are_per_site_and_deterministic():
    g = CausalGraph()
    assert [mint(g, "r0", 1.5), mint(g, "r0", 1.5), mint(g, "disp", 1.5)] \
        == [0, 1, 2]
    assert g.trace_ids([2, 0, 1]) == {0: "r0.1.1500000", 1: "r0.2.1500000",
                                      2: "disp.1.1500000"}
    assert g.minted == 3


def test_transmit_records_nodes_and_edges():
    g = CausalGraph()
    first = mint(g, "r0", 1.0)
    send(g, first, "AppMessage", "m1", 1.0, [("m2", 1.25)])
    # a derived message parented on the first one's receive
    second = mint(g, "r1", 1.25, parent=first)
    send(g, second, "EvLog", "m2", 1.25, [("svc1", 1.5)])
    tid, tid2 = "r0.1.1000000", "r1.1.1250000"
    # the table: one row per transmission, strings interned in
    # first-seen order, the parent as a row number
    assert columns_of(g) == {
        "tid": [tid, tid2],
        "t_send": [1.0, 1.25], "t_recv": [1.25, 1.5],
        "src": [0, 1], "dst": [1, 2], "kind": [0, 1], "parent": [-1, 0],
        "hosts": ["m1", "m2", "svc1"], "kinds": ["AppMessage", "EvLog"],
        "dropped_nodes": 0, "dropped_edges": 0, "minted": 2}
    nodes, edges = graph_view(g)
    assert nodes == [[f"{tid}:s", 1.0, "m1", "AppMessage"],
                     [f"{tid}:r", 1.25, "m2", "AppMessage"],
                     [f"{tid2}:s", 1.25, "m2", "EvLog"],
                     [f"{tid2}:r", 1.5, "svc1", "EvLog"]]
    assert [e[E_TYPE] for e in edges] == ["net", "net", "causal"]
    causal_edge = edges[2]
    assert nodes[causal_edge[0]][N_ID] == f"{tid}:r"
    assert nodes[causal_edge[1]][N_ID] == f"{tid2}:s"
    # the document form: the folds of that table, none of its rows
    assert g.to_doc() == {
        "totals": {"nodes": 4, "edges": 3, "minted": 2,
                   "dropped_nodes": 0, "dropped_edges": 0},
        "kinds": {"AppMessage": {"count": 1, "seconds": 0.25},
                  "EvLog": {"count": 1, "seconds": 0.25}},
        "epochs": []}


def test_broadcast_fanout_gets_unique_node_ids():
    g = CausalGraph()
    ctx = mint(g, "disp", 2.0)
    for i in range(3):          # one socket at a time
        send(g, ctx, "CommandMap", "svc0", 2.0, [(f"m{i}", 2.1)])
    # a reply to any copy hangs off the trace's first receive
    send(g, mint(g, "r1", 2.1, parent=ctx), "Register", "m1", 2.1,
         [("svc0", 2.2)])
    tid = "disp.1.2000000"
    assert g.tid[:3] == [tid, f"{tid}#1", f"{tid}#2"]
    assert g.parent == [-1, -1, -1, 0]
    ids = [n[N_ID] for n in graph_view(g)[0]]
    assert len(ids) == len(set(ids)) == 8
    assert f"{tid}:s" in ids and f"{tid}#1:s" in ids and f"{tid}#2:s" in ids
    # one flood over the three sockets records the same table
    flood = CausalGraph()
    ctx = mint(flood, "disp", 2.0)
    send(flood, ctx, "CommandMap", "svc0", 2.0,
         [(f"m{i}", 2.1) for i in range(3)])
    send(flood, mint(flood, "r1", 2.1, parent=ctx), "Register", "m1", 2.1,
         [("svc0", 2.2)])
    assert columns_of(flood) == columns_of(g)


def test_node_cap_and_drop_accounting():
    g = CausalGraph(max_nodes=4)
    t1 = mint(g, "r0", 1.0)
    send(g, t1, "A", "m1", 1.0, [("m2", 1.1)])
    # a parent that never crossed the network: the row is kept, its
    # causal edge is dropped rather than dangling
    ghost = mint(g, "ghost", 0.0)
    send(g, mint(g, "r0", 2.0, parent=ghost), "B", "m2", 2.0, [("m3", 2.1)])
    assert (g.dropped_nodes, g.dropped_edges) == (0, 1)
    assert g.first_drop_t is None
    # over the cap a transmission drops whole: two nodes, its net edge
    # and — when it had a parent — its causal edge
    send(g, mint(g, "r0", 3.0, parent=t1), "C", "m3", 3.0, [("m1", 3.1)])
    assert (g.dropped_nodes, g.dropped_edges) == (2, 3)
    send(g, t1, "A", "m1", 3.5, [("m3", 3.6)])
    assert (g.dropped_nodes, g.dropped_edges) == (4, 4)
    assert g.first_drop_t == 3.0            # the first drop, not the last
    # a parent that fell to the cap resolves to nothing, never to a row
    # past the end
    nodes, edges = graph_view(g)
    assert len(nodes) == 4 and g.parent == [-1, -1]
    assert all(e[0] < 4 and e[1] < 4 for e in edges)
    assert g.totals() == {"nodes": 4, "edges": 2, "minted": 4,
                          "dropped_nodes": 4, "dropped_edges": 4}
    assert MAX_CAUSAL_NODES == 50000


def test_cap_falls_inside_a_flood():
    """The send that reaches the cap keeps its copies up to it; past it
    the loops write nothing and each copy only counts."""
    g = CausalGraph(max_nodes=6)
    cause = mint(g, "sched", 1.0)
    send(g, cause, "SchedHello", "m1", 1.0, [("svc0", 1.1)])
    marker = mint(g, "sched", 2.0, parent=cause)
    send(g, marker, "Marker", "svc0", 2.0,
         [(f"m{i}", 2.5) for i in range(4)])
    assert g.put is None and len(g.tid) == 3
    assert g.tid[1:] == ["sched.2.2000000", "sched.2.2000000#1"]
    assert (g.dropped_nodes, g.dropped_edges, g.first_drop_t) == (4, 4, 2.0)
    send(g, marker, "Marker", "svc0", 3.0, [("m9", 3.5)])
    assert (g.dropped_nodes, g.dropped_edges) == (6, 6)
    assert g.to_doc()["kinds"] == {
        "SchedHello": {"count": 1, "seconds": 0.1},
        "Marker": {"count": 2, "seconds": 1.0}}


# ---------------------------------------------------------------------------
# stamping helpers
# ---------------------------------------------------------------------------

def test_stamp_is_inert_without_a_recorder():
    eng = Engine(seed=0)
    assert eng.obs is None
    msg = Msg()
    assert stamp(eng, msg, "r0") is None
    assert stamp(eng, msg, "r0", cause=msg) is None
    assert ctx_of(msg) is None and not vars(msg)


def test_stamp_with_a_cause_and_adopt_with_recorder():
    eng = Engine(seed=0)
    eng.obs = Obs()
    graph = eng.obs.causal
    root = Msg()
    assert stamp(eng, root, "r0") == 0
    assert ctx_of(root) == 0
    child = Msg()
    assert stamp(eng, child, "evlog", cause=root) == 1
    assert ctx_of(child) == 1
    assert graph.trace_ids([0, 1]) == {0: "r0.1.0", 1: "evlog.1.0"}
    envelope = Msg()
    adopt(envelope, root)
    assert ctx_of(envelope) == ctx_of(root)     # same trace, verbatim
    adopt(Msg(), Msg())                         # no ctx: no-op, no error
    # the child's parent link is the root's first receive
    send(graph, ctx_of(envelope), "DataMsg", "m1", 0.0, [("m2", 0.5)])
    send(graph, ctx_of(child), "EvLog", "m2", 0.5, [("svc1", 0.75)])
    assert graph.parent == [-1, 0] and graph.minted == 2


# ---------------------------------------------------------------------------
# the mint rule: a send mints its own context
# ---------------------------------------------------------------------------

def _world(observe=True):
    """An engine (with a recorder if ``observe``) and a 4-node cluster."""
    engine = Engine(seed=0, trace=Trace())
    if observe:
        engine.obs = Obs()
    return engine, Cluster(engine, 4)


def _star(engine, cluster, clients):
    """Process ``disp`` on node 0, and a process ``r<i>`` on each of the
    next ``clients`` nodes connected to it: ``(server ends, client
    ends)``, both in client order."""
    servers, ends = [], []

    def server(proc):
        proc.site = "disp"
        listener = proc.node.listen(5000, owner=proc)
        while True:
            servers.append((yield listener.accept()))

    def client(proc, rank):
        proc.site = f"r{rank}"
        ends.append((yield proc.node.connect(cluster.node(0).addr(5000),
                                             owner=proc)))
        yield engine.event()

    cluster.node(0).spawn("disp", server)
    for rank in range(clients):
        cluster.node(rank + 1).spawn(
            f"r{rank}", lambda proc, rank=rank: client(proc, rank))
    engine.run(until=1.0)
    return servers, ends


def _idle_main(proc):
    yield proc.engine.event()


def test_a_message_sent_twice_keeps_one_context():
    """The dispatcher's ``Shutdown`` goes to the daemons, then to the
    scheduler: one mint, at the sender's site, and three copies of one
    trace."""
    engine, cluster = _world()
    (daemon0, daemon1, scheduler), _ends = _star(engine, cluster, 3)
    t_us = round(engine.now * 1e6)
    down = wire.Shutdown()
    cluster.network.send_all((daemon0, daemon1), down)
    scheduler.send(down)
    engine.run(until=2.0)
    graph = engine.obs.causal
    assert graph.minted == 1 and ctx_of(down) == 0
    assert graph.tid == [f"disp.1.{t_us}", f"disp.1.{t_us}#1",
                         f"disp.1.{t_us}#2"]
    assert graph.parent == [-1, -1, -1]


def test_a_list_send_mints_one_context_per_message_in_order():
    """A note per peer on a real mesh: each note is minted at the mesh's
    site in list order, the one whose peer died too, before its row is
    skipped."""
    engine, cluster = _world()
    procs = [cluster.node(rank).spawn(f"r{rank}", _idle_main)
             for rank in range(4)]
    for rank, proc in enumerate(procs):
        proc.site = f"r{rank}"
    reached = []
    for rank, proc in enumerate(procs[:3]):
        Mesh(proc, cluster.node(rank).listen(9, owner=proc), rank, 4,
             None, None, lambda row, msg: None, None)
    mesh = Mesh(procs[3], cluster.node(3).listen(9, owner=procs[3]), 3, 4,
                None, None, None, reached.extend)
    mesh.dial([(rank, cluster.node(rank).addr(9)) for rank in range(3)],
              0.1, 1.0, lambda: False)
    engine.run(until=1.0)
    assert reached == [0, 1, 2]
    procs[1].kill()
    t_us = round(engine.now * 1e6)
    notes = [wire.V2GcNote(rank=3, upto=row) for row in reached]
    mesh.send_all(reached, notes)
    graph = engine.obs.causal
    assert [ctx_of(note) for note in notes] == [0, 1, 2]
    assert graph.minted == 3
    # the note to the dead peer has no row
    assert graph.tid == [f"r3.1.{t_us}", f"r3.3.{t_us}"]


def test_cause_sets_the_parent_and_an_envelope_is_not_minted_again():
    engine, cluster = _world()
    (server,), (client,) = _star(engine, cluster, 1)
    request = wire.FetchReq(rank=0, wave=1)
    client.send(request)
    engine.run(until=2.0)
    reply = wire.FetchResp(rank=0, wave=None, state=None)
    server.send(reply, cause=request)
    graph = engine.obs.causal
    assert (ctx_of(request), ctx_of(reply)) == (0, 1)
    assert graph.mints[2::3] == [-1, 0]
    # the reply's row hangs off the request's receive
    engine.run(until=3.0)
    assert graph.parent == [-1, 0]
    app = Msg()
    stamp(engine, app, "r0")
    envelope = wire.DataMsg(app)
    adopt(envelope, app)
    client.send(envelope, cause=reply)
    assert ctx_of(envelope) == ctx_of(app) == 2 and graph.minted == 3


def test_observation_off_attaches_nothing():
    engine, cluster = _world(observe=False)
    (server,), (client,) = _star(engine, cluster, 1)
    request = wire.FetchReq(rank=0, wave=1)
    client.send(request)
    reply = wire.FetchResp(rank=0, wave=None, state=None)
    cluster.network.send_all((server,), reply, cause=request)
    engine.run(until=2.0)
    assert ctx_of(request) is None and ctx_of(reply) is None
    assert cluster.network.messages_sent == 2


def test_a_send_on_a_closed_socket_raises_nothing_and_transmits_nothing():
    engine, cluster = _world()
    (server,), (client,) = _star(engine, cluster, 1)
    client.close()
    client.send(wire.Shutdown())
    engine.run(until=2.0)
    assert cluster.network.messages_sent == 0 and not len(server._rx)
    # minted before the closed end was skipped: a context, no row
    assert engine.obs.causal.minted == 1 and not engine.obs.causal.rows


#: the metrics section of a synthetic recorder's document
NO_METRICS = {"counters": {}, "gauges": {}, "histograms": {}}


def _phase_seconds(doc):
    totals = {}
    add_phase_seconds(totals, doc)
    return totals


def _recorder(spans=(), transmissions=(), max_nodes=MAX_CAUSAL_NODES):
    """A recorder holding ``[t0, t1, kind, lane, fields]`` spans and
    ``(name, parent_name, kind, src, dst, t_send, t_recv)`` single-copy
    transmissions.  Each name is minted once, at t = 0 by site
    ``name`` (trace id ``<name>.1.0``), its parent first."""
    obs = Obs()
    obs.causal = graph = CausalGraph(max_nodes=max_nodes)
    ctxs = {}

    def ctx(name, parent=None):
        if name not in ctxs:
            cause = None if parent is None else ctx(parent)
            ctxs[name] = mint(graph, name, 0.0, parent=cause)
        return ctxs[name]

    for t0, t1, kind, lane, fields in spans:
        obs.close(obs.open(kind, lane, t0, dict(fields)), t1, {})
    for name, parent, kind, src, dst, t_send, t_recv in transmissions:
        send(graph, ctx(name, parent), kind, src, t_send, [(dst, t_recv)])
    return obs


def test_causal_kind_rollup():
    doc = _recorder(transmissions=[
        ("a", None, "DataMsg", "m1", "m2", 1.0, 1.5),
        ("b", "a", "EvLog", "m2", "svc1", 2.0, 2.25)]).to_doc(NO_METRICS)
    roll = causal_kind_rollup(doc)
    assert roll == {"DataMsg": {"count": 1, "seconds": 0.5},
                    "EvLog": {"count": 1, "seconds": 0.25}}
    assert causal_kind_rollup(None) == {}
    assert causal_kind_rollup({"version": 1, "spans": []}) == {}
    assert causal_totals(doc)["nodes"] == 4
    assert causal_totals(None) == causal_totals({"version": 1, "spans": []}) \
        == dict.fromkeys(("nodes", "edges", "minted", "dropped_nodes",
                          "dropped_edges"), 0)


def test_old_layout_document_is_refused_by_name(tmp_path, capsys):
    """trace-diff refuses what is not a result document of this format
    — a format-10 document, a bare obs document, a missing or non-JSON
    file — at the boundary, with one line naming the file and no
    traceback."""
    from repro.__main__ import main
    from repro.analysis.tracediff import load_obs_doc
    from repro.experiments.resultstore import FORMAT_VERSION
    obs = _recovery_doc()
    old, bare = tmp_path / "result.json", tmp_path / "obs.json"
    missing, garbage = tmp_path / "missing.json", tmp_path / "garbage.json"
    old.write_text(json.dumps({"format": 10, "obs": obs}))
    bare.write_text(json.dumps(obs))
    garbage.write_text("not json")
    expected = f"(expected {FORMAT_VERSION})"
    cases = {old: f"unsupported result format 10 {expected}",
             bare: f"unsupported result format None {expected}",
             missing: "No such file or directory",
             garbage: "not JSON (Expecting value: line 1 column 1 (char 0))"}
    for path, message in cases.items():
        with pytest.raises(ValueError) as err:
            load_obs_doc(str(path))
        assert str(err.value) == f"{path}: {message}"
        # the CLI: one line on stderr and a non-zero exit
        with pytest.raises(SystemExit) as exit_info:
            main(["trace-diff", str(path), str(path)])
        assert exit_info.value.code == f"trace-diff: {path}: {message}"
        assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# critical paths on synthetic recorders
# ---------------------------------------------------------------------------

_RECOVERY_SPANS = [
    [10.0, 10.5, "detect", "m1", {"node": "m1"}],
    [10.5, 12.0, "relaunch", "svc0", {"epoch": 1, "mode": "full"}],
    [12.0, 13.0, "restore", "m1", {"rank": 0, "epoch": 1}],
    [13.0, 13.4, "replay", "m1", {"rank": 0}],
]


def _recovery_recorder(**kwargs):
    return _recorder(_RECOVERY_SPANS, [
        ("f", None, "FetchReq", "svc0", "svc2", 11.0, 11.2),
        ("g", "f", "FetchResp", "svc2", "m1", 11.2, 12.9)],
        **kwargs)


def _recovery_doc():
    return _recovery_recorder().to_doc(NO_METRICS)


def test_critical_path_segments_tile_exactly():
    rows = critical_paths(_recovery_doc())
    assert len(rows) == 1
    row = rows[0]
    assert [s["phase"] for s in row["segments"]] == \
        ["detect", "relaunch", "restore", "replay"]
    # the acceptance identity: exact, not approximate
    assert sum(s["dur"] for s in row["segments"]) == row["recovery"]
    assert row["attribution"]["restore_transfer"]["count"] == 2
    # backward walk: latest receive in the window chains to the fetch
    assert row["chain"] == ["f.1.0:s", "f.1.0:r", "g.1.0:s", "g.1.0:r"]
    assert row["truncated"] is False and row["causal_truncated"] is False
    assert _phase_seconds(_recovery_doc())["recovery"] == row["recovery"]
    assert "recovery" in render_critical_paths(_recovery_doc())


def _truncation_flags(recorder):
    """``causal_truncated`` per epoch, the folds having matched the
    version-3 readers on the recorder's columns."""
    return [row["causal_truncated"] for row in
            assert_folds_equal_reference(recorder.to_doc(NO_METRICS), recorder.causal)]


def test_folds_equal_the_column_readers_on_synthetic_tables():
    assert _truncation_flags(_recovery_recorder()) == [False]
    # window edges (inside by less than _EPS, and exactly on lo / hi),
    # a fan-out copy, ties in receive time, traffic before and after
    spans = _RECOVERY_SPANS + [
        [20.0, 20.0, "detect", "m2", {"node": "m2"}],
        [20.0, 21.0, "relaunch", "svc0", {"epoch": 2, "rank": 1}]]
    t0, t_end = recovery_window(epoch_phase_table({"spans": spans})[0])
    assert (t0, round(t_end, 6)) == (10.0, 13.4)
    recorder = _recorder(spans, [
        ("a", None, "Hello", "m1", "m2", 9.0, 9.5),
        ("z", None, "Terminate", "svc0", "m9", t0 - 1e-9, 10.1),
        ("b", None, "CommandMap", "svc0", "m1", 10.0 - 5e-10, 10.2),
        ("b", None, "CommandMap", "svc0", "m2", 10.0, 10.2),
        ("c", "b", "Register", "m1", "svc0", 10.2, 10.3),
        ("d", "c", "Marker", "svc0", "m3", 10.3, 13.4 + 5e-10),
        ("e", "c", "Oddity", "svc0", "m4", 10.3, t_end + 1e-9),
        ("e", "c", "Oddity", "svc0", "m5", 10.3, t_end + 1e-9),
        ("f", "e", "DataMsg", "m4", "m1", 13.4 + 2e-9, 14.0),
        ("g", "a", "FetchReq", "m2", "svc2", 20.5, 20.6),
        ("h", "g", "FetchResp", "svc2", "m2", 20.6, 22.0)])
    assert _truncation_flags(recorder) == [False, False]
    first, second = critical_paths(recorder.to_doc(NO_METRICS))
    assert {cat: entry["count"]
            for cat, entry in first["attribution"].items()} \
        == {"relaunch_control": 4, "sched_commit": 1, "other": 2}
    assert first["chain"] == ["b.1.0:s", "b.1.0:r", "c.1.0:s", "c.1.0:r",
                              "e.1.0#1:s", "e.1.0#1:r"]
    assert second["chain"] == ["g.1.0:s", "g.1.0:r"]


def test_chain_is_bounded_by_max_chain():
    hops = [(f"t{i}", f"t{i - 1}" if i else None, "DataMsg", "m1", "m2",
             10.0 + i * 0.01, 10.0 + i * 0.01 + 0.005) for i in range(60)]
    recorder = _recorder(_RECOVERY_SPANS, hops)
    doc = recorder.to_doc(NO_METRICS)
    (fold,) = doc["causal"]["epochs"]
    assert len(fold["chain"]) == MAX_CHAIN
    assert fold["chain"][-1] == "t59.1.0:r"
    assert fold["chain"][0] == "t28.1.0:s"
    assert_folds_equal_reference(doc, recorder.causal)


def test_window_past_the_first_drop_is_causal_truncated():
    """The cap falls inside the first recovery window (10.0-13.4): that
    epoch and every later one say so; an epoch that ended before the
    first drop does not."""
    spans = [[5.0, 5.0, "detect", "m3", {"node": "m3"}],
             [5.0, 6.0, "relaunch", "svc0", {"epoch": 0, "rank": 2}]] \
        + _RECOVERY_SPANS
    recorder = _recorder(spans, [
        ("a", None, "Register", "m3", "svc0", 5.5, 5.6),
        ("f", None, "FetchReq", "svc0", "svc2", 11.0, 11.2),
        ("g", "f", "FetchResp", "svc2", "m1", 11.2, 12.9)],
        max_nodes=4)
    assert recorder.causal.first_drop_t == 11.2
    doc = recorder.to_doc(NO_METRICS)
    assert _truncation_flags(recorder) == [False, True]
    early, cut = critical_paths(doc)
    assert early["chain"] == ["a.1.0:s", "a.1.0:r"]
    assert cut["chain"] == ["f.1.0:s", "f.1.0:r"] and not cut["truncated"]
    # the span-derived phase figures do not move with it
    assert _phase_seconds(doc) == _phase_seconds(_recovery_doc() | {
        "spans": doc["spans"]})
    # every renderer states it
    assert "(causal record truncated)" in render_critical_paths(doc)
    assert "causal record truncated" not in render_critical_paths(
        _recovery_doc())
    diff = trace_diff_text(doc, _recovery_doc(), label_a="x", label_b="y")
    assert "x: causal record truncated in #2" in diff
    assert "y: causal record truncated" not in diff
    agg = aggregate_obs([doc, _recovery_doc()])
    assert agg["causal_truncated_epochs"] == 1
    assert "repro_causal_truncated_epochs_total 1" in openmetrics_text(agg)
    assert "Causal record truncated in 1 recovery epochs" \
        in html_report(agg)
    clean = aggregate_obs([_recovery_doc()])
    assert clean["causal_truncated_epochs"] == 0
    assert "causal_truncated" not in openmetrics_text(clean)
    assert "truncated in" not in html_report(clean)


def test_zero_recovery_is_safe_everywhere():
    empty = {"spans": [], "dropped_spans": 0, "truncated_spans": 0,
             "metrics": NO_METRICS,
             "causal": CausalGraph().to_doc()}
    assert critical_paths(empty) == []
    assert _phase_seconds(empty) == {}
    assert "no recovery" in render_critical_paths(empty)
    # classify: a fault-free run terminates on its trace alone
    trace = Trace()
    trace.record(100.0, "app_done")
    assert classify_run(trace, timeout=1500.0).terminated
    # trace-diff: empty vs empty and empty vs faulted both render
    text = trace_diff_text(empty, empty)
    assert "no recoveries on either side" in text
    text = trace_diff_text(empty, _recovery_doc())
    assert "0 vs 1 epochs" in text
    assert trace_diff_text(None, None)          # observation off: fine


def test_trace_diff_is_deterministic():
    a, b = _recovery_doc(), _recovery_doc()
    b["spans"][1] = [10.5, 14.0, "relaunch", "svc0",
                     {"epoch": 1, "mode": "full"}]
    one = trace_diff_text(a, b, label_a="x", label_b="y")
    two = trace_diff_text(a, b, label_a="x", label_b="y")
    assert one == two
    assert "+2.000" in one                       # relaunch grew by 2 s


# ---------------------------------------------------------------------------
# campaign rollup
# ---------------------------------------------------------------------------

def test_openmetrics_and_html_report():
    docs = [_recovery_doc(), _recovery_doc(), None]
    agg = aggregate_obs(docs)
    assert agg["trials"] == 2 and agg["epochs"] == 2
    text = openmetrics_text(agg)
    assert text.endswith("# EOF\n")
    assert 'repro_critpath_seconds_total{phase="relaunch"} 3' in text
    assert 'repro_wire_count_total{kind="FetchReq"} 2' in text
    # byte-determinism of both renderings
    assert text == openmetrics_text(aggregate_obs(docs))
    page = html_report(agg, title="t<e>st")
    assert page == html_report(aggregate_obs(docs), title="t<e>st")
    assert "t&lt;e&gt;st" in page
    assert json.dumps(agg, sort_keys=True) \
        == json.dumps(aggregate_obs(docs), sort_keys=True)
