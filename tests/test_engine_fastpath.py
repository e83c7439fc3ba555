"""Guards for the slotted engine fast path.

The slot-table dispatch (``repro/simkernel/engine.py``) must be
*bit-identical* in event ordering to the classic one-entry-per-event
heap it replaced: globally ``(time, priority, insertion order)``.  The
digests pinned here were computed on the pre-fast-path engine (the
PR 3/PR 4 inlined-heap loop) and must never change — any drift means
the slot table or the preemption path reordered events.
"""

import gc
import hashlib
import json

import pytest

from repro.experiments.harness import TrialSetup
from repro.explore.generators import MASTER, NODE_DAEMON, TimedKill, render_plan
from repro.simkernel.engine import Engine, gc_paused
from repro.simkernel.events import PRIORITY_URGENT

#: a third priority class after NORMAL: nothing in the program uses one
#: any more, but the slot table orders any int, and the digest below was
#: recorded with it
LAZY = 2

# ---------------------------------------------------------------------------
# golden digests (computed on the pre-fast-path heap engine)
# ---------------------------------------------------------------------------

#: synthetic kernel schedule: 8 processes on colliding timeout grids,
#: urgent/normal/lazy same-instant slots, a same-time cascade
SYNTHETIC_DIGEST = "2897bb34ef71b1bf614d2c7a1fd70a682a60f28d89b088125dd5fd639d6d2f8a"
SYNTHETIC_EVENTS = 208

#: (protocol, n_ckpt_servers) -> trace digest for a fault-free 4-rank
#: ring trial, seed 7
GOLDEN_CLEAN = {
    ("vcl", 1): "6cc3065ebbf0dc039f1fb0187d5a12f2f303ee43c1c5999dc0926df995bfddce",
    ("vcl", 4): "178688c39548d6626dbb62827b0d4a644fbf81cb187f494d30dde10eab88441d",
    ("v2", 1): "2208a1a318b3f1851eba4841edc6b09fc6cb669487cd9de5a031cfb2916e5bea",
    ("v2", 4): "be8835319b9f92e9d4562ccdd95d76cc695d05546718506ddd0f9c86b53f01b2",
    ("v1", 1): "de988038cc5fcf283f4fdfdb1e62145e62b22ce4b6579932d8f3cf152ace4070",
    ("v1", 4): "fb39f736d8351827e15735b7b0f6a602af9256ee444f8fdc4621eac7a5db9262",
}

#: same trials with one kill at t=45 (restart paths cross the shards)
GOLDEN_FAULTY = {
    ("vcl", 1): "d275eb358129edd92bc1d5551f1b3b33f8b388c9fef45adbba65a5b93ca5f269",
    ("vcl", 4): "4ab23457af0c7858e92c305ffe78c39ad4777f02372a525e5731cd800cf05a5b",
    ("v2", 1): "5b5e5680f1eb0c9aa44f7b5f2071e06d0758b1c272a4118f37716c7de8ad0958",
    ("v2", 4): "f0f48029470726c09d523e32816d581fc4064585bf6039514d9ff32b9f90e4d6",
    ("v1", 1): "c38136348f709f8fe2d6520aef624c44422e206e7dca96cd5bf869fae4cce900",
    ("v1", 4): "57d2c7ad3c4986821f06d29f7bbf50443b3db33043b2f48e735e3f9c4ffac378",
}

#: engine events those trials cost — not part of the history, so kept
#: apart from the digests.  Re-recorded 2026-10-17, when the daemons'
#: mesh became one ``Mesh`` per incarnation (before: vcl 940/941, v2
#: 1507/1510, v1 1153/1156 clean, 1327/1319, 1613/1616, 1247/1250
#: faulty).
EVENTS_CLEAN = {("vcl", 1): 937, ("vcl", 4): 938, ("v2", 1): 1504,
                ("v2", 4): 1507, ("v1", 1): 1152, ("v1", 4): 1155}
EVENTS_FAULTY = {("vcl", 1): 1315, ("vcl", 4): 1307, ("v2", 1): 1604,
                 ("v2", 4): 1607, ("v1", 1): 1242, ("v1", 4): 1245}


def test_synthetic_schedule_matches_heap_engine_digest():
    eng = Engine(seed=42)
    log = []

    def mark(tag):
        log.append((round(eng.now, 9), tag))

    def proc(pid):
        for i in range(10):
            yield eng.timeout(0.25 * (i % 4) + 0.5)
            mark(f"p{pid}.{i}")
            if i % 3 == 0:
                eng.call_later(0.0, lambda pid=pid, i=i: mark(f"u{pid}.{i}"))

    for pid in range(8):
        eng.process(proc(pid))
    for i in range(50):
        eng.call_later(0.1 * (i % 7), lambda i=i: mark(f"c{i}"))
        eng._enqueue(lambda i=i: mark(f"lz{i}"), 0.1 * (i % 7), LAZY)
        eng._enqueue(lambda i=i: mark(f"ur{i}"), 0.1 * (i % 5),
                     PRIORITY_URGENT)

    def cascade():
        mark("cascade")
        eng.call_later(0.0, lambda: mark("cascade.n"))
        eng._enqueue(lambda: mark("cascade.u"), 0.0, PRIORITY_URGENT)

    eng.call_later(1.0, cascade)
    eng.run()
    digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
    assert digest == SYNTHETIC_DIGEST
    assert eng.events_processed == SYNTHETIC_EVENTS


def _trial_digest(protocol, n_ckpt_servers, faulty):
    scenario = render_plan((TimedKill(at=45, target=0),)) if faulty else None
    setup = TrialSetup(
        n_procs=4, n_machines=7, protocol=protocol, timeout=300.0,
        workload="ring", niters=40, total_compute=1280.0, footprint=1e8,
        scenario_source=scenario,
        master_daemon=MASTER, node_daemon=NODE_DAEMON,
        config_overrides={"n_ckpt_servers": n_ckpt_servers})
    result = setup.run_one(seed=7)
    h = hashlib.sha256()
    for rec in result.trace.records:
        h.update(repr((round(rec.t, 9), rec.kind,
                       sorted(rec.fields.items()))).encode())
    return h.hexdigest(), result.events_processed


@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
@pytest.mark.parametrize("shards", [1, 4])
def test_clean_trial_matches_heap_engine_digest(protocol, shards):
    digest, events = _trial_digest(protocol, shards, faulty=False)
    assert digest == GOLDEN_CLEAN[(protocol, shards)]
    assert events == EVENTS_CLEAN[(protocol, shards)]


@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
@pytest.mark.parametrize("shards", [1, 4])
def test_faulty_trial_matches_heap_engine_digest(protocol, shards):
    digest, events = _trial_digest(protocol, shards, faulty=True)
    assert digest == GOLDEN_FAULTY[(protocol, shards)]
    assert events == EVENTS_FAULTY[(protocol, shards)]


# ---------------------------------------------------------------------------
# ordering semantics of the slot table
# ---------------------------------------------------------------------------

def test_urgent_slot_preempts_mid_batch():
    """An urgent payload scheduled at the current instant runs before
    the remaining normal payloads of that instant (what ``resume()``
    relies on)."""
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng._enqueue(lambda: order.append("urgent"), 0.0, PRIORITY_URGENT)

    eng.call_later(1.0, first)
    eng.call_later(1.0, lambda: order.append("second"))
    eng.call_later(1.0, lambda: order.append("third"))
    eng.run()
    assert order == ["first", "urgent", "second", "third"]


def test_same_slot_insert_during_drain_runs_last():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.call_later(0.0, lambda: order.append("late"))

    eng.call_later(1.0, first)
    eng.call_later(1.0, lambda: order.append("second"))
    eng.run()
    assert order == ["first", "second", "late"]


def test_nested_preemption_chain():
    """normal -> urgent -> (urgent schedules normal-at-now, runs after
    the original batch's tail per insertion order)."""
    eng = Engine()
    order = []

    def a():
        order.append("a")
        eng._enqueue(u, 0.0, PRIORITY_URGENT)

    def u():
        order.append("u")
        eng.call_later(0.0, lambda: order.append("n2"))

    eng.call_later(1.0, a)
    eng.call_later(1.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "u", "b", "n2"]


def test_stop_mid_batch_preserves_tail():
    eng = Engine()
    order = []
    eng.call_later(1.0, lambda: (order.append("first"), eng.stop()))
    eng.call_later(1.0, lambda: order.append("second"))
    eng.run()
    assert order == ["first"]
    eng.run()
    assert order == ["first", "second"]


def test_raising_payload_leaves_engine_consistent():
    eng = Engine()
    order = []

    def boom():
        raise RuntimeError("payload crash")

    eng.call_later(1.0, lambda: order.append("a"))
    eng.call_later(1.0, boom)
    eng.call_later(1.0, lambda: order.append("b"))
    eng.call_later(2.0, lambda: order.append("c"))
    with pytest.raises(RuntimeError):
        eng.run()
    # the crash lost only its own payload; the tail is still pending
    eng.run()
    assert order == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# GC pause policy
# ---------------------------------------------------------------------------

def test_gc_paused_restores_state():
    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_paused_nested_keeps_outer_disable():
    gc.disable()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()       # outer disable is respected
    finally:
        gc.enable()


def test_gc_paused_restores_on_exception():
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()
