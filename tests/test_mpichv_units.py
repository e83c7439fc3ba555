"""Unit tests for MPICH-V components: config, checkpoint stores,
checkpoint server state, scheduler bookkeeping."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.mpi.message import AppMessage
from repro.mpichv.checkpoint import (CheckpointImage, LocalCkptStore,
                                     node_local_store, snapshot)
from repro.mpichv.ckptserver import CkptServerState
from repro.mpichv.config import TimingModel, VclConfig
from repro.mpichv import wire


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_machines_include_spares():
    cfg = VclConfig(n_procs=49)
    assert cfg.n_machines == 53      # the paper's BT-49 deployment


def test_image_size_scales_inversely_with_procs():
    small = VclConfig(n_procs=25)
    big = VclConfig(n_procs=64)
    assert small.image_size > big.image_size
    assert small.footprint == big.footprint


@pytest.mark.parametrize("bad", [
    dict(n_procs=0),
    dict(n_procs=8, n_machines=4),
    dict(n_procs=4, ckpt_period=0.0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        VclConfig(**bad)


def test_timing_uniform_uses_rng():
    import random
    timing = TimingModel()
    rng = random.Random(0)
    values = {timing.uniform(rng, (1.0, 2.0)) for _ in range(10)}
    assert all(1.0 <= v <= 2.0 for v in values)
    assert len(values) > 1


def test_service_node_count():
    cfg = VclConfig(n_procs=4, n_ckpt_servers=3)
    assert cfg.n_service_nodes == 5   # dispatcher + scheduler + 3 servers


# ---------------------------------------------------------------------------
# checkpoint images / local store
# ---------------------------------------------------------------------------

def _img(rank=0, wave=1, size=100):
    return CheckpointImage(rank=rank, wave=wave, state={"iter": wave},
                           logs=[], img_size=size, complete=True)


def test_snapshot_is_independent_copy():
    img = _img()
    snap = img.snapshot_of()
    snap.state["iter"] = 999
    assert img.state["iter"] == 1


_ATOMS = (st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
          | st.booleans() | st.none()
          | st.builds(AppMessage, src=st.integers(0, 7), dst=st.integers(0, 7),
                      tag=st.integers(0, 3), payload=st.integers()))
#: application states: trees of dicts, lists and tuples over atoms
_STATES = st.recursive(
    _ATOMS,
    lambda kids: (st.dictionaries(st.text(max_size=4) | st.integers(), kids,
                                  max_size=4)
                  | st.lists(kids, max_size=4)
                  | st.tuples(kids, kids)),
    max_leaves=24)


def _containers(x):
    """Every dict and list in ``x``."""
    if isinstance(x, (dict, list)):
        yield x
    if isinstance(x, (dict, list, tuple)):
        for value in (x.values() if isinstance(x, dict) else x):
            yield from _containers(value)


@given(_STATES)
def test_snapshot_equals_deepcopy_and_shares_no_container(state):
    expected = copy.deepcopy(state)
    snap = snapshot(state)
    assert snap == expected
    for container in list(_containers(state)):
        if isinstance(container, dict):
            container["mutated"] = None
            for key in list(container):
                container[key] = "mutated"
        else:
            container.append("mutated")
            container[0] = "mutated"
    assert snap == expected


class _Box:
    def __init__(self, items):
        self.items = items


def test_snapshot_deep_copies_an_unknown_type(monkeypatch):
    copied = []
    deepcopy = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy",
                        lambda x, *memo: copied.append(x) or deepcopy(x, *memo))
    box = _Box([1, [2]])
    state = {"box": box, "seen": {3, 4}, "n": 1}
    snap = snapshot(state)
    assert copied[:1] == [box] and {3, 4} in copied
    assert snap["box"] is not box and snap["box"].items == [1, [2]]
    box.items[1].append(5)
    state["seen"].add(5)
    assert snap["box"].items == [1, [2]] and snap["seen"] == {3, 4}


def test_local_store_two_slot_alternation():
    store = LocalCkptStore()
    for wave in (1, 2, 3):
        store.store(_img(wave=wave))
    assert store.waves_for(0) == [2, 3]
    assert store.load(0, 1) is None
    assert store.load(0, 3).wave == 3


def test_local_store_per_rank_isolation():
    store = LocalCkptStore()
    store.store(_img(rank=0, wave=1))
    store.store(_img(rank=1, wave=1))
    assert store.load(0, 1).rank == 0
    assert store.load(1, 1).rank == 1


def test_node_local_store_survives_and_is_cached(engine, cluster):
    node = cluster.node(0)
    store = node_local_store(node)
    store.store(_img())
    assert node_local_store(node) is store
    assert node_local_store(node).load(0, 1) is not None


# ---------------------------------------------------------------------------
# checkpoint server state
# ---------------------------------------------------------------------------

def test_server_commit_and_lookup():
    srv = CkptServerState()
    srv.store_image(_img(rank=0, wave=1))
    assert srv.lookup(0, None) is None          # nothing committed yet
    srv.commit(1)
    assert srv.lookup(0, None).wave == 1
    assert srv.lookup(0, 1).wave == 1
    assert srv.lookup(0, 2) is None
    assert srv.lookup(9, 1) is None


def test_server_two_wave_retention():
    srv = CkptServerState()
    for wave in (1, 2, 3):
        srv.store_image(_img(wave=wave))
    assert sorted(srv.images) == [2, 3]


def test_server_log_append_after_image():
    srv = CkptServerState()
    img = CheckpointImage(rank=0, wave=1, state={}, logs=[], img_size=10)
    srv.store_image(img)
    msg = AppMessage(src=1, dst=0, tag=5, payload="x")
    srv.append_logs(0, 1, [msg])
    assert srv.images[1][0].logs == [msg]
    assert srv.images[1][0].complete


def test_server_log_append_before_image_stashed():
    """The message connection can outrun the pipelined data connection."""
    srv = CkptServerState()
    msg = AppMessage(src=1, dst=0, tag=5, payload="x")
    srv.append_logs(0, 1, [msg])
    img = CheckpointImage(rank=0, wave=1, state={}, logs=[], img_size=10)
    srv.store_image(img)
    assert srv.images[1][0].logs == [msg]
    assert srv.images[1][0].complete


# ---------------------------------------------------------------------------
# wire messages
# ---------------------------------------------------------------------------

def test_wire_sizes():
    app = AppMessage(src=0, dst=1, tag=1, payload=None, size=5000)
    assert wire.DataMsg(app).size == 5000
    store = wire.CkptStore(rank=0, wave=1, state={}, img_size=123)
    assert store.size == 123
    append = wire.CkptLogAppend(rank=0, wave=1, logs=[app])
    assert append.size == 5000
    assert wire.CkptLogAppend(rank=0, wave=1, logs=[]).size == 64
    assert wire.Marker(wave=1, src_rank=-1).size == 64
