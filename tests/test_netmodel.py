"""Unit tests for repro.netmodel: specs, fabric models, the table,
traffic accounting, the uniform fast path and the constants dedupe."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import Network
from repro.mpichv.config import VclConfig
from repro.netmodel.fabric import FABRICS, build_fabric
from repro.netmodel.spec import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                                 TopologySpec)
from repro.simkernel.engine import Engine


# ---------------------------------------------------------------------------
# constants: single source of truth (satellite regression)
# ---------------------------------------------------------------------------

def test_network_constants_have_one_source_of_truth():
    """The old drift: cluster/network.py vs mpichv/config.py each kept
    their own copy of the GigE defaults.  The network must read
    repro.netmodel.spec."""
    net = Network(Engine(seed=0))
    assert net.latency == DEFAULT_LATENCY
    assert net.bandwidth == DEFAULT_BANDWIDTH
    # the re-export kept for cluster-level importers
    from repro.cluster import network as network_mod
    assert network_mod.DEFAULT_LATENCY is DEFAULT_LATENCY
    assert network_mod.DEFAULT_BANDWIDTH is DEFAULT_BANDWIDTH


# ---------------------------------------------------------------------------
# TopologySpec
# ---------------------------------------------------------------------------

def test_spec_coercion_accepts_name_dict_spec_and_none():
    assert TopologySpec.coerce(None) == TopologySpec()
    assert TopologySpec.coerce("star").model == "star"
    spec = TopologySpec.coerce({"model": "twotier", "rack_size": 4})
    assert (spec.model, spec.rack_size) == ("twotier", 4)
    assert TopologySpec.coerce(spec) is spec
    with pytest.raises(TypeError):
        TopologySpec.coerce(42)


def test_spec_validation_rejects_bad_knobs():
    with pytest.raises(ValueError):
        TopologySpec(rack_size=0)
    with pytest.raises(ValueError):
        TopologySpec(oversubscription=0.0)


def test_config_coerces_topology_and_rejects_unknown_models():
    cfg = VclConfig(n_procs=4, topology="star")
    assert isinstance(cfg.topology, TopologySpec)
    assert cfg.topology.model == "star"
    with pytest.raises(ValueError):
        VclConfig(n_procs=4, topology="hypercube")


def test_fabric_registry_guards_duplicates_and_unknowns():
    with pytest.raises(ValueError, match="unknown fabric model 'nosuch'"):
        build_fabric("nosuch")
    assert set(FABRICS) == {"uniform", "star", "twotier"}


# ---------------------------------------------------------------------------
# fabric delivery semantics
# ---------------------------------------------------------------------------

def test_uniform_fabric_matches_seed_arithmetic():
    fabric = build_fabric("uniform")
    now, size = 5.0, 10**6
    expected = now + DEFAULT_LATENCY + size / DEFAULT_BANDWIDTH
    assert fabric.delivery(now, "a", "b", size, 0.0) == expected
    # per-connection FIFO clamp
    assert fabric.delivery(now, "a", "b", size, expected + 1) == expected + 1
    # no shared serialization: a second flow is not queued
    assert fabric.delivery(now, "c", "d", size, 0.0) == expected


def test_star_uplink_serializes_flows_from_one_host():
    fabric = build_fabric("star")
    size = 10**7                     # 0.1 s on the access link
    first = fabric.delivery(0.0, "h0", "h1", size, 0.0)
    second = fabric.delivery(0.0, "h0", "h2", size, 0.0)
    assert second > first            # queued behind the first on h0/up
    # uniform would have delivered both at the same instant
    uniform = build_fabric("uniform")
    assert uniform.delivery(0.0, "h0", "h1", size, 0.0) \
        == uniform.delivery(0.0, "h0", "h2", size, 0.0)


def test_star_downlink_serializes_flows_into_one_host():
    fabric = build_fabric("star")
    size = 10**7
    first = fabric.delivery(0.0, "h1", "h0", size, 0.0)
    second = fabric.delivery(0.0, "h2", "h0", size, 0.0)
    assert second > first            # queued on h0/down


def test_twotier_inter_rack_is_slower_than_intra_rack():
    spec = TopologySpec("twotier", rack_size=2, oversubscription=8.0)
    fabric = build_fabric(spec)
    for host in ("a0", "a1", "b0", "b1"):
        fabric.register_host(host)   # racks: {a0,a1}, {b0,b1}
    size = 10**6
    intra = fabric.delivery(0.0, "a0", "a1", size, 0.0)
    inter = fabric.delivery(0.0, "a1", "b0", size, 0.0)
    assert inter > intra             # core hop latency + oversubscription
    assert [link.name for link in fabric.path("a1", "b0")] \
        == ["a1/up", "rack0/up", "rack1/down", "b0/down"]


def test_twotier_oversubscription_throttles_the_core():
    size = 10**7
    results = {}
    for factor in (1.0, 8.0):
        spec = TopologySpec("twotier", rack_size=2, oversubscription=factor)
        fabric = build_fabric(spec)
        for host in ("a0", "a1", "b0", "b1"):
            fabric.register_host(host)
        results[factor] = fabric.delivery(0.0, "a0", "b0", size, 0.0)
    assert results[8.0] > results[1.0]


def test_per_link_counters_and_hotspot():
    fabric = build_fabric("star")
    fabric.delivery(0.0, "h0", "h1", 1000, 0.0)
    fabric.delivery(0.0, "h0", "h2", 500, 0.0)
    up, down = fabric.path("h0", "h1")
    assert (up.name, up.bytes) == ("h0/up", 1500)
    assert (down.name, down.bytes) == ("h1/down", 1000)
    assert fabric.hotspot() == ("h0/up", 1500)


# ---------------------------------------------------------------------------
# the network fast path (perf satellite: no per-message topology lookup)
# ---------------------------------------------------------------------------

def _relay(engine, cluster, n_msgs=5, size=1024):
    got = []

    def server(proc):
        ls = proc.node.listen(5000, owner=proc)
        sock = yield ls.accept()
        for _ in range(n_msgs):
            got.append((yield sock.recv()))

    def client(proc):
        sock = yield proc.node.connect(cluster.node(0).addr(5000), owner=proc)
        for i in range(n_msgs):
            sock.send(i, size=size)
        yield engine.timeout(5.0)

    cluster.node(0).spawn("server", server)
    cluster.node(1).spawn("client", client)
    engine.run(until=30.0)
    return got


def test_uniform_hot_path_never_consults_the_fabric(engine, cluster):
    """The structural perf guard: with the default uniform fabric and no
    cuts, Socket.send must use the inline seed arithmetic — the
    fabric's delivery() must not run at all.  This is what keeps the
    uniform path within epsilon (not just 5%) of the seed throughput."""
    def boom(*_args, **_kwargs):
        raise AssertionError("fabric.delivery called on the uniform hot path")

    cluster.network.fabric.delivery = boom
    assert _relay(engine, cluster) == list(range(5))


def test_star_network_routes_through_the_fabric():
    engine = Engine(seed=1)
    cluster = Cluster(engine, 3, topology="star")
    calls = []
    real = cluster.network.fabric.delivery

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cluster.network.fabric.delivery = spy
    assert _relay(engine, cluster) == list(range(5))
    assert len(calls) == 5


def test_uniform_network_delivery_times_match_explicit_spec():
    """Network(topology=None) and Network(topology=uniform spec) are the
    same model, message for message."""
    times = {}
    for key, topology in (("default", None), ("spec", TopologySpec())):
        engine = Engine(seed=9)
        cluster = Cluster(engine, 2, topology=topology)
        got = []

        def server(proc, got=got):
            ls = proc.node.listen(5000, owner=proc)
            sock = yield ls.accept()
            while True:
                yield sock.recv()
                got.append(proc.engine.now)

        def client(proc, cluster=cluster):
            sock = yield proc.node.connect(cluster.node(0).addr(5000),
                                           owner=proc)
            for i in range(4):
                sock.send(i, size=10**6 * (i + 1))

        cluster.node(0).spawn("server", server)
        cluster.node(1).spawn("client", client)
        engine.run(until=10.0)
        times[key] = got
    assert times["default"] == times["spec"]
    assert len(times["default"]) == 4


def test_network_hotspot_uniform_and_star():
    engine = Engine(seed=2)
    cluster = Cluster(engine, 2)
    _relay(engine, cluster, n_msgs=3, size=100)
    assert cluster.network.messages_sent == 3
    # Uniform keeps no per-link books, so there is no hot spot to name
    # (the old ("fabric", total) answer misread as a saturated link).
    assert cluster.network.hotspot() == (None, 0)

    engine2 = Engine(seed=2)
    star = Cluster(engine2, 2, topology="star")
    _relay(engine2, star, n_msgs=3, size=100)
    link, volume = star.network.hotspot()
    assert link in ("node1/up", "node0/down")
    assert volume == 300
