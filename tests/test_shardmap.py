"""Checkpoint-server sharding: the map, the plumbing, the edge cases.

The shard map (``repro/mpichv/shardmap.py``) is a pure function of
``(rank, n_ckpt_servers)``; these tests pin its properties, the
deployment edge cases (``k = 1``, ``k > n_procs``), that every
protocol's daemons actually dial their own shard (and restart against
it), and bit-for-bit ``parallel == serial == cache`` determinism at
k ∈ {1, 4} for all three protocols.  ``k = 1`` bit-identity with the
pre-sharding engine is pinned separately by the golden digests in
``tests/test_engine_fastpath.py``.
"""

import dataclasses

import pytest

from repro.analysis.classify import Outcome
from repro.experiments import scale_sweep
from repro.experiments.harness import TrialSetup
from repro.experiments.runner import TrialRunner, trial_key
from repro.mpichv import shardmap
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads import build_workload

RING = dict(workload="ring", niters=30, total_compute=960.0, footprint=1e8)


def ring_runtime(n=4, seed=0, niters=30, total_compute=960.0, **cfg):
    config = VclConfig(n_procs=n, n_machines=n + 2, footprint=1e8, **cfg)
    wl = build_workload("ring", n_procs=n, niters=niters,
                        total_compute=total_compute, footprint=1e8)
    return VclRuntime(config, wl.make_factory(), seed=seed)


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------

def test_shard_assignment_is_modulo_and_deterministic():
    assert [shardmap.ckpt_shard(r, 4) for r in range(8)] \
        == [0, 1, 2, 3, 0, 1, 2, 3]
    # pure function: identical across calls (no hidden state)
    assert shardmap.ckpt_shard(123, 7) == shardmap.ckpt_shard(123, 7) == 4


def test_shard_k1_maps_everything_to_shard_zero():
    assert all(shardmap.ckpt_shard(r, 1) == 0 for r in range(64))


def test_shard_map_rejects_bad_inputs():
    with pytest.raises(ValueError):
        shardmap.ckpt_shard(0, 0)
    with pytest.raises(ValueError):
        shardmap.ckpt_shard(-1, 2)


def test_node_layout_is_contiguous():
    config = VclConfig(n_procs=4, n_ckpt_servers=3, protocol="v1",
                       n_channel_memories=2)
    assert shardmap.ckpt_server_node(0) == "svc2"
    assert shardmap.ckpt_server_node(2) == "svc4"
    assert shardmap.cm_node(config, 0) == "svc5"   # after the shards
    assert shardmap.cm_node(config, 1) == "svc6"
    assert shardmap.ckpt_server_for_rank(config, 5) \
        == ("svc4", shardmap.CKPT_SERVER_PORT_BASE + 2)


def test_config_rejects_zero_servers():
    with pytest.raises(ValueError):
        VclConfig(n_procs=4, n_ckpt_servers=0)


# ---------------------------------------------------------------------------
# deployments across the shard range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
@pytest.mark.parametrize("shards", [1, 3])
def test_every_protocol_spreads_ingest_over_its_shards(protocol, shards):
    rt = ring_runtime(seed=3, n_ckpt_servers=shards, protocol=protocol)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert len(res.ckpt_shard_bytes) == shards
    # 4 ranks over `shards` servers: every shard that owns a rank
    # ingested checkpoint bytes
    for rank in range(4):
        shard = shardmap.ckpt_shard(rank, shards)
        assert res.ckpt_shard_bytes[shard] > 0, (shard, rank)
    if shards > 1:
        # sharding actually spreads the load: no single server took it all
        assert max(res.ckpt_shard_bytes) < sum(res.ckpt_shard_bytes)


def test_more_shards_than_ranks_leaves_surplus_idle():
    rt = ring_runtime(n=2, seed=5, n_ckpt_servers=4, protocol="v2")
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert len(res.ckpt_shard_bytes) == 4
    assert res.ckpt_shard_bytes[0] > 0 and res.ckpt_shard_bytes[1] > 0
    assert res.ckpt_shard_bytes[2] == 0 and res.ckpt_shard_bytes[3] == 0


def test_shard_imbalance_metric():
    res = ring_runtime(seed=3, n_ckpt_servers=2).run()
    assert res.ckpt_shard_imbalance == pytest.approx(
        max(res.ckpt_shard_bytes)
        / (sum(res.ckpt_shard_bytes) / len(res.ckpt_shard_bytes)))
    assert res.ckpt_shard_imbalance >= 1.0


# ---------------------------------------------------------------------------
# restart paths against a killed shard server
# ---------------------------------------------------------------------------

def _kill_service(rt, name, when):
    def do():
        proc = rt.service_procs.get(name)
        if proc is not None and proc.state.alive:
            rt.engine.log("service_killed", service=name)
            proc.kill()
    rt.engine.call_at(when, do)


def _kill_rank(rt, rank, when):
    def do():
        for proc in rt.cluster.all_procs("vdaemon"):
            if proc.tags.get("rank") == rank and proc.state.alive:
                rt.engine.log("fault_injected", rank=rank)
                proc.kill()
                return
    rt.engine.call_at(when, do)


def test_restart_succeeds_when_other_shards_server_died():
    """v2, k=2: killing shard 1's server does not impede the restart of
    rank 0 (shard 0) — the failure domains are independent."""
    rt = ring_runtime(seed=11, n_ckpt_servers=2, protocol="v2",
                      timeout=400.0)
    _kill_service(rt, "ckptserver.1", when=40.0)
    _kill_rank(rt, 0, when=45.0)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.restarts == 1
    assert res.trace.count("recovery_complete") >= 1


def test_restart_blocks_when_own_shards_server_died():
    """v2, k=2: rank 0's relaunch dials shard 0's dead server forever —
    the deployment's documented single point of failure *per shard*
    (exactly the single-server behaviour, now scoped to one shard)."""
    rt = ring_runtime(seed=11, n_ckpt_servers=2, protocol="v2",
                      timeout=200.0)
    _kill_service(rt, "ckptserver.0", when=40.0)
    _kill_rank(rt, 0, when=45.0)
    res = rt.run()
    assert res.outcome is not Outcome.TERMINATED
    # the stall is the daemon's connect retry loop, not a crash
    assert not getattr(rt.engine, "process_failures", [])


def test_survivors_unaffected_by_foreign_shard_loss():
    """Losing a shard's server without any rank failure never blocks a
    run: live daemons only buffer to their ckpt socket when it is open."""
    rt = ring_runtime(seed=7, n_ckpt_servers=2, protocol="v1",
                      timeout=400.0)
    _kill_service(rt, "ckptserver.1", when=35.0)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.restarts == 0


# ---------------------------------------------------------------------------
# parallel == serial == cache, all protocols, k in {1, 4}
# ---------------------------------------------------------------------------

def _signature(results):
    return [(r.outcome, r.exec_time, r.sim_time, r.events_processed,
             r.app_signature, tuple(r.ckpt_shard_bytes)) for r in results]


@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
@pytest.mark.parametrize("shards", [1, 4])
def test_parallel_serial_cache_identical_per_shard_count(
        protocol, shards, tmp_path):
    setup = TrialSetup(n_procs=4, n_machines=7, protocol=protocol,
                       timeout=300.0,
                       config_overrides={"n_ckpt_servers": shards}, **RING)
    jobs = [(setup, 1000 + i) for i in range(3)]

    serial = TrialRunner(workers=1).run_jobs(jobs)
    parallel = TrialRunner(workers=3).run_jobs(jobs)
    assert _signature(serial) == _signature(parallel)

    cache = str(tmp_path / "cache")
    cold = TrialRunner(workers=1, cache_dir=cache)
    assert _signature(cold.run_jobs(jobs)) == _signature(serial)
    warm = TrialRunner(workers=1, cache_dir=cache)
    cached = warm.run_jobs(jobs)
    assert warm.stats.cache_hits == len(jobs) and warm.stats.executed == 0
    assert _signature(cached) == _signature(serial)


def test_shard_count_is_part_of_the_cache_key():
    base = TrialSetup(n_procs=4, n_machines=7, **RING)
    k2 = dataclasses.replace(
        base, config_overrides={"n_ckpt_servers": 2})
    k4 = dataclasses.replace(
        base, config_overrides={"n_ckpt_servers": 4})
    assert trial_key(k2, 1) != trial_key(k4, 1)


def test_scale_sweep_summary_is_the_same_from_the_cache(tmp_path):
    """The BENCH_scale.json rows hold no wall clock, which a cached
    result does not carry."""
    def summary():
        return scale_sweep.summarize(scale_sweep.run_experiment(
            protocol_names=("v1",), ranks=(8,), shards=(1, 2),
            runner=TrialRunner(cache_dir=str(tmp_path))))

    assert summary() == summary()


# ---------------------------------------------------------------------------
# 512 ranks end to end
# ---------------------------------------------------------------------------

def test_scale_512_rank_delivery():
    """One 512-rank deployment through the full runtime (mesh build,
    message delivery, checkpoint waves), its checkpoint traffic spread
    over four shards."""
    setup = TrialSetup(
        n_procs=512, n_machines=516, protocol="vcl", timeout=600.0,
        workload="ring", niters=10, total_compute=110.0 * 512,
        footprint=1e9,
        config_overrides={"ckpt_period": 15.0, "n_ckpt_servers": 4})
    result = setup.run_one(seed=2)
    assert result.outcome is Outcome.TERMINATED
    assert len(result.ckpt_shard_bytes) == 4
    assert all(b > 0 for b in result.ckpt_shard_bytes)
