"""Tests for the protocol table and the shared daemon base.

Covers the lookup error paths (unknown protocol, protocol/config
conflicts), the service plans, one-entry protocol extension, the
enforced absence of protocol string branches outside the table, and
the unified termination semantics of the shared daemon lifecycle.
"""

import pathlib
import re

import pytest

from repro.mpichv import protocols
from repro.mpichv.config import VclConfig
from repro.mpichv.daemonbase import MpichDaemon
from repro.mpichv.protocols import ProtocolSpec, ServiceSpec
from repro.mpichv.runtime import VclRuntime
from repro.mpichv.v1daemon import V1Daemon
from repro.mpichv.v2daemon import V2Daemon
from repro.mpichv.vdaemon import VclDaemon
from repro.workloads.nas_bt import BTWorkload


def make_runtime(protocol, n=4, seed=0, **cfg):
    cfg.setdefault("footprint", 1.2e8)
    config = VclConfig(n_procs=n, n_machines=n + 2, protocol=protocol, **cfg)
    wl = BTWorkload(n_procs=n, niters=10, total_compute=200.0,
                    footprint=cfg["footprint"])
    return VclRuntime(config, wl.make_factory(), seed=seed)


# ---------------------------------------------------------------------------
# table lookups and error paths
# ---------------------------------------------------------------------------

def test_registry_lists_the_family():
    assert set(protocols.available()) >= {"vcl", "v2", "v1"}


def test_unknown_protocol_raises_with_candidates():
    with pytest.raises(ValueError, match="unknown protocol"):
        protocols.get_spec("v3")
    with pytest.raises(ValueError, match="v1.*v2.*vcl"):
        protocols.get_spec("nope")


def test_unknown_protocol_rejected_at_config_time():
    with pytest.raises(ValueError, match="unknown protocol"):
        VclConfig(n_procs=4, protocol="nope")


@pytest.mark.parametrize("protocol", ["v2", "v1"])
def test_blocking_conflicts_with_non_vcl_protocols(protocol):
    with pytest.raises(ValueError, match="blocking"):
        VclConfig(n_procs=4, protocol=protocol, blocking=True)
    # blocking remains valid for vcl
    VclConfig(n_procs=4, blocking=True)


def test_v1_needs_a_channel_memory():
    with pytest.raises(ValueError, match="channel memory"):
        VclConfig(n_procs=4, protocol="v1", n_channel_memories=0)
    # ...but other protocols ignore the knob entirely
    VclConfig(n_procs=4, protocol="vcl", n_channel_memories=0)


# ---------------------------------------------------------------------------
# service plans drive deployment
# ---------------------------------------------------------------------------

def test_service_plans_declare_the_right_services():
    for proto, expected in [
        ("vcl", {"ckptserver.0", "ckptserver.1", "scheduler"}),
        ("v2", {"ckptserver.0", "ckptserver.1", "eventlog"}),
        ("v1", {"ckptserver.0", "ckptserver.1",
                "channelmemory.0", "channelmemory.1"}),
    ]:
        config = VclConfig(n_procs=4, protocol=proto)
        plan = protocols.get_spec(proto).service_plan(config)
        assert {svc.name for svc in plan} == expected, proto


def test_deploy_follows_the_plan():
    rt = make_runtime("v1")
    rt.deploy()
    assert len(rt.cm_procs) == 2
    assert rt.scheduler_proc is None
    assert rt.eventlog_proc is None
    assert set(rt.service_procs) == {"ckptserver.0", "ckptserver.1",
                                     "channelmemory.0", "channelmemory.1"}


def test_v1_gets_extra_service_nodes():
    config = VclConfig(n_procs=4, protocol="v1", n_channel_memories=3)
    assert config.n_service_nodes == 2 + config.n_ckpt_servers + 3
    assert VclConfig(n_procs=4, protocol="vcl").n_service_nodes == 4


# ---------------------------------------------------------------------------
# one-entry extension: a toy protocol in the table runs
# ---------------------------------------------------------------------------

def test_registering_a_new_protocol_is_enough_to_deploy_it(monkeypatch):
    class ToyDaemon(V2Daemon):
        protocol = "toy"

    spec = ProtocolSpec(
        name="toy",
        core_cls=ToyDaemon,
        service_plan=protocols.get_spec("v2").service_plan,
        single_rank_restart=True,
        description="V2 under another name (extension smoke test)",
        validate=None,
    )
    with monkeypatch.context() as patch:
        patch.setitem(protocols.PROTOCOLS, "toy", spec)
        rt = make_runtime("toy")
        res = rt.run()
        assert res.outcome.value == "terminated"
        assert res.trace.count("verify_ok") == 1
        # the toy daemon really ran: its tag is on the daemon processes
        procs = rt.cluster.all_procs("vdaemon")
        assert procs and all("toy" in p.tags for p in procs)
    with pytest.raises(ValueError):
        protocols.get_spec("toy")


# ---------------------------------------------------------------------------
# no protocol string branches outside the table (acceptance criterion)
# ---------------------------------------------------------------------------

def test_no_protocol_string_branches_outside_registry():
    src_root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    pattern = re.compile(r"protocol\s*(?:==|!=|\bin\b)\s*[(\"']")
    offenders = []
    for path in src_root.rglob("*.py"):
        if path.name == "protocols.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line) and not line.lstrip().startswith("#"):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# unified termination semantics (shared daemon base)
# ---------------------------------------------------------------------------

def test_every_daemon_shares_the_lifecycle_and_termination_path():
    for cls in (VclDaemon, V2Daemon, V1Daemon):
        assert issubclass(cls, MpichDaemon)
        # one dispatcher handler (and thus one Terminate behaviour):
        # protocols cannot drift apart again without overriding it
        assert cls.on_dispatcher_msg is MpichDaemon.on_dispatcher_msg
        assert cls._terminator is MpichDaemon._terminator


@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
def test_terminate_applies_cleanup_delay_for_every_protocol(protocol):
    """Regression: the V2 daemon used to exit immediately on Terminate
    while Vcl applied the ``terminate_cleanup`` delay — a timing
    artifact with no paper-grounded reason.  Drive the pre-command-map
    Terminate path against a fake dispatcher and time the exit."""
    from repro.analysis.traces import Trace
    from repro.cluster.cluster import Cluster
    from repro.mpichv import wire
    from repro.simkernel.engine import Engine
    from repro.simkernel.store import StoreClosed

    config = VclConfig(n_procs=2, n_machines=3, protocol=protocol,
                       footprint=1e8)
    engine = Engine(seed=5, trace=Trace())
    cluster = Cluster(engine, 1, name_prefix="m")
    cluster.add_node("svc0")
    observed = {}

    def fake_dispatcher(proc):
        listener = proc.node.listen(config.dispatcher_port, owner=proc)
        sock = yield listener.accept()
        reg = yield sock.recv()
        assert isinstance(reg, wire.Register)
        sock.send(wire.RegisterAck(rank=reg.rank))
        sock.send(wire.Terminate())
        observed["sent_at"] = engine.now
        try:
            yield sock.recv()
        except StoreClosed:
            observed["closed_at"] = engine.now

    cluster.node("svc0").spawn("dispatcher", fake_dispatcher, notify=False)

    def app(ep):
        yield ep.engine.event()

    spec = protocols.get_spec(protocol)
    cluster.node("m0").spawn(
        "vdaemon.0",
        lambda p: spec.daemon_main(p, config, 0, 0, 1, app),
        notify=False)
    engine.run(until=30.0)

    assert "closed_at" in observed, "daemon never exited"
    delay = observed["closed_at"] - observed["sent_at"]
    lo, hi = config.timing.terminate_cleanup
    # one network hop for the Terminate, then the cleanup delay
    assert delay >= lo, (protocol, delay)
    assert delay <= hi + 1.0, (protocol, delay)
