"""Golden determinism matrix for the simulation engine.

One ``(setup, seed)`` pair simulates one history: the digests pinned
here cover the trace records of every protocol at 1 and 4
checkpoint-server shards on a uniform and a two-tier fabric.  Any
drift means dispatch order, fabric arithmetic or protocol logic
changed — a digest string is never edited.

The engine-event counts live in their own tables (``EVENTS_*``): they
say how much kernel plumbing the same history cost, which is exactly
what a kernel optimisation moves, so a PR that moves them re-records
them with a note and leaves the digests alone.

The ``uniform`` rows deliberately share their setup with
``tests/test_engine_fastpath.py`` — their digests are the same pinned
constants, so a drift in either file points at the same engine.

The faulted row also pins the severance-scan ordering fix: partition
injection scans live connections — service sockets and mesh rows
alike — in *creation order* (an insertion-ordered dict in
``Network._conns``), not in address-dependent set order — the digest is stable across processes only
because of that.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.harness import TrialSetup
from repro.experiments.runner import trial_key
from repro.explore.generators import (MASTER, NODE_DAEMON, Heal, TimedKill,
                                      TimedPartition, render_plan)
from repro.netmodel.spec import TopologySpec

TOPOLOGIES = {
    "uniform": TopologySpec("uniform"),
    "twotier": TopologySpec("twotier", rack_size=4, oversubscription=2.0),
}

#: kill one rank mid-run, cut a machine off the fabric, heal 20 s later
FAULT_PLAN = (TimedKill(at=45, target=0),
              TimedPartition(at=60, targets=(1,)),
              Heal(after=20))

#: (protocol, n_ckpt_servers, topology) -> trace digest, fault-free
GOLDEN_CLEAN = {
    ("vcl", 1, "uniform"):
        "6cc3065ebbf0dc039f1fb0187d5a12f2f303ee43c1c5999dc0926df995bfddce",
    ("vcl", 1, "twotier"):
        "c9ee550f8153c86c5f4a7f39a56710c040a98db35a3606ee25f0f59b0db2fc72",
    ("vcl", 4, "uniform"):
        "178688c39548d6626dbb62827b0d4a644fbf81cb187f494d30dde10eab88441d",
    ("vcl", 4, "twotier"):
        "edb24d635da8b9a36b46675d1010d64013c4b91f0fc916f4e355cd1a84a12911",
    ("v2", 1, "uniform"):
        "2208a1a318b3f1851eba4841edc6b09fc6cb669487cd9de5a031cfb2916e5bea",
    ("v2", 1, "twotier"):
        "29fce32e319e2a89f818b74eb3ce7416a271305e692206e7348ab20dd12171e4",
    ("v2", 4, "uniform"):
        "be8835319b9f92e9d4562ccdd95d76cc695d05546718506ddd0f9c86b53f01b2",
    ("v2", 4, "twotier"):
        "89304cf4b4af748601877f8df7cb12880930a519fcb1150d395263c2c6d057ef",
    ("v1", 1, "uniform"):
        "de988038cc5fcf283f4fdfdb1e62145e62b22ce4b6579932d8f3cf152ace4070",
    ("v1", 1, "twotier"):
        "d76e1974230bf887686bce88bb06ce150735d7742a3a692f0f4c4604b6cd75e5",
    ("v1", 4, "uniform"):
        "fb39f736d8351827e15735b7b0f6a602af9256ee444f8fdc4621eac7a5db9262",
    ("v1", 4, "twotier"):
        "ffef3985901d8dc1814d9ea433d432d20254053a034c85346b02b22f299feea8",
}

#: kill + partition/heal
GOLDEN_FAULTED = {
    ("vcl", 4, "twotier"):
        "6bc10cbe5091fd53a3c65f3cb7b46e5ef284f1de8e86b3e68ad69011f2d7bfd1",
}

#: engine events the same trials cost.  Re-recorded 2026-10-17, when
#: the daemons' mesh became one ``Mesh`` per incarnation: an accepted
#: connection no longer costs the acceptor a payload to look at it when
#: nothing has been said on it yet (before: vcl-1-uniform 940,
#: vcl-1-twotier 998, v2-1-uniform 1507, v1-1-uniform 1153, faulted
#: 27032; v1, which has no mesh, only lost its acceptor's first look).
#: The two-tier fabric's shared pipes spread arrivals over more
#: instants, so fewer of them share a ``Batch`` payload.
EVENTS_CLEAN = {
    ("vcl", 1, "uniform"): 937,
    ("vcl", 1, "twotier"): 995,
    ("vcl", 4, "uniform"): 938,
    ("vcl", 4, "twotier"): 1022,
    ("v2", 1, "uniform"): 1504,
    ("v2", 1, "twotier"): 1551,
    ("v2", 4, "uniform"): 1507,
    ("v2", 4, "twotier"): 1557,
    ("v1", 1, "uniform"): 1152,
    ("v1", 1, "twotier"): 1170,
    ("v1", 4, "uniform"): 1155,
    ("v1", 4, "twotier"): 1176,
}
EVENTS_FAULTED = {("vcl", 4, "twotier"): 27016}


def _setup(protocol, shards, topo, faulty=False):
    scenario = render_plan(FAULT_PLAN) if faulty else None
    return TrialSetup(
        n_procs=4, n_machines=7, protocol=protocol, timeout=300.0,
        workload="ring", niters=40, total_compute=1280.0, footprint=1e8,
        scenario_source=scenario,
        master_daemon=MASTER if faulty else None,
        node_daemon=NODE_DAEMON if faulty else None,
        config_overrides={"n_ckpt_servers": shards,
                          "topology": TOPOLOGIES[topo]})


def _digest(result):
    h = hashlib.sha256()
    for rec in result.trace.records:
        h.update(repr((round(rec.t, 9), rec.kind,
                       sorted(rec.fields.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("topo", ["uniform", "twotier"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
def test_clean_matrix_matches_reference_digest(protocol, shards, topo):
    result = _setup(protocol, shards, topo).run_one(seed=7)
    assert _digest(result) == GOLDEN_CLEAN[(protocol, shards, topo)]
    assert result.events_processed == EVENTS_CLEAN[(protocol, shards, topo)]


def test_faulted_trial_matches_reference_digest():
    result = _setup("vcl", 4, "twotier", faulty=True).run_one(seed=7)
    assert _digest(result) == GOLDEN_FAULTED[("vcl", 4, "twotier")]
    assert result.events_processed == EVENTS_FAULTED[("vcl", 4, "twotier")]


# ---------------------------------------------------------------------------
# cache keys: the key hashes the setup and the seed only, so an edit to
# TrialSetup or trial_key that moves every existing cache entry fails
# here, and a result-format bump leaves it where it is
# ---------------------------------------------------------------------------

def test_trial_key_is_the_recorded_hex():
    setup = _setup("vcl", 1, "uniform")
    assert trial_key(setup, 7) == \
        "2bb21e149ec8630fc0ce70767d3ff9a5593d0e6b807eb59473bc4e1992d3beda"
    assert trial_key(dataclasses.replace(setup, observe=True), 7) == \
        "1670b0fd784c4fc3570279febcbc6105b5582b220ad6fbe323fd61ee2b5bf93b"


def test_trial_key_still_separates_real_configuration():
    setup = _setup("vcl", 1, "uniform")
    key = trial_key(setup, 7)
    assert trial_key(setup, 8) != key
    assert trial_key(dataclasses.replace(setup, protocol="v2"), 7) != key
    assert trial_key(dataclasses.replace(setup, niters=41), 7) != key
    assert trial_key(_setup("vcl", 1, "twotier"), 7) != key
    assert trial_key(_setup("vcl", 4, "uniform"), 7) != key


def test_one_topology_has_one_key_however_it_is_spelled():
    """``scale-sweep --topology`` passes a model name and
    ``net-sensitivity`` a spec: both spellings of one fabric are one
    trial, so they must share one cache slot."""
    def setup(topology):
        return TrialSetup(n_procs=4, n_machines=6, workload="ring",
                          config_overrides={"topology": topology})

    spellings = ["star", {"model": "star"}, TopologySpec("star")]
    keys = {trial_key(setup(topology), 3) for topology in spellings}
    assert len(keys) == 1
    given = {"topology": "star"}
    held = TrialSetup(n_procs=4, n_machines=6, config_overrides=given)
    assert held.config_overrides["topology"] == TopologySpec("star")
    assert given == {"topology": "star"}      # the caller's dict is kept
    # an explicit "uniform" is not folded into a missing override
    plain = TrialSetup(n_procs=4, n_machines=6, workload="ring")
    assert trial_key(plain, 3) != trial_key(setup("uniform"), 3)


#: one setup per shape a key must spell: plain scalars, a generated
#: scenario's source, a nested dataclass (net-sensitivity's
#: ``TopologySpec`` override), tuples and nested dicts in overrides
KEY_PLAN = (TimedKill(at=20, target=1), TimedPartition(at=30, targets=(2, 3)),
            Heal(after=10))
KEY_SETUPS = {
    "quick_ring": TrialSetup(n_procs=4, n_machines=6, workload="ring",
                             niters=10, total_compute=180.0, footprint=1e8),
    "generated": TrialSetup(
        n_procs=4, n_machines=6, timeout=300.0, protocol="v2",
        workload="ring", niters=30, total_compute=480.0, footprint=1e8,
        scenario_source=render_plan(KEY_PLAN), master_daemon=MASTER,
        node_daemon=NODE_DAEMON),
    "topology": TrialSetup(
        n_procs=4, n_machines=7, workload="ring", niters=10,
        total_compute=180.0, footprint=1e8,
        config_overrides={"topology": TopologySpec(
            "twotier", rack_size=4, oversubscription=2.0)}),
    "containers": TrialSetup(
        n_procs=4, n_machines=6, workload="masterworker",
        workload_params={"n_tasks": 12, "nested": {"b": (1, 2), "a": [3.5]}},
        scenario_params={"X": 2},
        config_overrides={"n_ckpt_servers": 2, "cm_replay": False,
                          "shape": (4, (5, 6))}),
}

#: seed 11 keys of ``KEY_SETUPS``, unobserved (the default) and
#: observed: a key moves only when the fields of ``TrialSetup`` do
KEYS = {
    "quick_ring": (
        "1ecb32cb6e85b753fb62dc7a2be2ca2fb0377608960050d254fe99e0ebbe983e",
        "050c1d5fcdcfe182abfc6cc6949d707c5c74cbf34eb39d85fc64ade63671a173"),
    "generated": (
        "45a7c819b8064d4dc2f61105b2a4a102b62a82c80c72e3f623eb2c595ae1f750",
        "dd639006ddf7f37efd5060b74af9fe6e08497b2972be555c55db34aa17b4a30c"),
    "topology": (
        "ee2dd21d3527c2574900f495840046d1b77f3827562f90fc4d3f0bb4aac65c1a",
        "0f7f943eb5f59258b1bc2267e6ad890daba603fee98da8a06ae4c70bcc7a0455"),
    "containers": (
        "48def552f3cb444abd3deff824ad64fdb34a1377e9d2ee12539e09b188dd4135",
        "c1646220e0ed5d2afcbe354159f8ce21ef43122aa1beae8688c506d911eb83d8"),
}


@pytest.mark.parametrize("name", sorted(KEY_SETUPS))
def test_trial_key_of_each_setup_shape_is_pinned(name):
    setup = KEY_SETUPS[name]
    assert (trial_key(setup, 11),
            trial_key(dataclasses.replace(setup, observe=True), 11)) \
        == KEYS[name]


def test_trial_key_does_not_move_with_the_result_format(monkeypatch):
    """A format bump re-executes an entry as a counted stale miss under
    the same key; it must not move the key itself."""
    from repro.experiments import resultstore
    key = trial_key(_setup("vcl", 1, "uniform"), 7)
    monkeypatch.setattr(resultstore, "FORMAT_VERSION",
                        resultstore.FORMAT_VERSION + 1)
    assert trial_key(_setup("vcl", 1, "uniform"), 7) == key
