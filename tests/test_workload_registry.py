"""Tests for the workload table and its harness plumbing.

``TrialSetup`` selects workloads by name through
:mod:`repro.workloads`, so ring/masterworker campaigns run through the
same experiment machinery as BT — including the parallel runner and
the result cache, which must stay bit-for-bit deterministic for every
protocol/workload combination.
"""

import pytest

from repro.analysis.classify import Outcome
from repro.experiments.compare_protocols import run_experiment
from repro.experiments.harness import TrialSetup
from repro.experiments.runner import TrialRunner
from repro.workloads import WORKLOADS, available_workloads, build_workload
from repro.workloads.masterworker import MasterWorkerWorkload
from repro.workloads.ring import RingWorkload


def test_registry_lists_builtins():
    assert {"bt", "ring", "masterworker"} <= set(available_workloads())


def test_unknown_workload_raises_with_candidates():
    with pytest.raises(ValueError, match="unknown workload"):
        build_workload("nope", n_procs=4, niters=10, total_compute=100.0,
                       footprint=1e8)


def test_unknown_workload_raises_at_trial_build_time():
    setup = TrialSetup(n_procs=4, n_machines=6, workload="nope")
    with pytest.raises(ValueError, match="unknown workload"):
        setup.build(seed=0)


def test_bt_calibration_knobs_overridable_via_params():
    """Regression: overriding a bt calibration knob through
    ``workload_params`` used to raise 'multiple values for niters'."""
    wl = build_workload("bt", n_procs=4, niters=10, total_compute=100.0,
                        footprint=1e8, params={"niters": 5,
                                               "face_fraction": 0.05})
    assert wl.niters == 5 and wl.face_fraction == 0.05


def test_workload_params_reach_the_workload():
    wl = build_workload("ring", n_procs=4, niters=10, total_compute=100.0,
                        footprint=1e8, params={"rounds": 7,
                                               "work_per_hop": 0.25})
    assert isinstance(wl, RingWorkload)
    assert wl.rounds == 7 and wl.work_per_hop == 0.25
    wl = build_workload("masterworker", n_procs=4, niters=10,
                        total_compute=100.0, footprint=1e8,
                        params={"n_tasks": 12})
    assert isinstance(wl, MasterWorkerWorkload)
    assert wl.n_tasks == 12


@pytest.mark.parametrize("workload,protocol", [
    ("ring", "vcl"),
    ("ring", "v1"),
    ("masterworker", "v2"),
    ("masterworker", "v1"),
])
def test_non_bt_campaigns_run_through_the_harness(workload, protocol):
    setup = TrialSetup(
        n_procs=4, n_machines=6, protocol=protocol, workload=workload,
        niters=12, total_compute=96.0, footprint=1e8,
        workload_params={"rounds": 12} if workload == "ring" else {},
    )
    res = setup.run_one(seed=7)
    assert res.outcome is Outcome.TERMINATED


def test_registering_a_workload_extends_every_campaign(monkeypatch):
    class TinyRing(RingWorkload):
        pass

    monkeypatch.setitem(
        WORKLOADS, "tinyring",
        lambda *, n_procs, niters, total_compute, footprint, params:
            TinyRing(n_procs=n_procs, rounds=4, **params))
    setup = TrialSetup(n_procs=3, n_machines=5, workload="tinyring")
    res = setup.run_one(seed=1)
    assert res.outcome is Outcome.TERMINATED


# ---------------------------------------------------------------------------
# determinism of v1 campaigns through the parallel runner (acceptance)
# ---------------------------------------------------------------------------

def row_signature(row):
    return [(r.outcome, r.exec_time, r.failures_detected, r.restarts,
             r.bug_events, r.waves_committed, r.sim_time,
             r.events_processed) for r in row.results]


def test_v1_campaign_parallel_equals_serial_and_cache_identical(tmp_path):
    kwargs = dict(reps=2, periods=(None, 45), protocols=("v1",),
                  n_procs=4, n_machines=6,
                  niters=10, total_compute=180.0, footprint=1e8)
    serial = run_experiment(runner=TrialRunner(workers=1), **kwargs)
    parallel = run_experiment(runner=TrialRunner(workers=4), **kwargs)
    warmer = TrialRunner(workers=2, cache_dir=str(tmp_path))
    first = run_experiment(runner=warmer, **kwargs)
    cached_runner = TrialRunner(workers=2, cache_dir=str(tmp_path))
    cached = run_experiment(runner=cached_runner, **kwargs)

    for other in (parallel, first, cached):
        assert [r.label for r in serial.rows] == [r.label for r in other.rows]
        for row_a, row_b in zip(serial.rows, other.rows):
            assert row_signature(row_a) == row_signature(row_b), row_a.label
    # the second cached pass executed nothing
    assert cached_runner.stats.executed == 0
    assert cached_runner.stats.cache_hits == sum(r.n for r in cached.rows)
    # and the faulty row really exercised v1 recovery
    assert serial.row("v1 1/45s").total_faults > 0
