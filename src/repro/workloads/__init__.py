"""Workloads: the NAS-BT-like benchmark plus smaller demo applications.

Every workload is written against
:class:`repro.mpi.endpoint.MpiEndpoint` and follows the restartability
contract (all progress in ``ep.state``), so it survives
checkpoint/rollback at any instant.

The module also hosts the **workload table** :data:`WORKLOADS`:
experiment campaigns select a workload by name
(``TrialSetup(workload="ring")``) and its builder adapts the harness's
shared calibration knobs (``niters``, ``total_compute``,
``footprint``) to the workload's own parameters.  A builder added to
the table is available to every experiment driver at once.
"""

from typing import Callable, Dict, List

from repro.registry import lookup
from repro.workloads.nas_bt import BTWorkload, bt_expected_checksum
from repro.workloads.ring import RingWorkload
from repro.workloads.masterworker import MasterWorkerWorkload

def available_workloads() -> List[str]:
    """Workload names, sorted."""
    return sorted(WORKLOADS)


def build_workload(name: str, *, n_procs: int, niters: int,
                   total_compute: float, footprint: float,
                   params: dict = None):
    """Build the named workload; unknown names raise ``ValueError``."""
    builder = lookup(WORKLOADS, "workload", name)
    return builder(n_procs=n_procs, niters=niters,
                   total_compute=total_compute, footprint=footprint,
                   params=dict(params or {}))


# -- built-in builders --------------------------------------------------------

def _build_bt(*, n_procs, niters, total_compute, footprint, params):
    kw = dict(niters=niters, total_compute=total_compute,
              footprint=footprint)
    kw.update(params)           # params may override any calibration knob
    return BTWorkload(n_procs=n_procs, **kw)


def _build_ring(*, n_procs, niters, total_compute, footprint, params):
    # latency-bound token ring: rounds default to the iteration count,
    # per-hop work spreads the same total compute over every hop
    kw = dict(params)
    rounds = kw.setdefault("rounds", max(1, niters))
    kw.setdefault("work_per_hop", total_compute / (rounds * n_procs * 4))
    return RingWorkload(n_procs=n_procs, **kw)


def _build_masterworker(*, n_procs, niters, total_compute, footprint, params):
    # task farm: one task per "iteration" by default, same total compute
    kw = dict(params)
    n_tasks = kw.setdefault("n_tasks", max(1, niters))
    kw.setdefault("work_per_task", total_compute / (n_tasks * n_procs))
    return MasterWorkerWorkload(n_procs=n_procs, **kw)


#: workload name -> builder.  ``builder(n_procs=..., niters=...,
#: total_compute=..., footprint=..., params={...})`` returns a workload
#: object exposing ``make_factory()``; ``params`` carries
#: workload-specific overrides (``TrialSetup.workload_params``).
WORKLOADS: Dict[str, Callable] = {
    "bt": _build_bt,
    "ring": _build_ring,
    "masterworker": _build_masterworker,
}
