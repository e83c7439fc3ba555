"""Network-sensitivity sweep: protocol × topology × oversubscription.

The paper's testbed is one real cluster whose fabric silently shapes
every figure (checkpoint-transfer slowdowns in Fig. 6, socket-closure
failure detection).  This experiment makes the fabric a variable: it
races every protocol over the :mod:`repro.netmodel` fabric
family —

* ``uniform`` — the historical single-pipe model (the baseline);
* ``star`` — per-host access links into one shared switch;
* ``twotier/oN`` — racks behind an ``N``:1 oversubscribed core, one
  sweep point per requested oversubscription factor —

with one mid-run fault so recovery traffic (checkpoint fetch + replay)
crosses the contended links.  Rows surface the fabric traffic
accounting added to :class:`~repro.mpichv.runtime.RunResult`: total
bytes and the per-link hot spot, which is where oversubscription
bites.

Results land in ``BENCH_net.json`` (per-row means, hot-spot links,
wall-clock and runner stats); trials flow through the shared cached
:class:`~repro.experiments.runner.TrialRunner`, so re-sweeps are
cache hits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import (ExperimentResult, TrialSetup,
                                       run_trials)
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (MACHINES_FLAG, NO_FAULTS_FLAG,
                                    PROCS_FLAG, PROTOCOL_NAMES_FLAG,
                                    REPS_FLAG, ExperimentSpec, comma_list,
                                    flag, table)
from repro.explore.generators import TimedKill, render_plan
from repro.mpichv import protocols
from repro.netmodel.spec import TopologySpec

REPS = 3
OVERSUBS: Sequence[float] = (2.0, 8.0)
#: ring calibration (~80 s fault-free at 4 procs; see repro.explore)
CALIBRATION = dict(workload="ring", niters=40, total_compute=1280.0,
                   footprint=1e8)
FAULT_AT = 45


def topology_grid(oversubs: Sequence[float] = OVERSUBS,
                  rack_size: int = 4) -> List[Tuple[str, TopologySpec]]:
    """The swept (label, spec) pairs, in sweep order."""
    grid: List[Tuple[str, TopologySpec]] = [
        ("uniform", TopologySpec("uniform")),
        ("star", TopologySpec("star")),
    ]
    for factor in oversubs:
        grid.append((f"twotier/o{factor:g}",
                     TopologySpec("twotier", rack_size=rack_size,
                                  oversubscription=factor)))
    return grid


def run_experiment(reps: int = REPS,
                   protocol_names: Optional[Sequence[str]] = None,
                   oversubs: Sequence[float] = OVERSUBS,
                   n_procs: int = 4,
                   n_machines: int = 7,
                   faulty: bool = True,
                   base_seed: int = 9000,
                   runner: Optional[TrialRunner] = None) -> ExperimentResult:
    protos = tuple(protocol_names or protocols.available())
    grid = topology_grid(oversubs)
    scenario = render_plan((TimedKill(at=FAULT_AT, target=0),)) \
        if faulty else None

    configs: List[Tuple[str, TopologySpec]] = []
    labels: List[str] = []
    for protocol in protos:
        for topo_label, spec in grid:
            configs.append((protocol, spec))
            labels.append(f"{protocol}/{topo_label}")

    def setup_for(config: Tuple[str, TopologySpec]) -> TrialSetup:
        protocol, spec = config
        setup = TrialSetup(
            n_procs=n_procs, n_machines=n_machines,
            protocol=protocol, timeout=600.0,
            config_overrides={"topology": spec},
            **CALIBRATION)
        if scenario is not None:
            from dataclasses import replace
            from repro.explore import generators
            setup = replace(setup, scenario_source=scenario,
                            master_daemon=generators.MASTER,
                            node_daemon=generators.NODE_DAEMON)
        return setup

    fault_note = f"one kill at t={FAULT_AT}s" if faulty else "fault-free"
    return run_trials(
        setup_for=setup_for, configs=configs, labels=labels, reps=reps,
        name=f"Network sensitivity — protocol x topology ({fault_note})",
        base_seed=base_seed, runner=runner)


def summarize(result: ExperimentResult) -> List[Dict[str, object]]:
    """Per-row summary rows for ``BENCH_net.json`` (deterministic)."""
    out: List[Dict[str, object]] = []
    for row in result.rows:
        out.append({
            "label": row.label,
            "runs": row.n,
            "pct_terminated": row.pct_terminated,
            "mean_exec_time": row.mean_exec_time,
            "mean_net_mb": row.mean_net_bytes / 1e6,
            # Both columns null when the fabric keeps no per-link
            # books (uniform): a "100 % hot link" that is really the
            # aggregate restated would misread as saturation.
            "hotspot_link": row.hotspot_link,
            "hotspot_share": (row.hotspot_share
                              if row.hotspot_link is not None else None),
        })
    return out


def render_hotspots(result: ExperimentResult) -> str:
    """Per-row hot-link table (the contention headline)."""
    header = (f"{'config':>22} | {'net MB':>8} | {'hot link':>14} | "
              f"{'share':>6}")
    lines = ["== fabric hot spots ==", header, "-" * len(header)]
    for row in result.rows:
        hot = row.hotspot_link or "-"
        lines.append(f"{row.label:>22} | {row.mean_net_bytes / 1e6:>8.1f} | "
                     f"{hot:>14} | {100.0 * row.hotspot_share:>5.1f}%")
    return "\n".join(lines)


def bench_doc(result: ExperimentResult, kwargs) -> Dict[str, object]:
    """The command-specific keys of ``BENCH_net.json``."""
    return {
        "reps": kwargs["reps"],
        "protocols": list(kwargs["protocol_names"] or protocols.available()),
        "oversubscriptions": list(kwargs["oversubs"]),
        "faulty": kwargs["faulty"],
        "rows": summarize(result),
    }


def expect(result: ExperimentResult, kwargs) -> None:
    # every topology x protocol row is present, and carries traffic
    protos = kwargs["protocol_names"] or protocols.available()
    assert {row.label for row in result.rows} == {
        f"{protocol}/{topo}" for protocol in protos
        for topo, _spec in topology_grid(kwargs["oversubs"])}
    assert all(row.mean_net_bytes > 0 for row in result.rows)


SPEC = ExperimentSpec(
    name="net-sensitivity", run=run_experiment, expect=expect,
    quick=dict(reps=1),
    flags=(REPS_FLAG, PROTOCOL_NAMES_FLAG,
           flag("--oversub", type=comma_list(float), dest="oversubs",
                metavar="N[,N]",
                help="twotier oversubscription factors (default: 2,8)"),
           PROCS_FLAG, MACHINES_FLAG, NO_FAULTS_FLAG),
    blocks=(table, lambda result, kwargs: render_hotspots(result)),
    bench_json="BENCH_net.json", summarize=bench_doc)
