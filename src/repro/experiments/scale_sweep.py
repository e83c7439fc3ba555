"""Scale sweep: protocol × ranks × checkpoint-server shards.

The paper's Fig. 6 stops at 64 processes — where a single checkpoint
server saturates (every wave funnels ``footprint`` bytes through one
60 MB/s disk).  This experiment extends the scale axis past the
paper's range and makes the server count a variable: every
protocol runs at ranks up to 512 with the checkpoint traffic spread
over k ∈ {1, 2, 4, 8} shards by the deterministic map in
:mod:`repro.mpichv.shardmap`.

Per cell the sweep reports the usual outcome/time columns plus the
*shard balance* carried by every :class:`~repro.mpichv.runtime.RunResult`
(``ckpt_shard_bytes``): the busiest server's share of checkpoint
ingest, which is where the k = 1 hot spot dissolves as k grows.  On a
contended fabric (``--topology star``) the same story shows up in the
per-link hot spot — the single server's downlink stops dominating.

One mid-run kill (t = 45 s by default) makes the restart path cross
the shard map too: the failed rank refetches its image from its own
shard.  Trials flow through the cached
:class:`~repro.experiments.runner.TrialRunner`; results land in
``BENCH_scale.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import (ExperimentResult, ExperimentRow,
                                       TrialSetup, run_trials)
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (NO_FAULTS_FLAG, PROTOCOL_NAMES_FLAG,
                                    REPS_FLAG, ExperimentSpec, comma_list,
                                    flag, table)
from repro.mpichv import protocols

REPS = 1
RANKS: Sequence[int] = (32, 64, 128, 256, 512)
SHARDS: Sequence[int] = (1, 2, 4, 8)
FAULT_AT = 45

#: ring calibration — per-rank work is held constant
#: (``COMPUTE_PER_RANK`` CPU-seconds each, overlapped across the
#: ring), so the fault-free run stays ~110 s of simulated time at
#: every rank count while message/checkpoint volume grows with the
#: deployment
ROUNDS = 40
COMPUTE_PER_RANK = 440.0
#: total application footprint: one wave pushes 1 GB through the
#: shards — ~17 s of ingest on a single 60 MB/s server (the paper's
#: saturation regime), ~2 s over 8
FOOTPRINT = 1e9


def sweep_grid(protocol_names: Sequence[str],
               ranks: Sequence[int],
               shards: Sequence[int]) -> List[Tuple[str, int, int]]:
    """(protocol, n_procs, n_ckpt_servers) cells, in sweep order."""
    return [(protocol, n, k)
            for protocol in protocol_names
            for n in ranks
            for k in shards]


def run_experiment(reps: int = REPS,
                   protocol_names: Optional[Sequence[str]] = None,
                   ranks: Sequence[int] = RANKS,
                   shards: Sequence[int] = SHARDS,
                   faulty: bool = True,
                   topology: str = "uniform",
                   base_seed: int = 11000,
                   runner: Optional[TrialRunner] = None) -> ExperimentResult:
    protos = tuple(protocol_names or protocols.available())
    grid = sweep_grid(protos, ranks, shards)
    scenario = None
    if faulty:
        from repro.explore.generators import TimedKill, render_plan
        scenario = render_plan((TimedKill(at=FAULT_AT, target=0),))

    configs = grid
    labels = [f"{protocol}/n{n}/k{k}" for protocol, n, k in grid]

    def setup_for(config: Tuple[str, int, int]) -> TrialSetup:
        protocol, n, k = config
        overrides: Dict[str, object] = {"n_ckpt_servers": k}
        if topology != "uniform":
            overrides["topology"] = topology
        setup = TrialSetup(
            n_procs=n, n_machines=n + 4,
            protocol=protocol, timeout=600.0, footprint=FOOTPRINT,
            workload="ring", niters=ROUNDS,
            total_compute=COMPUTE_PER_RANK * n,
            config_overrides=overrides)
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
        name=(f"Scale sweep — protocol x ranks x ckpt shards "
              f"({fault_note}, {topology})"),
        base_seed=base_seed, runner=runner)


# ---------------------------------------------------------------------------
# shard-balance reporting
# ---------------------------------------------------------------------------

def _row_shard_stats(row: ExperimentRow) -> Tuple[float, float, int]:
    """(busiest-shard share, max/mean imbalance, shard count), averaged
    over the row's repetitions that ingested anything."""
    shares: List[float] = []
    imbalances: List[float] = []
    n_shards = 0
    for result in row.results:
        bytes_per = result.ckpt_shard_bytes
        n_shards = max(n_shards, len(bytes_per))
        total = sum(bytes_per)
        if total:
            shares.append(max(bytes_per) / total)
            imbalances.append(result.ckpt_shard_imbalance)
    share = sum(shares) / len(shares) if shares else 0.0
    imbalance = sum(imbalances) / len(imbalances) if imbalances else 0.0
    return share, imbalance, n_shards


def summarize(result: ExperimentResult) -> List[Dict[str, object]]:
    """Per-row summary rows for ``BENCH_scale.json`` (deterministic)."""
    out: List[Dict[str, object]] = []
    for row in result.rows:
        share, imbalance, n_shards = _row_shard_stats(row)
        results = row.results
        out.append({
            "label": row.label,
            "runs": row.n,
            "pct_terminated": row.pct_terminated,
            "mean_exec_time": row.mean_exec_time,
            "mean_net_mb": row.mean_net_bytes / 1e6,
            # Both null when the fabric keeps no per-link books
            # (uniform): the old "fabric"/1.0 pair misread as a
            # saturated link when it was the aggregate restated.
            "hotspot_link": row.hotspot_link,
            "hotspot_share": (row.hotspot_share
                              if row.hotspot_link is not None else None),
            "n_ckpt_servers": n_shards,
            "ckpt_busiest_shard_share": share,
            "ckpt_shard_imbalance": imbalance,
            "mean_events": (sum(r.events_processed for r in results)
                            / row.n if row.n else 0),
        })
    return out


def render_shard_balance(result: ExperimentResult) -> str:
    """The sharding headline: busiest server's share of ckpt ingest."""
    header = (f"{'config':>18} | {'k':>2} | {'busiest shard':>13} | "
              f"{'max/mean':>8} | {'net hot link':>14}")
    lines = ["== checkpoint-server shard balance ==", header,
             "-" * len(header)]
    for row in result.rows:
        share, imbalance, n_shards = _row_shard_stats(row)
        hot = row.hotspot_link or "-"
        lines.append(
            f"{row.label:>18} | {n_shards:>2} | {100.0 * share:>12.1f}% | "
            f"{imbalance:>8.2f} | {hot:>14}")
    return "\n".join(lines)


def bench_doc(result: ExperimentResult, kwargs) -> Dict[str, object]:
    """The command-specific keys of ``BENCH_scale.json``."""
    return {
        "reps": kwargs["reps"],
        "protocols": list(kwargs["protocol_names"] or protocols.available()),
        "ranks": list(kwargs["ranks"]),
        "shards": list(kwargs["shards"]),
        "topology": kwargs["topology"],
        "faulty": kwargs["faulty"],
        "rows": summarize(result),
    }


def expect(result: ExperimentResult, kwargs) -> None:
    ranks, shards = kwargs["ranks"], kwargs["shards"]
    protos = kwargs["protocol_names"] or protocols.available()
    assert [row.label for row in result.rows] == [
        f"{protocol}/n{n}/k{k}"
        for protocol, n, k in sweep_grid(protos, ranks, shards)]
    for row in result.rows:
        assert row.pct_terminated == 100.0, row.label
        share, imbalance, n_shards = _row_shard_stats(row)
        if n_shards == 1:
            # the paper's regime: one server takes every byte
            assert share == 1.0, row.label
        else:
            # sharding dissolves the hot spot (~1/k each, small skew)
            assert share < 1.5 / n_shards, (row.label, share)
            assert imbalance < 1.25, (row.label, imbalance)
    # Vcl's wave drain contends on the shared servers: more shards must
    # never slow it down
    for n in ranks:
        k_lo = result.row(f"vcl/n{n}/k{shards[0]}").mean_exec_time
        k_hi = result.row(f"vcl/n{n}/k{shards[-1]}").mean_exec_time
        assert k_hi <= k_lo, (n, k_lo, k_hi)


SPEC = ExperimentSpec(
    name="scale-sweep", run=run_experiment, expect=expect,
    quick=dict(reps=1, ranks=(32, 64), shards=(1, 4)),
    flags=(REPS_FLAG, PROTOCOL_NAMES_FLAG,
           flag("--ranks", type=comma_list(int), metavar="N[,N]",
                help=f"rank counts (default: {','.join(map(str, RANKS))})"),
           flag("--shards", type=comma_list(int), metavar="K[,K]",
                help="checkpoint-server counts (default: "
                     f"{','.join(map(str, SHARDS))})"),
           flag("--topology", help="fabric model for every cell (uniform, "
                                   "star, twotier; see repro.netmodel)"),
           NO_FAULTS_FLAG),
    blocks=(table, lambda result, kwargs: render_shard_balance(result)),
    bench_json="BENCH_scale.json", summarize=bench_doc)
