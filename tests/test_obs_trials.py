"""Observability on real trials: span nesting on a kill + partition +
heal scenario for every protocol, the phase-sum acceptance check
against the trace, verdict identity with observation off, exporter
byte-determinism across execution paths, and the wire round trip."""

import dataclasses
import hashlib
import importlib
import json

import pytest

from repro.__main__ import COMMANDS
from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import (run_result_from_dict,
                                           run_result_to_dict)
from repro.experiments.runner import TrialRunner
from repro.explore import generators
from repro.explore.campaign import (ExploreConfig, derive_seed,
                                    quick_config, run_campaign, trial_setup)
from repro.explore.generators import (Heal, TimedKill, TimedPartition,
                                      render_plan)
from repro.mpichv import protocols
from repro.analysis.critpath import add_phase_seconds, critical_paths
from repro.experiments.compare_protocols import SPEC as compare_spec
from repro.experiments.compare_protocols import setup_for
from repro.obs.causal import MAX_CHAIN, causal_totals
from repro.obs.chrometrace import chrome_trace_json
from repro.obs.phases import epoch_phase_table
from repro.obs.spans import FIELDS, KIND, LANE, T0, T1, span_rollups
from causal_view import (E_DST, E_SRC, E_TYPE, N_ID, N_KIND, N_T,
                         assert_folds_equal_reference, graph_view,
                         run_keeping_recorder)
from conftest import FULL, KeepingRunner

CAL = dict(workload="ring", niters=40, total_compute=1280.0, footprint=1e8)

#: one real kill, one false suspicion (partition), then a heal — the
#: scenario the acceptance criteria name
PLAN = (TimedKill(at=20, target=0),
        TimedPartition(at=45, targets=(1,)),
        Heal(after=10))

PROTOCOLS = sorted(protocols.available())

#: the figure commands whose trials ``command_trials`` (compare-protocols
#: and explore) does not run
FIGURE_SPECS = [importlib.import_module(COMMANDS[name][0]).SPEC
                for name in ("fig5", "fig6", "fig7", "fig9", "fig11",
                             "net-sensitivity", "scale-sweep")]

#: bytes of the cached result of ``_ring(16, "vcl")`` / ``_ring(64,
#: "vcl")``, seed 1
BUDGET_16_RANK_VCL = 23512
BUDGET_64_RANK_VCL = 79882


def _setup(protocol, observe=True):
    return TrialSetup(
        n_procs=4, n_machines=6, protocol=protocol, timeout=200.0,
        scenario_source=render_plan(PLAN),
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON,
        observe=observe, **CAL)


@pytest.fixture(scope="module")
def recorded():
    """One observed kill/partition/heal trial per protocol, each with
    the causal recorder it ran under: ``(result, CausalGraph)``."""
    return {p: run_keeping_recorder(_setup(p), 7)
            for p in PROTOCOLS}


@pytest.fixture(scope="module")
def observed(recorded):
    """The results of those trials."""
    return {p: result for p, (result, _graph) in recorded.items()}


# ---------------------------------------------------------------------------
# span nesting / well-formedness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_span_nesting_well_formed(observed, protocol):
    result = observed[protocol]
    obs = result.obs
    assert obs is not None and "version" not in obs
    spans = obs["spans"]
    assert spans and obs["dropped_spans"] == 0
    for row in spans:
        assert row[T1] is not None          # finalize closed everything
        assert row[T0] <= row[T1] <= result.sim_time + 1e-9
        assert isinstance(row[LANE], str) and row[LANE]
    kinds = {row[KIND] for row in spans}
    # the recovery anatomy the trial must decompose into
    assert {"detect", "relaunch", "restore", "catchup",
            "netsplit"} <= kinds
    # checkpoint-wave anatomy: initiate at the wave start, commit at
    # the end of every completed wave
    for wave in (r for r in spans if r[KIND] == "ckpt_wave"):
        f = wave[FIELDS] or {}
        if f.get("aborted") or f.get("_truncated"):
            continue
        assert any(r[KIND] == "initiate" and abs(r[T0] - wave[T0]) < 1e-9
                   and (r[FIELDS] or {}).get("wave") == f.get("wave")
                   for r in spans)
        assert any(r[KIND] == "commit" and abs(r[T0] - wave[T1]) < 1e-9
                   and (r[FIELDS] or {}).get("wave") == f.get("wave")
                   for r in spans)
    # every restore sits inside the window of a relaunch's epoch
    relaunch_starts = [r[T0] for r in spans if r[KIND] == "relaunch"]
    for restore in (r for r in spans if r[KIND] == "restore"):
        assert any(restore[T0] >= t0 - 1e-9 for t0 in relaunch_starts)


@pytest.mark.parametrize("protocol", ["v2", "v1"])
def test_logging_protocols_record_replay(observed, protocol):
    roll = span_rollups(observed[protocol].obs)
    assert roll.get("replay", {}).get("count", 0) >= 1


def test_heal_closes_the_netsplit_span(observed):
    spans = observed["vcl"].obs["spans"]
    splits = [r for r in spans if r[KIND] == "netsplit"]
    assert splits
    for row in splits:
        assert not (row[FIELDS] or {}).get("_truncated")
        # Heal(after=10) — plus the FAIL daemon's own stepping overhead
        assert 10.0 <= row[T1] - row[T0] < 11.0


# ---------------------------------------------------------------------------
# acceptance: phases tile the trace-derived recovery time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_phase_sum_matches_trace_recovery(observed, protocol):
    result = observed[protocol]
    rows = epoch_phase_table(result.obs)
    assert rows, "a killed trial must produce recovery rows"
    detections = [rec.t for rec in result.trace.of_kind("failure_detected")]
    recoveries = [(rec.t, rec.fields.get("epoch"))
                  for rec in result.trace.of_kind("recovery_complete")]
    for row in (r for r in rows if not r["truncated"]):
        # the four phases tile the recovery interval exactly
        phase_sum = (row["detect"] + row["relaunch"] + row["restore"]
                     + row["replay"])
        assert phase_sum == pytest.approx(row["recovery"], abs=1e-9)
        # boundaries line up with the trace's own records: detection …
        t_detect = row["t_fault"] + row["detect"]
        assert any(t == pytest.approx(t_detect, abs=1e-9)
                   for t in detections)
        # … and, for full restarts, re-registration
        if row["rank"] is None:
            t_reg = t_detect + row["relaunch"]
            assert any(t == pytest.approx(t_reg, abs=1e-9)
                       and ep == row["epoch"] for t, ep in recoveries)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_verdict_carries_span_derived_fields(observed, protocol):
    """The verdict is the trace's alone; detection latency and replay
    time are read from the ``obs`` document."""
    result = observed[protocol]
    assert set(vars(result.verdict)) \
        == {"outcome", "exec_time", "last_activity", "reason"}
    rows = critical_paths(result.obs)
    detects = [seg["dur"] for row in rows for seg in row["segments"]
               if seg["phase"] == "detect"]
    assert detects and min(detects) >= 0
    totals = {}
    assert add_phase_seconds(totals, result.obs) == len(rows)
    assert totals["detect"] >= 0 and totals["replay"] >= 0


# ---------------------------------------------------------------------------
# causal graph + critical paths on real trials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_causal_graph_well_formed(recorded, protocol):
    result, graph = recorded[protocol]
    nodes, edges = graph_view(graph)
    assert nodes and edges
    assert any(e[E_TYPE] == "causal" for e in edges)
    assert graph.dropped_nodes == 0 and graph.dropped_edges == 0
    assert graph.first_drop_t is None
    # every recorded transmission contributed a send/recv pair (fanout
    # and adopted envelopes mean one minted id can back many pairs)
    assert graph.minted >= 1 and len(nodes) % 2 == 0
    # the folds rely on it: rows record in transmit order
    assert graph.t_send == sorted(graph.t_send)
    ids = [n[N_ID] for n in nodes]
    assert len(ids) == len(set(ids)), "node ids must be unique"
    for n in nodes:
        assert 0.0 <= n[N_T] <= result.sim_time + 1e-9
        assert isinstance(n[N_KIND], str) and n[N_KIND]
    for e in edges:
        assert 0 <= e[E_SRC] < len(nodes) and 0 <= e[E_DST] < len(nodes)
        assert e[E_TYPE] in ("net", "causal")
        # t_send <= t_recv, and a parent's receive is never later than
        # the send it caused
        assert nodes[e[E_SRC]][N_T] <= nodes[e[E_DST]][N_T] + 1e-9
    # every net edge joins the two halves of one transmission
    for e in (e for e in edges if e[E_TYPE] == "net"):
        src, dst = nodes[e[E_SRC]], nodes[e[E_DST]]
        assert src[N_ID].endswith(":s") and dst[N_ID].endswith(":r")
        assert src[N_ID][:-2] == dst[N_ID][:-2]
        assert src[N_KIND] == dst[N_KIND]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_critical_path_segments_tile_recovery_exactly(observed, protocol):
    """The acceptance identity, on real trials: for every recovery
    epoch the per-phase segments sum to the recovery span duration —
    exactly, not approximately."""
    result = observed[protocol]
    rows = critical_paths(result.obs)
    assert rows, "a killed trial must produce critical-path rows"
    for row in (r for r in rows if not r["truncated"]):
        assert sum(s["dur"] for s in row["segments"]) == row["recovery"]
        assert [s["phase"] for s in row["segments"]] == \
            ["detect", "relaunch", "restore", "replay"]
        # segments abut: each starts where the previous ended
        for prev, nxt in zip(row["segments"], row["segments"][1:]):
            assert prev["t1"] == nxt["t0"]
        assert row["segments"][0]["t0"] == row["t_fault"]
        # attribution covers traced wire traffic inside the window
        assert row["attribution"], "recovery without any wire traffic"
    # the per-phase totals of exactly these rows — computed from the
    # phase table alone, they must equal the sum over segments
    summed = {}
    for row in (r for r in rows if not r["truncated"]):
        for seg in row["segments"]:
            summed[seg["phase"]] = summed.get(seg["phase"], 0.0) + seg["dur"]
        summed["recovery"] = summed.get("recovery", 0.0) + row["recovery"]
    totals = {}
    add_phase_seconds(totals, result.obs)
    assert totals == summed


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_chrome_trace_flow_events_pair_up(observed, protocol):
    doc = json.loads(chrome_trace_json(observed[protocol].obs))
    starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
    ends = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
    assert starts, "an observed faulted trial must emit flow events"
    assert len(starts) == len(ends)
    by_id = {e["id"]: e for e in starts}
    assert len(by_id) == len(starts), "flow ids must be unique"
    lanes = {(e["pid"], e["tid"])
             for e in doc["traceEvents"]
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    for end in ends:
        start = by_id[end["id"]]
        assert (start["name"], start["cat"]) == (end["name"], end["cat"])
        assert end["cat"] == "critpath"
        assert start["ts"] <= end["ts"]
        assert end.get("bp") == "e"
        assert (start["pid"], start["tid"]) in lanes


def _ring(n_procs, protocol):
    """The benchmark's observed ring trial: one kill at t = 45 s."""
    return TrialSetup(
        n_procs=n_procs, n_machines=n_procs + 4, protocol=protocol,
        timeout=600.0, footprint=1e9, workload="ring", niters=40,
        total_compute=440.0 * n_procs,
        scenario_source=render_plan(
            (TimedKill(at=45, target=n_procs // 2 + 3),)),
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON,
        config_overrides={"n_ckpt_servers": 4}, observe=True)


@pytest.fixture(scope="module")
def ring64():
    """The benchmark trial at 64 ranks per protocol, with recorders."""
    return {p: run_keeping_recorder(_ring(64, p), 1) for p in PROTOCOLS}


def test_cap_accounting_pinned_at_64_ranks(ring64):
    """Past the cap every transmission still counts: two nodes, its net
    edge and its causal edge.  The values are those of the node/edge
    recorder the columns replaced."""
    result, graph = ring64["v2"]
    assert len(graph.tid) == 25000
    assert (graph.dropped_nodes, graph.dropped_edges, graph.minted) \
        == (5580, 3577, 27647)
    assert graph.first_drop_t is not None
    assert causal_totals(result.obs) == {
        "nodes": 50000, "edges": 25000 + sum(p >= 0 for p in graph.parent),
        "minted": 27647, "dropped_nodes": 5580, "dropped_edges": 3577}


def _assert_folds_equal_reference(result, graph):
    """The oracle (``tests/causal_view.py``) on a real trial, plus what
    the document may and may not hold."""
    obs = result.obs
    rows = assert_folds_equal_reference(obs, graph)
    assert rows, "a killed trial must produce critical-path rows"
    for row in rows:
        cut = row["causal_truncated"]
        assert cut == (graph.first_drop_t is not None
                       and graph.first_drop_t <= row["t_end"] + 1e-9)
        # an empty chain is always an explained one
        assert row["chain"] or row["truncated"] or cut
    # the document holds the conclusions, never the evidence
    assert set(obs["causal"]) == {"totals", "kinds", "epochs"}
    for fold in obs["causal"]["epochs"]:
        assert set(fold) == {"attribution", "chain", "causal_truncated"}
        assert len(fold["chain"]) <= MAX_CHAIN


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_folds_equal_the_column_readers_at_4_ranks(recorded, protocol):
    _assert_folds_equal_reference(*recorded[protocol])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_folds_equal_the_column_readers_at_64_ranks(ring64, protocol):
    _assert_folds_equal_reference(*ring64[protocol])


def test_truncated_record_says_so_at_128_ranks():
    """At 128 ranks the 25 000-row cap is spent by t = 30 s, before the
    t = 45 s kill: the only recovery epoch has no attribution and no
    chain, and states why."""
    result, graph = run_keeping_recorder(_ring(128, "vcl"), 3)
    assert graph.first_drop_t < 45.0 and graph.dropped_nodes > 100000
    (row,) = critical_paths(result.obs)
    assert row["t_fault"] > 45.0
    assert (row["attribution"], row["chain"]) == ({}, [])
    assert row["causal_truncated"] is True and row["truncated"] is False
    _assert_folds_equal_reference(result, graph)


def _cache_file_bytes(tmp_path, n_procs):
    runner = TrialRunner(workers=1, cache_dir=str(tmp_path))
    runner.run_jobs([(_ring(n_procs, "vcl"), 1)])
    (path,) = tmp_path.glob("*/*.json")
    return path.stat().st_size


def test_cached_document_byte_budget(tmp_path):
    """A 16-rank observed faulted trial's cache file, to the byte: a
    change that grows the result document has to raise this number."""
    assert _cache_file_bytes(tmp_path, 16) <= BUDGET_16_RANK_VCL


def test_cached_document_byte_budget_at_64_ranks(tmp_path):
    assert _cache_file_bytes(tmp_path, 64) <= BUDGET_64_RANK_VCL


# ---------------------------------------------------------------------------
# whole documents, pinned
# ---------------------------------------------------------------------------

def _document_digest(result):
    """sha256 of a trial's result document."""
    doc = run_result_to_dict(result)
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def _bt16(protocol):
    """One 16-rank BT trial under the Fig. 5 scenario, as the
    ``compare-protocols`` campaign runs it."""
    return setup_for((protocol, 50), n_procs=16, n_machines=20, niters=40,
                     total_compute=2400.0, observe=True).run_one(13001)


#: ``_document_digest`` per trial.  The golden trace digests pin the
#: trace records and the fold oracle recomputes the causal folds from
#: the same columns, so a wrong recorder column passes both: these pin
#: every byte of the observed document — spans, metrics, the causal
#: totals, kind rollup and per-epoch folds (the 64-rank v2 ring runs
#: past the causal cap).
DOCUMENT_DIGESTS = {
    ("ring4", "v1"):
        "12cf266aa34f67d6211cb8bc3325608d8cd96b8476cc8f5994a84c34eee974bb",
    ("ring4", "v2"):
        "591ba9f7f9062f427196f95eedaaa2f03dae50cae62a241bfc5b8801debe9bd0",
    ("ring4", "vcl"):
        "377a63e36d472ad3258a319a923a0a14f7134c3cb6ebda1d50cd77d6fef5c10f",
    ("ring64", "v1"):
        "bff61d5fb8b179cf7d0f6ebb3c1f4d619ea4ddf5ab73a7013c44dc070048b790",
    ("ring64", "v2"):
        "f42a43b7313dfaa8fe701ea2590652faa7d857cb688d60de4113f516299ceaec",
    ("ring64", "vcl"):
        "17962b06f78b0434c84b435328783097b2d5f2ad603900ed4f7ea60c7e8d050c",
    ("bt16", "v1"):
        "09c868a720892ddf11292562e06f16532f022ab4a9da6b0188b15eeacabc6f54",
    ("bt16", "v2"):
        "eb44f87fbffd4990ed29fb1eac9591b29cbfe27ccb70a98f27402d0ff3c34500",
    ("bt16", "vcl"):
        "9d190ec22056d4c18d45808c782697fb6e70e08d879639d95a384e5f838dcbe9",
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_observed_documents_pinned(observed, ring64, protocol):
    results = {"ring4": observed[protocol], "ring64": ring64[protocol][0],
               "bt16": _bt16(protocol)}
    assert {trial: _document_digest(result)
            for trial, result in results.items()} \
        == {trial: digest for (trial, p), digest in DOCUMENT_DIGESTS.items()
            if p == protocol}


#: ``obs["metrics"]`` of two generated trials, recorded when the
#: dispatcher still counted into a registry of its own: a partition
#: storm under v1 (thousands of launch deaths, the channel memories'
#: gauges) and a vcl ``fault_during_recovery`` plan that the paper's
#: dispatcher bug leaves undetected (``disp.detect.missed``).  The fold
#: over the coverage counts must restate every counter.
PINNED_METRICS = {
    ("partition_storm", 7, False, "v1"): {
        "counters": {"disp.detect.closure": 1, "disp.detect.launch": 3998,
                     "disp.rx.Register": 4},
        "gauges": {"cm.0.duplicates": 0, "cm.0.forwarded": 78,
                   "cm.0.logged": 78, "cm.0.pruned": 78,
                   "cm.1.duplicates": 0, "cm.1.forwarded": 78,
                   "cm.1.logged": 79, "cm.1.pruned": 76},
        "histograms": {"ckptsrv.0.disk.wait_ms": {"1": 18},
                       "ckptsrv.1.disk.wait_ms": {"1": 11}}},
    ("fault_during_recovery", 7, True, "vcl"): {
        "counters": {"disp.detect.closure": 1, "disp.detect.launch": 1,
                     "disp.detect.missed": 1, "disp.rx.Register": 8,
                     "disp.rx.WaveCommit": 1},
        "gauges": {},
        "histograms": {"ckptsrv.0.disk.wait_ms": {"1": 6, "256": 2},
                       "ckptsrv.1.disk.wait_ms": {"1": 6, "256": 2}}},
}


def _generated(family, index, bug_compat, protocol):
    """One 4-rank ring trial of a generated plan, as a campaign with
    seed 0 runs it."""
    cfg = ExploreConfig(seed=0, bug_compat=bug_compat)
    scenario = generators.generate(family, index, cfg.seed,
                                   cfg.generator_context())
    setup = trial_setup(cfg, "ring", protocol, source=scenario.source)
    return dataclasses.replace(setup, observe=True).run_one(
        derive_seed(cfg.seed, family, index, protocol, "ring"))


@pytest.mark.parametrize("family, index, bug_compat, protocol",
                         list(PINNED_METRICS))
def test_metrics_fold_pinned(family, index, bug_compat, protocol):
    result = _generated(family, index, bug_compat, protocol)
    metrics = result.obs["metrics"]
    assert metrics == PINNED_METRICS[family, index, bug_compat, protocol]
    # key order is part of the document's bytes
    assert list(metrics["counters"]) == sorted(metrics["counters"])
    assert list(metrics["gauges"]) == sorted(metrics["gauges"])


#: ``causal.totals`` of generated plans whose recoveries re-kill a rank,
#: re-send logged messages (V2's sender logs, V1's channel memories)
#: and drop sends into a cut; in the ``partition_storm`` plan a service
#: also meets a peer that is gone, so its reply guard mints nothing —
#: the re-sends and mint guards the pinned documents above never
#: reach.  ``(nodes, edges, minted)``; none of these trials reaches the
#: cap.
PINNED_CAUSAL_TOTALS = {
    ("rekill_race", 1, "vcl"): (782, 468, 343),
    ("rekill_race", 1, "v2"): (1386, 1055, 671),
    ("rekill_race", 1, "v1"): (1030, 759, 509),
    ("fault_during_recovery", 1, "vcl"): (738, 446, 321),
    ("fault_during_recovery", 1, "v2"): (1200, 947, 584),
    ("fault_during_recovery", 1, "v1"): (808, 594, 398),
    ("partition_storm", 0, "vcl"): (332, 199, 150),
    ("partition_storm", 0, "v2"): (736, 567, 398),
    ("partition_storm", 0, "v1"): (504, 363, 281),
}


@pytest.mark.parametrize("family, index, protocol", list(PINNED_CAUSAL_TOTALS))
def test_causal_totals_pinned_on_generated_plans(family, index, protocol):
    result = _generated(family, index, False, protocol)
    nodes, edges, minted = PINNED_CAUSAL_TOTALS[family, index, protocol]
    assert causal_totals(result.obs) == {
        "nodes": nodes, "edges": edges, "minted": minted,
        "dropped_nodes": 0, "dropped_edges": 0}


# ---------------------------------------------------------------------------
# observation is inert: same simulation, same verdict
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def command_trials():
    """Every trial of ``compare-protocols --quick --reps 1`` and of
    ``explore --quick --seed 7``, as the commands ran them (no reader,
    so unobserved): ``((setup, seed), result)``."""
    runner = KeepingRunner()
    compare_spec.run(**{**compare_spec.quick, "reps": 1}, runner=runner)
    run_campaign(quick_config(seed=7), runner=runner)
    return runner.ran


def _without_obs(result):
    doc = run_result_to_dict(result)
    del doc["obs"]
    return doc


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_verdict_identical_with_observation_off(observed, command_trials,
                                                protocol):
    """Observing moves nothing but ``obs``: the whole result document
    is the same with the recorder off — for the kill / partition / heal
    trial and for every trial of a table-building command, which is
    what lets those commands run unobserved."""
    pairs = [(observed[protocol],
              _setup(protocol, observe=False).run_one(7))]
    # 2 compare-protocols trials and 7 explore trials per protocol
    ran = [((setup, seed), off) for (setup, seed), off in command_trials
           if setup.protocol == protocol]
    assert len(ran) == 9
    for (setup, seed), off in ran:
        assert not setup.observe
        pairs.append(
            (dataclasses.replace(setup, observe=True).run_one(seed), off))
    for on, off in pairs:
        assert on.obs and off.obs is None
        assert _without_obs(off) == _without_obs(on)


@pytest.mark.slow
@pytest.mark.skipif(FULL, reason="re-runs each trial observed: quick "
                                 "scale only")
@pytest.mark.parametrize("spec, ablated", [
    pytest.param(spec, ablated, id=spec.name + ("-ablation" if ablated else ""))
    for spec in FIGURE_SPECS for ablated in (False, True)
    if spec.ablation or not ablated])
def test_figure_trials_identical_with_observation_off(figure_shape, spec,
                                                      ablated):
    """The paper's fault schedules, which drive the dispatcher's span
    sites: every trial of a quick figure spec (and of its ablation),
    run as the shape test ran it — unobserved — is re-run observed, and
    the result documents agree on everything but ``obs``."""
    ran = figure_shape(spec, ablated)
    assert ran
    for (setup, seed), off in ran:
        assert not setup.observe and off.obs is None
        on = dataclasses.replace(setup, observe=True).run_one(seed)
        assert on.obs
        assert _without_obs(off) == _without_obs(on), (setup, seed)


# ---------------------------------------------------------------------------
# exporter determinism across execution paths
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_chrome_trace_byte_identical_across_paths(tmp_path):
    """Serial, pooled and cold/warm cache must all produce the same
    result documents, and so byte-identical Chrome-trace JSON, for
    the same trials."""
    jobs = [(_setup(protocol), 7) for protocol in PROTOCOLS]

    batches = {
        "serial": TrialRunner(workers=1).run_jobs(jobs),
        "pool": TrialRunner(workers=2).run_jobs(jobs),
        "cold": TrialRunner(workers=2,
                            cache_dir=str(tmp_path)).run_jobs(jobs),
        "warm": TrialRunner(workers=1,
                            cache_dir=str(tmp_path)).run_jobs(jobs),
    }
    reference = [chrome_trace_json(r.obs) for r in batches["serial"]]
    causal = [r.obs["causal"] for r in batches["serial"]]
    documents = [run_result_to_dict(r) for r in batches["serial"]]
    assert all(json.loads(blob)["traceEvents"] for blob in reference)
    for name, results in batches.items():
        blobs = [chrome_trace_json(r.obs) for r in results]
        assert blobs == reference, f"{name} diverged from serial"
        assert [r.obs["causal"] for r in results] == causal, name
        assert [run_result_to_dict(r) for r in results] == documents, name


def test_trace_out_exports_first_faulted_trial(tmp_path):
    out = tmp_path / "trial.trace.json"
    fault_free = TrialSetup(n_procs=4, n_machines=6, protocol="vcl",
                            timeout=200.0, **CAL)
    runner = TrialRunner(workers=1, trace_out=str(out))
    results = runner.run_jobs([(fault_free, 7), (_setup("vcl"), 7)])
    doc = json.loads(out.read_text())
    # the faulted trial (second submitted) wins over the fault-free one
    assert results[1].restarts > 0
    assert out.read_text() == chrome_trace_json(
        results[1].obs, title=doc["otherData"].get("title", "repro trial")) \
        or json.loads(chrome_trace_json(results[1].obs))["traceEvents"] \
        == doc["traceEvents"]


# ---------------------------------------------------------------------------
# wire round trip
# ---------------------------------------------------------------------------

def test_resultstore_roundtrip_preserves_obs(observed):
    result = observed["vcl"]
    doc = run_result_to_dict(result)
    blob = json.dumps(doc, sort_keys=True)     # must be JSON-safe
    back = run_result_from_dict(json.loads(blob))
    assert run_result_to_dict(back) == json.loads(blob) \
        or run_result_to_dict(back) == doc
    assert back.obs == result.obs
    assert back.obs["causal"] == result.obs["causal"]
    assert back.verdict == result.verdict
    assert critical_paths(back.obs) == critical_paths(result.obs) != []
