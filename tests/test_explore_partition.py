"""The ``partition_storm`` explore family: plan IR, rendering (including
the heal-before-detection fold), the false-suspicion oracle, shrinking
of partition plans, and the campaign-level acceptance path."""

import pytest

from repro.analysis.classify import Outcome
import repro.explore.shrink as shrinklib
from repro.explore import generators, oracles
from repro.explore.campaign import quick_config, run_campaign, replay_scenario
from repro.explore.generators import (GeneratorContext, Heal, TimedKill,
                                      TimedPartition, render_plan)
from repro.fail.compile import compile_scenario
from repro.fail.lang.parser import parse_fail

from test_explore import GOLDEN, make_result

CTX = GeneratorContext(n_machines=7, n_busy=4)


# ---------------------------------------------------------------------------
# plan helpers
# ---------------------------------------------------------------------------

def test_plan_step_classification():
    plan = (TimedPartition(at=10, targets=(0, 2)), Heal(after=5),
            TimedKill(at=40, target=1))
    assert len(generators.kill_steps(plan)) == 1
    assert len(generators.partition_steps(plan)) == 1
    assert not generators.has_unhealed_partition(plan)


def test_unhealed_partition_detection():
    healed = (TimedPartition(at=10, targets=(0,)), Heal(after=5))
    unhealed = (TimedPartition(at=10, targets=(0,)),)
    svc_only = (TimedPartition(at=10, targets=(), services=("svc2",)),)
    resurrected = healed + (TimedPartition(at=50, targets=(1,)),)
    assert not generators.has_unhealed_partition(healed)
    assert generators.has_unhealed_partition(unhealed)
    # a dead checkpoint-server link strands recovery just as surely
    assert generators.has_unhealed_partition(svc_only)
    assert generators.has_unhealed_partition(resurrected)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_partition_plan_renders_and_compiles():
    plan = (TimedPartition(at=10, targets=(0, 2), services=("svc2",)),
            Heal(after=5), TimedKill(at=40, target=1))
    source = render_plan(plan)
    assert "partition(G1[0])" in source
    assert "partition(G1[2])" in source
    assert "partition(svc2)" in source
    compiled = compile_scenario(source)
    assert set(compiled.daemon_names) == {generators.MASTER,
                                          generators.NODE_DAEMON}
    # canonical text: reparse + reprint is a fixed point
    from repro.fail import build as fb
    assert fb.render(parse_fail(source)) == source


def test_immediate_heal_folds_into_the_partition_transition():
    """Heal(after=0) must land in the same transition as its partition
    so it beats the severance notification (one network latency)."""
    folded = render_plan((TimedPartition(at=10, targets=(1,)),
                          Heal(after=0)))
    assert "partition(G1[1]), heal" in folded
    deferred = render_plan((TimedPartition(at=10, targets=(1,)),
                            Heal(after=7)))
    assert "partition(G1[1]), heal" not in deferred
    assert "heal" in deferred


def test_partition_storm_family_generates_valid_scenarios():
    saw_partition = saw_heal_race = saw_service = saw_kill = False
    for seed in range(24):
        scenario = generators.generate("partition_storm", 0, seed, CTX)
        assert generators.partition_steps(scenario.plan)
        compile_scenario(scenario.source)
        saw_partition = True
        for i, step in enumerate(scenario.plan):
            if isinstance(step, Heal) and step.after == 0:
                saw_heal_race = True
            if isinstance(step, TimedPartition) and step.services:
                saw_service = True
            if isinstance(step, TimedKill):
                saw_kill = True
    assert saw_partition and saw_heal_race and saw_service and saw_kill


# ---------------------------------------------------------------------------
# oracles: excuse or flag under false suspicion
# ---------------------------------------------------------------------------

STORM = (TimedPartition(at=15, targets=(0,)), Heal(after=10))


def test_false_suspicion_na_without_partitions():
    reports = oracles.run_oracles(make_result(), GOLDEN,
                                  plan=(TimedKill(at=10, target=0),),
                                  protocol="vcl")
    by_name = {r.name: r for r in reports}
    assert by_name["false_suspicion"].passed
    assert "n/a" in by_name["false_suspicion"].detail


def test_false_suspicion_excuses_partition_stall():
    stalled = make_result(outcome=Outcome.NON_TERMINATING, failures=5000,
                          signature=None)
    reports = oracles.run_oracles(stalled, GOLDEN, plan=STORM,
                                  protocol="vcl")
    assert oracles.failed_names(reports) == []
    by_name = {r.name: r for r in reports}
    assert "excused" in by_name["progress"].detail
    assert "excused" in by_name["false_suspicion"].detail


def test_false_suspicion_flags_corrupted_termination():
    corrupted = make_result(failures=3, signature=999)
    reports = oracles.run_oracles(corrupted, GOLDEN, plan=STORM,
                                  protocol="vcl")
    assert "false_suspicion" in oracles.failed_names(reports)


def test_clean_run_after_heal_race_passes_everything():
    clean = make_result(failures=0)
    reports = oracles.run_oracles(clean, GOLDEN, plan=STORM, protocol="vcl")
    assert oracles.failed_names(reports) == []


def test_unhealed_partition_excuses_progress_without_suspicions():
    stalled = make_result(outcome=Outcome.NON_TERMINATING, failures=0,
                          signature=None)
    plan = (TimedPartition(at=15, targets=(1,)),)
    reports = oracles.run_oracles(stalled, GOLDEN, plan=plan, protocol="vcl")
    by_name = {r.name: r for r in reports}
    assert by_name["progress"].passed
    assert "partitioned forever" in by_name["progress"].detail


def test_plain_stall_with_partition_but_no_suspicion_still_fails():
    """A healed partition that never fired the detector does not excuse
    an unrelated stall — or an unrelated freeze."""
    stalled = make_result(outcome=Outcome.NON_TERMINATING, failures=0,
                          signature=None)
    reports = oracles.run_oracles(stalled, GOLDEN, plan=STORM,
                                  protocol="vcl")
    assert "progress" in oracles.failed_names(reports)
    frozen = make_result(outcome=Outcome.BUGGY, failures=0, signature=None)
    reports = oracles.run_oracles(frozen, GOLDEN, plan=STORM, protocol="vcl")
    assert "no_deadlock" in oracles.failed_names(reports)


@pytest.mark.slow
def test_unhealed_service_cut_plus_kill_is_not_flagged_as_deadlock():
    """Regression (found in review): killing a rank while its checkpoint
    server stays partitioned forever freezes recovery on the dead link.
    That is the cut's doing, not a protocol deadlock — every oracle must
    excuse it rather than flag a correct protocol as buggy."""
    from repro.experiments.harness import TrialSetup
    from repro.explore.generators import render_plan

    plan = (TimedPartition(at=20, targets=(), services=("svc2",)),
            TimedKill(at=45, target=0))
    cal = dict(workload="ring", niters=40, total_compute=1280.0,
               footprint=1e8, n_procs=4, n_machines=6, timeout=150.0)
    golden = TrialSetup(protocol="vcl", **cal).run_one(77)
    setup = TrialSetup(protocol="vcl", scenario_source=render_plan(plan),
                       master_daemon=generators.MASTER,
                       node_daemon=generators.NODE_DAEMON, **cal)
    result = setup.run_one(77)
    assert result.outcome is not Outcome.TERMINATED   # genuinely stuck
    reports = oracles.run_oracles(result, golden, plan=plan, protocol="vcl")
    assert oracles.failed_names(reports) == []


# ---------------------------------------------------------------------------
# shrinking partition plans (pure logic)
# ---------------------------------------------------------------------------

def test_shrink_drops_partition_noise_around_the_kill():
    plan = (TimedPartition(at=13, targets=(1, 3), services=("svc2",)),
            Heal(after=0), TimedKill(at=47, target=2))

    def still_fails(candidate, _n):
        return any(isinstance(s, TimedKill) for s in candidate)

    out = shrinklib.shrink(plan, 7, still_fails=still_fails,
                           min_machines=4, budget=64)
    assert out.plan == (TimedKill(at=60, target=0),)
    assert out.n_machines == 4
    compile_scenario(out.source)


def test_shrink_narrows_partition_groups():
    plan = (TimedPartition(at=23, targets=(1, 3), services=("svc2",)),)

    def still_fails(candidate, _n):
        return bool(generators.partition_steps(candidate))

    out = shrinklib.shrink(plan, 7, still_fails=still_fails,
                           min_machines=4, budget=64)
    assert len(out.plan) == 1
    step = out.plan[0]
    assert step.targets == (1,) and step.services == ()
    assert step.at == 60          # regridded to the coarsest grid
    compile_scenario(out.source)


def test_shrink_keeps_the_heal_race_exact():
    """Heal(after=0) encodes the before-detection race; regridding must
    not push it onto a coarser grid."""
    plan = (TimedPartition(at=23, targets=(1,)), Heal(after=0))

    def still_fails(candidate, _n):
        return len(candidate) == 2

    out = shrinklib.shrink(plan, 7, still_fails=still_fails,
                           min_machines=4, budget=64)
    assert out.plan[1] == Heal(after=0)


# ---------------------------------------------------------------------------
# campaign acceptance: catch + shrink through partition_storm
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_partition_storm_catches_and_shrinks_the_planted_bug(tmp_path):
    """A partition_storm plan whose finale kill trips the planted
    cm_replay bug must be flagged and delta-debugged to a minimal
    ``.fail`` reproducer with a one-line replay command (acceptance
    criterion of the netmodel PR)."""
    cfg = quick_config(seed=23, protocols=("v1",),
                       families=("partition_storm",),
                       config_overrides={"cm_replay": False},
                       max_shrinks=1)
    result = run_campaign(cfg, out_dir=str(tmp_path))
    assert result.failures, "the planted bug escaped every oracle"
    assert result.shrinks, "no shrink attempted"
    report = result.shrinks[0]
    original = report.verdict.scenario.plan
    assert generators.partition_steps(original), "not a partition plan"
    # the partition noise is gone; one kill reproduces
    assert len(report.outcome.plan) == 1
    assert isinstance(report.outcome.plan[0], TimedKill)
    assert report.outcome.n_machines < cfg.n_machines
    # the emitted artifact replays to a failure under the same knob
    assert report.fail_file is not None
    with open(report.fail_file, "r", encoding="utf-8") as fh:
        source = fh.read()
    _res, reports = replay_scenario(
        source, cfg, "v1", "ring", report.verdict.trial_seed)
    assert oracles.failed_names(reports)
    assert "python -m repro explore --replay" in report.command
    assert "cm_replay=False" in report.command


@pytest.mark.slow
def test_partition_storm_quick_cell_is_deterministic():
    """One partition_storm cell re-runs byte-identically (the CI
    net-smoke invariant)."""
    cfg = quick_config(seed=11, families=("partition_storm",))
    first = run_campaign(cfg)
    second = run_campaign(cfg)
    assert first.render_table() == second.render_table()
    assert first.to_json() == second.to_json()
    assert first.failures == []
