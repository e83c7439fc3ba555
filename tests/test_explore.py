"""Tests for the ``repro.explore`` subsystem: generators, oracles,
campaign determinism, the planted-bug acceptance path, and shrinking.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.classify import Outcome, RunVerdict
from repro.analysis.traces import Trace
from repro.experiments.harness import TrialSetup
from repro.experiments.runner import trial_key
import repro.explore.shrink as shrinklib
from repro.explore import generators, oracles
from repro.explore.campaign import (ExploreConfig, derive_seed, quick_config,
                                    replay_scenario, run_campaign)
from repro.explore.generators import (GeneratorContext, KillReporter,
                                      RekillRace, TimedKill)
from repro.mpichv import protocols
from repro.mpichv.runtime import RunResult

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def make_result(outcome=Outcome.TERMINATED, exec_time=100.0,
                failures=0, signature=160, violations=(),
                last_activity=None):
    if outcome is not Outcome.TERMINATED:
        exec_time = None
    trace = Trace(keep=False)
    trace.counts = {"failure_detected": failures, "restart_wave": failures}
    return RunResult(
        verdict=RunVerdict(outcome=outcome, exec_time=exec_time,
                           last_activity=last_activity if last_activity
                           is not None else (exec_time or 250.0),
                           reason="test"),
        trace=trace, sim_time=300.0,
        events_processed=1000, app_signature=signature,
        invariant_violations=list(violations))


GOLDEN = make_result()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generation_is_deterministic_and_seed_sensitive():
    ctx = GeneratorContext(n_machines=7, n_busy=4)
    for family in generators.FAMILIES:
        a = generators.generate(family, 0, 13, ctx)
        b = generators.generate(family, 0, 13, ctx)
        assert a == b
        c = generators.generate(family, 1, 13, ctx)
        d = generators.generate(family, 0, 14, ctx)
        assert a.source != c.source or a.plan != c.plan
        assert (a.plan, a.source) != (d.plan, d.source)


def test_generate_suite_covers_each_family_in_canonical_order():
    ctx = GeneratorContext(n_machines=7, n_busy=4)
    suite = generators.generate_suite(list(generators.FAMILIES), 2, 5, ctx)
    assert [s.family for s in suite] == [
        f for f in sorted(generators.FAMILIES) for _ in range(2)]
    assert len({s.source for s in suite}) == len(suite)


def test_unknown_family_raises():
    with pytest.raises(ValueError, match="unknown generator family"):
        generators.generate("nope", 0, 0, GeneratorContext(n_machines=4))


def test_targets_stay_on_busy_machines_mostly():
    ctx = GeneratorContext(n_machines=20, n_busy=4)
    targets = []
    for i in range(30):
        scenario = generators.generate("random_schedule", i, 3, ctx)
        targets += [s.target for s in scenario.plan]
    assert all(0 <= t < 20 for t in targets)
    busy = sum(1 for t in targets if t < 4)
    assert busy >= 0.7 * len(targets)


# ---------------------------------------------------------------------------
# cache keying
# ---------------------------------------------------------------------------

def test_trial_key_covers_overrides():
    base = TrialSetup(n_procs=4, n_machines=7, scenario_source="X")
    same = dataclasses.replace(base)
    other_knob = dataclasses.replace(
        base, config_overrides={"cm_replay": False})
    assert trial_key(base, 1) == trial_key(same, 1)
    assert trial_key(base, 1) != trial_key(other_knob, 1)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_oracles_all_pass_on_clean_terminated_run():
    reports = oracles.run_oracles(make_result(), GOLDEN)
    assert oracles.failed_names(reports) == []
    assert [r.name for r in reports] == list(oracles.ORACLE_NAMES)


def test_buggy_run_fails_no_deadlock():
    reports = oracles.run_oracles(
        make_result(outcome=Outcome.BUGGY, failures=2), GOLDEN)
    assert "no_deadlock" in oracles.failed_names(reports)


def test_checksum_mismatch_fails_golden_result():
    reports = oracles.run_oracles(make_result(signature=999), GOLDEN)
    assert "golden_result" in oracles.failed_names(reports)


def test_missing_golden_fails_golden_result():
    reports = oracles.run_oracles(make_result(), None)
    assert "golden_result" in oracles.failed_names(reports)


def test_invariant_violations_surface():
    reports = oracles.run_oracles(
        make_result(violations=["v1 CM 0: log gap"]), GOLDEN)
    assert "protocol_invariants" in oracles.failed_names(reports)


def test_finite_plan_nontermination_fails_progress():
    result = make_result(outcome=Outcome.NON_TERMINATING, failures=2)
    plan = (TimedKill(10, 0), TimedKill(30, 1))
    reports = oracles.run_oracles(result, GOLDEN, plan=plan, protocol="vcl")
    assert "progress" in oracles.failed_names(reports)


def test_simultaneous_overload_is_excused_for_v2_only():
    result = make_result(outcome=Outcome.NON_TERMINATING, failures=3)
    burst = (TimedKill(40, 0), TimedKill(40, 1), TimedKill(40, 2))
    assert oracles.simultaneous_batch(burst) == 3
    excused = oracles.run_oracles(result, GOLDEN, plan=burst, protocol="v2")
    assert "progress" not in oracles.failed_names(excused)
    strict = oracles.run_oracles(result, GOLDEN, plan=burst, protocol="v1")
    assert "progress" in oracles.failed_names(strict)


def test_reactive_overlap_counts_as_concurrent_failures():
    """A rekill of a *different* machine lands while the first victim
    is still replaying — concurrent failures v2 documents it may not
    survive; re-killing the same machine keeps one failure in flight."""
    cross = (TimedKill(40, 0), RekillRace(1))
    same = (TimedKill(40, 0), RekillRace(0))
    reporter = (TimedKill(40, 0), KillReporter())
    assert oracles.max_concurrent_failures(cross) == 2
    assert oracles.max_concurrent_failures(same) == 1
    assert oracles.max_concurrent_failures(reporter) == 1
    stalled = make_result(outcome=Outcome.NON_TERMINATING, failures=2)
    excused = oracles.run_oracles(stalled, GOLDEN, plan=cross, protocol="v2")
    assert "progress" not in oracles.failed_names(excused)
    strict = oracles.run_oracles(stalled, GOLDEN, plan=same, protocol="v2")
    assert "progress" in oracles.failed_names(strict)


def test_config_overrides_reach_the_config_but_not_a_setup_field():
    """--override may target any VclConfig attribute TrialSetup does
    not pass itself.  One it does pass is refused: ``protocol="v2"``
    and an override ``{"protocol": "v2"}`` ran one trial under two
    keys, and an overridden ``footprint`` or ``n_procs`` left the
    config and the workload disagreeing."""
    setup = TrialSetup(n_procs=4, n_machines=7, footprint=5e7,
                       config_overrides={"ckpt_period": 10.0,
                                         "fault_tolerant": False})
    runtime, _dep = setup.build(1)
    assert runtime.config.footprint == 5e7
    assert runtime.config.ckpt_period == 10.0
    assert runtime.config.fault_tolerant is False
    for name, value in (("protocol", "v2"), ("footprint", 2e8),
                        ("n_procs", 8), ("timeout", 300.0)):
        with pytest.raises(ValueError,
                           match=f"'{name}' is a TrialSetup field"):
            TrialSetup(n_procs=4, n_machines=7,
                       config_overrides={name: value})


# ---------------------------------------------------------------------------
# protocol invariant hooks (fabricated service state)
# ---------------------------------------------------------------------------

class _FakeProc:
    def __init__(self, **tags):
        self.tags = dict(tags)


class _FakeRuntime:
    def __init__(self, protocol, **kw):
        from repro.mpichv.config import VclConfig
        self.config = VclConfig(n_procs=4, n_machines=7, protocol=protocol)
        self.eventlog_proc = kw.get("eventlog_proc")
        self.cm_procs = kw.get("cm_procs", [])
        self.scheduler_state = kw.get("scheduler_state")
        self.dispatcher_state = kw.get("dispatcher_state")


def test_v2_invariant_catches_event_log_gap():
    from repro.mpichv.eventlog import EventLogState

    state = EventLogState()
    state.append(0, 1, 3, 1)
    state.append(0, 2, 3, 2)
    runtime = _FakeRuntime("v2", eventlog_proc=_FakeProc(evlog_state=state))
    assert protocols.check_invariants(runtime) == []
    state.events[0].append((5, 3, 4))          # positions 2 -> 5: a hole
    violations = protocols.check_invariants(runtime)
    assert violations and "log gap" in violations[0]


def test_v1_invariant_catches_out_of_order_channel():
    from repro.mpi.message import AppMessage
    from repro.mpichv.channelmemory import ChannelMemoryState

    state = ChannelMemoryState()
    msg = AppMessage(1, 0, 5, None, 64)
    state.record(1, 0, 1, msg)
    state.record(1, 0, 2, msg)
    runtime = _FakeRuntime("v1", cm_procs=[_FakeProc(cm_state=state)])
    assert protocols.check_invariants(runtime) == []
    state.logs[0].append((3, 1, 1, msg))       # seq went backwards
    violations = protocols.check_invariants(runtime)
    assert violations and "out of order" in violations[0]


def test_vcl_invariant_catches_uncommitted_restore():
    from repro.mpichv.dispatcher import DispatcherState
    from repro.mpichv.scheduler import SchedulerState

    sched = SchedulerState()
    disp = DispatcherState()
    runtime = _FakeRuntime("vcl", scheduler_state=sched,
                           dispatcher_state=disp)
    assert protocols.check_invariants(runtime) == []
    disp.restore_wave = 3                      # never committed
    violations = protocols.check_invariants(runtime)
    assert violations and "never committed" in violations[0]


def test_invariants_skipped_without_fault_tolerance():
    runtime = _FakeRuntime("v2")
    runtime.config.fault_tolerant = False
    runtime.eventlog_proc = None
    assert protocols.check_invariants(runtime) == []


# ---------------------------------------------------------------------------
# the campaign (acceptance criteria of the PR)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_quick_campaign_seed7_is_deterministic_and_clean(trial_keys):
    """`python -m repro explore --quick --seed 7`: byte-identical
    verdict tables, every registered protocol, >= 4 generator
    families, zero oracle failures on the happy path.  Its trials keep
    their cache slots: the keys are pinned."""
    first = run_campaign(quick_config(seed=7))
    second = run_campaign(quick_config(seed=7))
    assert trial_keys.pin() == (21, "414011425aa92fb7")
    assert first.render_table() == second.render_table()
    assert first.to_json() == second.to_json()
    assert {v.protocol for v in first.rows} == set(protocols.available())
    assert len(first.family_counts()) >= 4
    assert all(count >= 1 for count in first.family_counts().values())
    assert first.failures == []


@pytest.mark.slow
def test_broken_cm_replay_is_caught_and_shrunk(tmp_path, trial_keys):
    """Disabling Channel-Memory replay (the planted protocol bug) must
    be caught by an oracle and delta-debugged to a minimal ``.fail``
    reproducer that still fails when replayed.  The campaign with its
    shrink, and the replay, keep their cache slots: the keys are
    pinned."""
    cfg = quick_config(seed=7, protocols=("v1",),
                       families=("random_schedule",),
                       config_overrides={"cm_replay": False},
                       max_shrinks=1)
    result = run_campaign(cfg, out_dir=str(tmp_path))
    assert trial_keys.pin() == (7, "33584f74771e12e8")
    trial_keys.clear()
    assert result.failures, "the planted bug escaped every oracle"
    assert result.shrinks, "no shrink attempted"
    report = result.shrinks[0]
    original = report.verdict.scenario.plan
    assert len(report.outcome.plan) < len(original) \
        or report.outcome.n_machines < cfg.n_machines
    assert len(report.outcome.plan) == 1      # one kill suffices
    # the emitted artifact replays to a failure under the same knob
    assert report.fail_file is not None
    with open(report.fail_file, "r", encoding="utf-8") as fh:
        source = fh.read()
    _res, reports = replay_scenario(
        source, cfg, "v1", "ring", report.verdict.trial_seed)
    assert oracles.failed_names(reports)
    assert trial_keys.pin() == (2, "8eb748d668141175")
    assert "python -m repro explore --replay" in report.command
    assert "cm_replay=False" in report.command


@pytest.mark.slow
def test_a_reproducer_replays_from_its_shrink_entry(tmp_path):
    """A trial is its setup and its seed: the replay of a shrunk
    ``.fail`` file, on the machines and seed its command names, is the
    shrink's last failing trial and reads it from the campaign's store.
    Only the replay's own golden (fewer machines than the campaign's)
    executes."""
    from repro.experiments.runner import TrialRunner

    store = str(tmp_path / "store")
    cfg = quick_config(seed=7, protocols=("v1",),
                       families=("random_schedule",),
                       config_overrides={"cm_replay": False},
                       max_shrinks=1)
    result = run_campaign(cfg, runner=TrialRunner(cache_dir=store),
                          out_dir=str(tmp_path))
    report = result.shrinks[0]
    with open(report.fail_file, "r", encoding="utf-8") as fh:
        source = fh.read()
    runner = TrialRunner(cache_dir=store)
    _res, reports = replay_scenario(
        source, dataclasses.replace(cfg, n_machines=report.outcome.n_machines),
        "v1", "ring", report.verdict.trial_seed, runner=runner)
    assert "progress" in oracles.failed_names(reports)
    assert (runner.stats.cache_hits, runner.stats.executed) == (1, 1)


@pytest.mark.slow
def test_campaign_results_cache_cleanly(tmp_path):
    """A re-run of the same campaign against the same cache executes
    zero new trials and reproduces the verdict table byte-for-byte."""
    from repro.experiments.runner import TrialRunner

    cfg = ExploreConfig(seed=3, protocols=("vcl",), workloads=("ring",),
                        families=("burst", "targeted"), budget=2)
    r1 = TrialRunner(cache_dir=str(tmp_path))
    first = run_campaign(cfg, runner=r1)
    assert r1.stats.cache_hits == 0
    r2 = TrialRunner(cache_dir=str(tmp_path))
    second = run_campaign(cfg, runner=r2)
    assert r2.stats.executed == 0
    assert first.render_table() == second.render_table()


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "burst", 0) == derive_seed(7, "burst", 0)
    assert derive_seed(7, "burst", 0) != derive_seed(7, "burst", 1)
    assert derive_seed(7, "burst", 0) != derive_seed(8, "burst", 0)


# ---------------------------------------------------------------------------
# the v2 double-kill regression the explorer originally found
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_v2_survives_rekilling_the_same_rank():
    """Killing one rank twice used to corrupt the stable event log
    (replay never advanced ``next_pos_to_log``, so re-logged events
    collided with existing positions and were dropped) and deadlock
    the second recovery.  Found by the explore campaign; pinned here."""
    cfg = quick_config(seed=0)
    from repro.explore.campaign import trial_setup

    src = generators.render_plan((TimedKill(40, 0), TimedKill(55, 0),
                                  TimedKill(70, 0)))
    setup = dataclasses.replace(
        trial_setup(cfg, "ring", "v2", source=src), timeout=600.0)
    result = setup.run_one(12345)
    assert result.outcome is Outcome.TERMINATED
    assert result.failures_detected == 3
    assert result.app_signature is not None
    assert result.invariant_violations == []


@pytest.mark.slow
def test_v2_replay_mode_survives_resends_racing_the_history_fetch():
    """A peer's logged-message resend that beats the EvFetch response
    must stay staged: an early arrival used to flip replay mode off
    (replay_events still empty), deliver through fresh logging at
    colliding positions, and deadlock once the real history arrived.
    The v2_replay_done record must never precede v2_replay_start."""
    cfg = quick_config(seed=0)
    from repro.explore.campaign import trial_setup

    src = generators.render_plan((TimedKill(40, 0),))
    setup = dataclasses.replace(
        trial_setup(cfg, "ring", "v2", source=src), timeout=600.0)
    result = setup.run_one(2024)
    assert result.outcome is Outcome.TERMINATED
    starts = [r.t for r in result.trace.records
              if r.kind == "v2_replay_start"]
    dones = [r.t for r in result.trace.records if r.kind == "v2_replay_done"]
    assert len(dones) <= len(starts)
    for start_t, done_t in zip(starts, dones):
        assert done_t >= start_t


# ---------------------------------------------------------------------------
# shrinking (pure-logic, no simulation)
# ---------------------------------------------------------------------------

def test_shrink_reduces_to_the_single_triggering_step():
    plan = (TimedKill(17, 3), TimedKill(23, 2), RekillRace(1),
            KillReporter(), TimedKill(61, 2))

    def still_fails(candidate, n_machines):
        # failure needs at least one kill of machine 2 on >= 4 machines
        return n_machines >= 4 and any(
            isinstance(s, TimedKill) and s.target == 2 for s in candidate)

    out = shrinklib.shrink(plan, 9, still_fails=still_fails,
                           min_machines=4, budget=64)
    assert len(out.plan) == 1
    assert isinstance(out.plan[0], TimedKill)
    assert out.plan[0].target == 2
    assert out.plan[0].at % 10 == 0            # time rounded to a grid
    assert out.n_machines == 4
    assert out.trials_used <= 64
    assert out.reductions
    # deterministic: same inputs, same minimal scenario
    again = shrinklib.shrink(plan, 9, still_fails=still_fails,
                             min_machines=4, budget=64)
    assert again.plan == out.plan and again.n_machines == out.n_machines


def test_shrink_respects_budget():
    plan = tuple(TimedKill(10 + i, i % 3) for i in range(6))
    calls = []

    def still_fails(candidate, n_machines):
        calls.append(1)
        return True                    # everything fails: maximal search

    out = shrinklib.shrink(plan, 8, still_fails=still_fails,
                           min_machines=4, budget=5)
    assert len(calls) <= 5
    assert len(out.plan) >= 1


def test_shrink_source_is_compilable():
    from repro.fail.compile import compile_scenario

    out = shrinklib.ShrinkResult(plan=(TimedKill(30, 0),), n_machines=4,
                                 trials_used=0, reductions=[])
    compile_scenario(out.source)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_explore_command_registered():
    from repro.__main__ import COMMANDS
    assert "explore" in COMMANDS
    assert COMMANDS["explore"][0] == "repro.explore.campaign"


@pytest.mark.parametrize("text, key", [
    ("bogus=1", "'bogus'"), ("=5", "''"),
    # the testbed calibration is constants, not config fields
    ("timing=1", "'timing'"), ("dispatcher_port=7000", "'dispatcher_port'"),
])
def test_override_of_an_unknown_key_is_a_usage_error(text, key, capsys):
    """An --override key that is not a VclConfig field stops the parser
    with one line naming it, before any trial runs."""
    from repro.__main__ import main
    with pytest.raises(SystemExit) as exit_info:
        main(["explore", "--override", text, "--workers", "2"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"override key {key} is not a VclConfig field")


def test_override_of_a_setup_field_is_a_usage_error(tmp_path, capsys):
    """``--override protocol=v2`` would restate ``--protocols``: the
    command stops with a usage error naming the field."""
    from repro.__main__ import main
    with pytest.raises(SystemExit) as exit_info:
        main(["explore", "--quick", "--override", "protocol=v2",
              "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "config override 'protocol' is a TrialSetup field, "
        "not an extra VclConfig attribute")


@pytest.mark.parametrize("content", [None, "garbage !!\n"],
                         ids=["missing", "malformed"])
def test_replay_of_a_bad_file_is_one_line(content, tmp_path):
    """``explore --replay`` on a file it cannot open or parse ends in
    one line naming the file, as ``trace-diff`` does, not a traceback."""
    path = tmp_path / "scenario.fail"
    if content is not None:
        path.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "explore", "--replay", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1 and proc.stdout == ""
    expected = ("No such file or directory" if content is None
                else "line 1:1: expected 'Daemon' or 'Deploy'")
    assert proc.stderr.startswith(f"explore: {path}: ")
    assert expected in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
