"""Tests for coverage-guided exploration: signatures, mutation,
corpus persistence, and the guided campaign loop."""

import json
import random

import pytest

from repro.analysis import coverage
from repro.analysis.coverage import Signature
from repro.experiments.harness import TrialSetup
from repro.experiments.runner import TrialRunner
from repro.explore import generators
from repro.explore.campaign import (ExploreConfig, derive_seed,
                                    quick_config, run_guided,
                                    seeded_first_failure, trial_setup)
from repro.explore.corpus import Corpus, CorpusEntry, default_corpus_dir
from repro.explore.generators import (GeneratorContext, Heal, TimedKill,
                                      TimedPartition, plan_from_doc,
                                      plan_to_doc)
from repro.explore.mutate import MUTATORS, mutate, valid_plan
from repro.explore.oracles import coverage_labels, run_oracles
from repro.fail.build import render
from repro.fail.lang.parser import parse_fail

CTX = GeneratorContext(n_machines=7, n_busy=4)


# ---------------------------------------------------------------------------
# signature algebra
# ---------------------------------------------------------------------------

def test_signature_from_labels_is_order_insensitive_and_stable():
    a = Signature.from_labels(["disp.rx.Register", "trace.kill.x2"])
    b = Signature.from_labels(["trace.kill.x2", "disp.rx.Register"])
    assert a == b and hash(a) == hash(b)
    assert a.popcount == 2
    assert Signature.from_hex(a.hex) == a


def test_signature_set_algebra():
    a = Signature.from_labels(["x", "y"])
    b = Signature.from_labels(["y", "z"])
    assert (a | b).popcount == 3
    assert a.minus(b) == Signature.from_labels(["x"])
    assert (a | b).covers(a) and not a.covers(b)
    assert not Signature()
    assert Signature.from_hex("") == Signature()


def test_hit_buckets_are_logarithmic():
    assert [coverage.hit_bucket(n) for n in (1, 2, 3, 4, 7, 8, 100)] == \
        [1, 2, 2, 4, 4, 8, 64]


def test_oracle_coverage_labels_expose_branches():
    result = TrialSetup(n_procs=4, n_machines=4, workload="ring", niters=4,
                        total_compute=40.0).run_one(1)
    reports = run_oracles(result, result)
    labels = coverage_labels(reports, result)
    assert "oracle.no_deadlock.ok" in labels
    assert "oracle.false_suspicion.no_partitions" in labels


# ---------------------------------------------------------------------------
# signature determinism on real trials
# ---------------------------------------------------------------------------

def _one_setup(cfg, protocol="vcl", family="random_schedule"):
    scenario = generators.generate(family, 0, cfg.seed,
                                   cfg.generator_context())
    return (trial_setup(cfg, "ring", protocol, source=scenario.source),
            derive_seed(cfg.seed, family, 0, protocol, "ring"))


def test_same_seed_gives_identical_coverage_bitmap():
    cfg = ExploreConfig(seed=3)
    setup, seed = _one_setup(cfg)
    first = setup.run_one(seed)
    second = setup.run_one(seed)
    assert first.coverage and first.coverage == second.coverage
    # a behaviourally different run (no faults at all) covers less
    golden = trial_setup(cfg, "ring", "vcl").run_one(seed)
    assert golden.coverage != first.coverage


def test_parallel_and_serial_runs_carry_identical_signatures():
    cfg = ExploreConfig(seed=3)
    jobs = [_one_setup(cfg), _one_setup(cfg, protocol="v1"),
            (trial_setup(cfg, "ring", "vcl"),
             derive_seed(cfg.seed, "golden", "vcl", "ring"))]
    serial = TrialRunner(workers=1).run_jobs(jobs)
    pooled = TrialRunner(workers=2).run_jobs(jobs)
    assert [r.coverage for r in serial] == [r.coverage for r in pooled]
    assert all(r.coverage for r in serial)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def _sample_plans():
    plans = []
    for family in sorted(generators.FAMILIES):
        for index in range(4):
            plans.append(generators.generate(family, index, 5, CTX).plan)
    return plans


def test_mutants_are_valid_and_render_round_trips():
    rng = random.Random("mutate-test")
    donors = _sample_plans()
    for plan in donors:
        for _ in range(8):
            mutant = mutate(plan, rng, CTX, donors=donors)
            assert valid_plan(mutant, CTX), mutant
            source = generators.render_plan(mutant)
            # canonical-form contract: the rendered FAIL text parses,
            # and re-rendering the parse is a fixed point
            assert render(parse_fail(source)) == source


def test_every_operator_applies_to_some_plan():
    rng = random.Random("ops-test")
    donors = _sample_plans()
    applied = set()
    for name, op in MUTATORS.items():
        for plan in donors:
            out = (op(plan, rng, CTX, donors) if name == "splice"
                   else op(plan, rng, CTX))
            if out is not None and out != plan:
                applied.add(name)
                break
    assert applied == set(MUTATORS)


def test_valid_plan_rejects_broken_shapes():
    from repro.explore.generators import KillReporter, RekillRace
    assert not valid_plan((), CTX)
    # reactive step with no kill to react to
    assert not valid_plan((RekillRace(target=0),), CTX)
    assert not valid_plan((KillReporter(),), CTX)
    # heal with no partition
    assert not valid_plan((Heal(after=0),), CTX)
    # out-of-range target
    assert not valid_plan((TimedKill(at=10, target=99),), CTX)
    assert valid_plan((TimedKill(at=10, target=0),
                       RekillRace(target=1)), CTX)


def test_plan_doc_round_trip():
    for plan in _sample_plans():
        assert plan_from_doc(plan_to_doc(plan)) == plan
    doc = plan_to_doc((TimedPartition(at=5, targets=(1, 3),
                                      services=("svc2",)), Heal(after=0)))
    assert plan_from_doc(json.loads(json.dumps(doc))) == (
        TimedPartition(at=5, targets=(1, 3), services=("svc2",)),
        Heal(after=0))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _entry(plan, labels, **kw):
    kw.setdefault("family", "gtest")
    kw.setdefault("protocol", "v1")
    kw.setdefault("workload", "ring")
    kw.setdefault("trial_seed", 1)
    return CorpusEntry(seq=0, plan=plan,
                       signature=Signature.from_labels(labels), **kw)


def test_corpus_admits_novelty_and_dedups_by_signature(tmp_path):
    corpus = Corpus(str(tmp_path / "corpus"))
    plan = (TimedKill(at=10, target=0),)
    assert corpus.admit(_entry(plan, ["a", "b"]))
    assert not corpus.admit(_entry(plan, ["a", "b"]))       # same bitmap
    assert corpus.admit(_entry(plan, ["a", "c"]))           # new bit
    assert len(corpus) == 2
    assert corpus.accumulated.popcount == 3


def test_corpus_persists_and_replays_failures_first(tmp_path):
    root = str(tmp_path / "corpus")
    corpus = Corpus(root)
    ok_plan = (TimedKill(at=10, target=0),)
    bad_plan = (TimedKill(at=20, target=1),)
    corpus.admit(_entry(ok_plan, ["a"]))
    corpus.admit(_entry(bad_plan, ["b"], failed=["progress"]))
    reloaded = Corpus(root)
    assert len(reloaded) == 2
    assert reloaded.accumulated == corpus.accumulated
    order = reloaded.entries()
    assert order[0].plan == bad_plan and order[0].failed == ["progress"]
    assert order[1].plan == ok_plan


@pytest.mark.parametrize("text", ["[]", "1", '"x"'])
def test_corpus_skips_json_that_is_not_an_object(tmp_path, text):
    root = tmp_path / "corpus"
    corpus = Corpus(str(root))
    corpus.admit(_entry((TimedKill(at=10, target=0),), ["a"]))
    (root / "a.json").write_text(text, encoding="utf-8")
    reloaded = Corpus(str(root))
    assert len(reloaded) == 1
    assert reloaded.accumulated == corpus.accumulated


# ---------------------------------------------------------------------------
# the guided loop (acceptance: beats the seeded baseline on the
# planted V1 broken-replay bug, and run 2 beats run 1 from the corpus)
# ---------------------------------------------------------------------------

def _guided_cfg():
    # the partition_storm space: every plain kill trips the planted bug
    # immediately, so the seeded baseline's search cost is real — an
    # unexcused failure needs heal-before-detection cuts plus a kill,
    # which the excuse-region labels steer the mutation loop toward
    return ExploreConfig(protocols=("v1",), workloads=("ring",),
                         families=("partition_storm",), budget=30, seed=7,
                         config_overrides={"cm_replay": False},
                         max_shrinks=0)


def test_guided_beats_seeded_baseline_and_corpus_carries_over(tmp_path):
    cfg = _guided_cfg()
    cache = str(tmp_path / "cache")
    corpus_dir = default_corpus_dir(cache, str(tmp_path / "out"))

    first = run_guided(cfg, runner=TrialRunner(cache_dir=cache),
                       out_dir=str(tmp_path / "out"),
                       corpus_dir=corpus_dir)
    g1 = first.guided
    assert g1.corpus_size_end > 0 and g1.edges_end > g1.edges_start
    assert g1.first_failure_trial is not None
    assert g1.baseline_first_failure_trial is not None
    # the guided loop out-searches the seeded stream on the same budget
    assert g1.first_failure_trial < g1.baseline_first_failure_trial
    failing = [v for v in first.rows if v.failed]
    assert failing and all("progress" in v.failed or v.failed
                           for v in failing)

    second = run_guided(cfg, runner=TrialRunner(cache_dir=cache),
                        out_dir=str(tmp_path / "out"),
                        corpus_dir=corpus_dir)
    g2 = second.guided
    # corpus replay surfaces the crasher before any fresh searching
    assert g2.replayed > 0
    assert g2.first_failure_trial < g1.first_failure_trial
    # stats land in the benchmark document
    doc = second.bench_json()
    assert doc["guided"]["first_failure_trial"] == g2.first_failure_trial
    assert (doc["guided"]["baseline_first_failure_trial"]
            == g2.baseline_first_failure_trial)
    assert doc["guided"]["edges_end"] >= doc["guided"]["edges_start"]


def test_guided_campaign_at_width_2_never_builds_a_pool(tmp_path,
                                                        monkeypatch,
                                                        trial_keys):
    """The guided loop, corpus minimisation, the seeded baseline and
    the shrinker submit one job per batch (and one protocol × one
    workload makes the golden batch one job as well): such a campaign
    runs in-process at any ``--workers``, with the rows a serial run
    produces, and its trials keep their cache slots (keys pinned)."""
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a pool was built for a single job")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = quick_config(seed=7, protocols=("v1",),
                       config_overrides={"cm_replay": False},
                       max_shrinks=1, shrink_budget=8,
                       corpus_shrink_budget=2)
    runs = {}
    for workers in (2, 1):
        out = tmp_path / f"w{workers}"
        runs[workers] = run_guided(
            cfg, runner=TrialRunner(workers=workers), out_dir=str(out),
            corpus_dir=str(out / "corpus"))
    wide, serial = runs[2], runs[1]
    assert trial_keys.pin() == (17, "710cb6834c1d8b3b")
    assert len(wide.rows) == cfg.budget and wide.executed > cfg.budget
    assert wide.failures and len(wide.shrinks) == 1
    assert [v.to_dict() for v in wide.rows] \
        == [v.to_dict() for v in serial.rows]
    (shrunk,), (reference,) = wide.shrinks, serial.shrinks
    assert (shrunk.outcome.plan, shrunk.outcome.trials_used,
            shrunk.outcome.reductions) \
        == (reference.outcome.plan, reference.outcome.trials_used,
            reference.outcome.reductions)
    assert wide.guided.to_dict(cfg.budget) == {
        **serial.guided.to_dict(cfg.budget),
        "corpus_dir": wide.guided.corpus_dir}


def test_seeded_baseline_walks_canonical_order(tmp_path):
    cfg = _guided_cfg()
    runner = TrialRunner(cache_dir=str(tmp_path / "cache"))
    goldens = {("v1", "ring"): trial_setup(cfg, "ring", "v1").run_one(
        derive_seed(cfg.seed, "golden", "v1", "ring"))}
    n = seeded_first_failure(cfg, runner, goldens, cap=cfg.budget)
    assert n is not None and 1 <= n <= cfg.budget
    # a rerun against the warm cache executes nothing new
    before = runner.stats.executed
    assert seeded_first_failure(cfg, runner, goldens, cap=cfg.budget) == n
    assert runner.stats.executed == before
