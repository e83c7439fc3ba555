"""Tests for the parallel trial runner and the result store.

The two load-bearing properties of the subsystem:

* **determinism** — ``workers=N`` produces an ``ExperimentResult``
  identical row-for-row (outcomes, exec times, fault counts) to
  ``workers=1``, because seeds are derived from the campaign layout,
  never from scheduling;
* **caching** — re-running a figure against a warm store executes
  zero new trials and reproduces the same rows.
"""

import argparse
import dataclasses
import json
import os

import pytest

from repro.experiments.fig5_frequency import run_experiment, setup_for_period
from repro.experiments.harness import run_trials, trial_seed
from repro.experiments.resultstore import (ResultStore, run_result_from_dict,
                                           run_result_to_dict)
from repro.experiments.runner import (TrialRunner, add_runner_arguments,
                                      runner_from_args, trial_key)

#: heavily reduced workload so a sweep stays in the second range
QUICK = dict(niters=10, total_compute=180.0, footprint=1e8)


def quick_setup(period):
    return setup_for_period(period, n_procs=4, n_machines=6, **QUICK)


def row_signature(row):
    """Everything the figures read from a row, per repetition."""
    return [(r.outcome, r.exec_time, r.failures_detected, r.restarts,
             r.bug_events, r.waves_committed, r.sim_time,
             r.events_processed) for r in row.results]


def assert_results_identical(a, b):
    assert [row.label for row in a.rows] == [row.label for row in b.rows]
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_signature(row_a) == row_signature(row_b), row_a.label


# -- determinism --------------------------------------------------------------

def test_parallel_equals_serial_reduced_fig5():
    """workers=4 must be bit-for-bit equal to workers=1 on a fig5 sweep."""
    kwargs = dict(reps=2, periods=(None, 40, 35), n_procs=4, n_machines=6,
                  **QUICK)
    serial = run_experiment(runner=TrialRunner(workers=1), **kwargs)
    parallel = run_experiment(runner=TrialRunner(workers=4), **kwargs)
    assert_results_identical(serial, parallel)
    # the faulty rows really did observe faults, so the equality above
    # compares non-trivial trajectories
    assert parallel.row("every 35 sec").total_faults > 0


def test_parallel_preserves_submission_order_counters():
    """Results land by job index, not completion order."""
    setups = [quick_setup(None), quick_setup(35)]
    jobs = [(s, trial_seed(1, ci, rep))
            for ci, s in enumerate(setups) for rep in range(2)]
    serial = TrialRunner(workers=1).run_jobs(jobs)
    parallel = TrialRunner(workers=4).run_jobs(jobs)
    assert [r.exec_time for r in serial] == [r.exec_time for r in parallel]
    assert [r.events_processed for r in serial] \
        == [r.events_processed for r in parallel]


def test_single_job_batch_never_builds_a_pool(monkeypatch, tmp_path):
    """One pending job runs in-process whatever the pool width, through
    the wire form a worker would have shipped back."""
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a pool was built for a single job")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    job = (quick_setup(35), 3)
    wide = TrialRunner(workers=2, cache_dir=str(tmp_path))
    (result,) = wide.run_jobs([job])
    assert wide.stats.snapshot() == (1, 0)
    (serial,) = TrialRunner(workers=1).run_jobs([job])
    assert run_result_to_dict(result) == run_result_to_dict(serial)
    # a batch whose other jobs are cache hits is a batch of one too
    other = (quick_setup(40), 3)
    TrialRunner(workers=1, cache_dir=str(tmp_path)).run_jobs([other])
    path = wide.store.path_for(trial_key(*job))
    os.unlink(path)
    mixed = TrialRunner(workers=2, cache_dir=str(tmp_path))
    mixed.run_jobs([other, job])
    assert mixed.stats.snapshot() == (1, 1) and os.path.exists(path)
    with pytest.raises(AssertionError, match="a pool was built"):
        TrialRunner(workers=2).run_jobs([job, other])


def test_trial_seed_scheme():
    """Seeds depend only on (base, config index, rep) — the documented
    scheme that makes scheduling irrelevant."""
    assert trial_seed(1000, 0, 0) == 1000
    assert trial_seed(1000, 0, 3) == 1003
    assert trial_seed(1000, 2, 1) == 1000 + 2 * 7919 + 1
    seen = {trial_seed(1000, ci, rep)
            for ci in range(10) for rep in range(100)}
    assert len(seen) == 1000  # no collisions across a realistic campaign


# -- caching ------------------------------------------------------------------

def test_cache_second_run_executes_zero_trials(tmp_path):
    cache = str(tmp_path / "cache")
    kwargs = dict(reps=2, periods=(None, 35), n_procs=4, n_machines=6,
                  **QUICK)
    cold = TrialRunner(workers=2, cache_dir=cache)
    first = run_experiment(runner=cold, **kwargs)
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0

    warm = TrialRunner(workers=2, cache_dir=cache)
    second = run_experiment(runner=warm, **kwargs)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 4
    assert warm.stats.hit_rate == 1.0
    assert_results_identical(first, second)


def test_cache_resume_executes_only_missing_trials(tmp_path):
    """Interrupted-campaign semantics: a partial store is topped up."""
    cache = str(tmp_path / "cache")
    setup = quick_setup(None)
    seeds = [trial_seed(7, 0, rep) for rep in range(3)]
    TrialRunner(cache_dir=cache).run_jobs([(setup, seeds[0])])

    resumed = TrialRunner(cache_dir=cache)
    resumed.run_jobs([(setup, s) for s in seeds])
    assert resumed.stats.cache_hits == 1
    assert resumed.stats.executed == 2


def test_no_cache_ignores_store(tmp_path):
    cache = str(tmp_path / "cache")
    setup = quick_setup(None)
    job = [(setup, 1)]
    TrialRunner(cache_dir=cache).run_jobs(job)
    parser = argparse.ArgumentParser()
    add_runner_arguments(parser)
    runner = runner_from_args(parser.parse_args(
        ["--cache-dir", cache, "--no-cache"]))
    assert runner.store is None
    runner.run_jobs(job)
    assert runner.stats.executed == 1
    assert runner.stats.cache_hits == 0


def test_run_trials_cache_knobs(tmp_path):
    """A cold serial run and a warm two-worker run over one cache agree."""
    cache = str(tmp_path / "cache")
    kwargs = dict(setup_for=quick_setup, configs=[None], labels=["base"],
                  reps=2, name="t", base_seed=3)
    first = run_trials(runner=TrialRunner(cache_dir=cache), **kwargs)
    second = run_trials(runner=TrialRunner(workers=2, cache_dir=cache),
                        **kwargs)
    assert_results_identical(first, second)


# -- trial keys ---------------------------------------------------------------

def test_trial_key_stable_and_sensitive():
    setup = quick_setup(35)
    key = trial_key(setup, 1)
    assert key == trial_key(quick_setup(35), 1)       # stable across builds
    assert key != trial_key(setup, 2)                  # seed-sensitive
    assert key != trial_key(quick_setup(40), 1)        # param-sensitive
    bumped = dataclasses.replace(setup, ckpt_period=31.0)
    assert key != trial_key(bumped, 1)                 # every field counts


# -- result store -------------------------------------------------------------

def test_run_result_roundtrip():
    result = quick_setup(35).run_one(seed=5)
    doc = run_result_to_dict(result)
    back = run_result_from_dict(doc)
    assert back.outcome is result.outcome
    assert back.exec_time == result.exec_time
    assert back.verdict.reason == result.verdict.reason
    assert back.sim_time == result.sim_time
    assert back.restarts == result.restarts
    assert back.failures_detected == result.failures_detected
    assert back.waves_committed == result.waves_committed
    assert back.events_processed == result.events_processed
    assert back.trace.counts == result.trace.counts
    # and the wire form is genuinely JSON
    import json
    json.loads(json.dumps(doc))


def test_run_result_roundtrip_keeps_records():
    setup = dataclasses.replace(quick_setup(None), keep_trace=True)
    result = setup.run_one(seed=5)
    assert len(result.trace.records) > 0
    back = run_result_from_dict(run_result_to_dict(result))
    assert len(back.trace.records) == len(result.trace.records)
    rec_a, rec_b = result.trace.records[0], back.trace.records[0]
    assert (rec_a.t, rec_a.kind) == (rec_b.t, rec_b.kind)


def test_result_store_miss_and_corruption(tmp_path):
    store = ResultStore(str(tmp_path / "s"))
    assert store.get("0" * 64) is None
    # a truncated entry reads as a miss, not a crash
    path = store.path_for("ab" * 32)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"format": 1, "verdict"')
    assert store.get("ab" * 32) is None
    # valid JSON of the wrong shape also reads as a miss, not a crash
    for bad in ("null", '{"format": 1, "verdict": null}'):
        with open(path, "w") as fh:
            fh.write(bad)
        assert store.get("ab" * 32) is None, bad


class _NotJson:
    """No JSON encoder takes this: a dump of it raises TypeError."""


def _store_write(root, monkeypatch):
    store = ResultStore(str(root))
    return (store.path_for("ab" * 32),
            lambda: store.put_dict("ab" * 32, {"doc": _NotJson()}))


def _corpus_write(root, monkeypatch):
    from repro.analysis.coverage import Signature
    from repro.explore.corpus import Corpus, CorpusEntry
    from repro.explore.generators import TimedKill
    entry = CorpusEntry(seq=0, plan=(TimedKill(at=10, target=0),),
                        signature=Signature.from_labels(["a"]),
                        family="gtest", protocol="v1", workload="ring",
                        trial_seed=1)
    monkeypatch.setattr(CorpusEntry, "to_dict",
                        lambda self: {"entry": _NotJson()})
    # the earlier file is not an entry, so the corpus skips it and
    # writes over it
    return (str(root / f"{entry.digest}.json"),
            lambda: Corpus(str(root)).admit(entry))


@pytest.mark.parametrize("writer", [_store_write, _corpus_write],
                         ids=["result store", "corpus"])
def test_a_dump_that_raises_leaves_no_temp_file_and_the_earlier_file(
        writer, tmp_path, monkeypatch):
    """Both atomic JSON writes (``resultstore.write_json``): a dump
    that raises unlinks its temp file and leaves the file it would have
    replaced as it was."""
    path, write = writer(tmp_path, monkeypatch)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("earlier")
    with pytest.raises(TypeError):
        write()
    with open(path) as fh:
        assert fh.read() == "earlier"
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("damage", ["truncated", "format 8", "missing key"])
def test_stale_entry_reexecutes_is_overwritten_and_counted(tmp_path, damage):
    """An entry that is present but unusable is a *visible* miss: a
    current-format entry that lost a key too, never a hit with a
    default filled in."""
    job = (quick_setup(35), 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (reference,) = cold.run_jobs([job])
    assert cold.stats.stale_entries == 0        # absent is not stale
    path = cold.store.path_for(trial_key(*job))
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        if damage == "truncated":
            fh.write(good[:len(good) // 2])
        elif damage == "missing key":
            doc = json.loads(good)
            del doc["net_bytes"]
            fh.write(json.dumps(doc))
        else:   # what the previous layout wrote under the same key
            fh.write(json.dumps(dict(json.loads(good), format=8)))
    runner = TrialRunner(cache_dir=str(tmp_path))
    (again,) = runner.run_jobs([job])
    assert runner.stats.snapshot() == (1, 0)
    assert runner.stats.stale_entries == 1
    assert "1 stale cache entries re-executed" in runner.stats.describe()
    assert runner.stats.to_doc()["stale_entries"] == 1
    assert run_result_to_dict(again) == run_result_to_dict(reference)
    with open(path) as fh:
        assert fh.read() == good                # overwritten, readable
    warm = TrialRunner(cache_dir=str(tmp_path))
    warm.run_jobs([job])
    assert warm.stats.snapshot() == (0, 1)
    assert warm.stats.stale_entries == 0
    assert "stale" not in warm.stats.describe()


def _rewrite_as_format_9(path):
    """What the previous layout wrote under the same key: obs version
    3, the causal section holding the transmission columns."""
    with open(path) as fh:
        doc = json.load(fh)
    doc["format"] = 9
    doc["obs"]["version"] = 3
    doc["obs"]["causal"] = {
        "tid": ["a"], "t_send": [1.0], "t_recv": [1.5], "src": [0],
        "dst": [1], "kind": [0], "parent": [-1], "hosts": ["m1", "m2"],
        "kinds": ["DataMsg"], "dropped_nodes": 0, "dropped_edges": 0,
        "minted": 1}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_format9_cache_directory_migrates_on_first_run(tmp_path):
    """A whole directory written by the previous format: no hits, every
    entry counted stale and re-executed; the run after is all hits."""
    jobs = [(quick_setup(period), 3) for period in (None, 40, 35)]
    cold = TrialRunner(cache_dir=str(tmp_path))
    reference = [run_result_to_dict(r) for r in cold.run_jobs(jobs)]
    for job in jobs:
        _rewrite_as_format_9(cold.store.path_for(trial_key(*job)))
    first = TrialRunner(cache_dir=str(tmp_path))
    migrated = first.run_jobs(jobs)
    assert first.stats.snapshot() == (3, 0)
    assert first.stats.stale_entries == 3
    assert [run_result_to_dict(r) for r in migrated] == reference
    second = TrialRunner(cache_dir=str(tmp_path))
    again = second.run_jobs(jobs)
    assert second.stats.snapshot() == (0, 3)
    assert second.stats.hit_rate == 1.0 and second.stats.stale_entries == 0
    assert [run_result_to_dict(r) for r in again] == reference


def _strip_to_obs(path):
    """A current-format entry holding nothing but its obs section."""
    with open(path) as fh:
        doc = json.load(fh)
    with open(path, "w") as fh:
        json.dump({"format": doc["format"], "obs": doc["obs"]}, fh)


@pytest.mark.parametrize("spoil", [_rewrite_as_format_9, _strip_to_obs],
                         ids=["format 9", "obs only"])
def test_obs_report_skips_and_counts_a_format9_entry(spoil, tmp_path,
                                                     capsys):
    """obs-report reads an entry as the result store does: an entry
    the store would refuse is skipped and counted, not aggregated."""
    from repro.__main__ import main
    from repro.experiments import obs_report_cmd
    jobs = [(quick_setup(period), 3) for period in (40, 35)]
    runner = TrialRunner(cache_dir=str(tmp_path / "store"))
    runner.run_jobs(jobs)
    spoil(runner.store.path_for(trial_key(*jobs[0])))
    docs, skipped = obs_report_cmd.collect_obs_docs(str(tmp_path / "store"))
    assert (len(docs), skipped) == (1, 1)
    main(["obs-report", "--store", str(tmp_path / "store"),
          "--out", str(tmp_path / "report")])
    assert "aggregated 1 observed trials (1 entries skipped)" \
        in capsys.readouterr().out
    assert (tmp_path / "report" / "metrics.txt").read_text() \
        .endswith("# EOF\n")


def test_a_corpus_kept_under_the_store_is_no_entry(tmp_path):
    """A guided campaign keeps its corpus in ``<cache>/corpus/``: those
    files are neither results nor skipped entries, to ``len()`` and to
    obs-report alike."""
    from repro.experiments import obs_report_cmd
    jobs = [(quick_setup(period), 3) for period in (40, 35)]
    runner = TrialRunner(cache_dir=str(tmp_path / "store"))
    runner.run_jobs(jobs)
    (tmp_path / "store" / "corpus").mkdir()
    (tmp_path / "store" / "corpus" / "x.json").write_text("{}")
    docs, skipped = obs_report_cmd.collect_obs_docs(str(tmp_path / "store"))
    assert (len(docs), skipped) == (2, 0)
    assert len(runner.store) == 2


def test_format9_entry_with_extra_keys_is_a_hit(tmp_path):
    """The reader takes keys by name, so an entry carrying keys it does
    not know (format 9 once had ``engine_workers`` / ``parallel``) is
    still a hit and re-serialises to today's document."""
    job = (quick_setup(35), 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (reference,) = cold.run_jobs([job])
    path = cold.store.path_for(trial_key(*job))
    with open(path) as fh:
        doc = json.load(fh)
    assert "engine_workers" not in doc and "parallel" not in doc
    with open(path, "w") as fh:
        json.dump(dict(doc, engine_workers=1, parallel=None), fh)
    warm = TrialRunner(cache_dir=str(tmp_path))
    (hit,) = warm.run_jobs([job])
    assert warm.stats.snapshot() == (0, 1)
    assert warm.stats.stale_entries == 0
    assert run_result_to_dict(hit) == run_result_to_dict(reference)


def test_store_rejects_non_directory_root(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    with pytest.raises(NotADirectoryError, match="not a\\s+directory"):
        ResultStore(str(afile))


def test_store_rejects_future_format(tmp_path):
    result = quick_setup(None).run_one(seed=1)
    doc = run_result_to_dict(result)
    doc["format"] = 999
    with pytest.raises(ValueError):
        run_result_from_dict(doc)


# -- CLI plumbing -------------------------------------------------------------

def test_runner_from_args():
    parser = argparse.ArgumentParser()
    add_runner_arguments(parser)
    args = parser.parse_args(["--workers", "3", "--cache-dir", "/tmp/x",
                              "--no-cache"])
    runner = runner_from_args(args)
    assert runner.workers == 3
    assert runner.store is None  # --no-cache wins over --cache-dir
    args = parser.parse_args([])
    runner = runner_from_args(args)
    assert runner.workers == 1 and runner.store is None
