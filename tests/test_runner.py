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
import pickle

import pytest

from repro.experiments.fig5_frequency import run_experiment, setup_for_period
from repro.experiments.harness import run_trials, trial_seed
from repro.experiments.resultstore import (ResultStore, entry_text,
                                           run_result_from_dict,
                                           run_result_to_dict)
from repro.experiments.runner import (TrialRunner, add_runner_arguments,
                                      runner_from_args, trial_key)
from repro.explore import generators
from repro.explore.campaign import quick_config, trial_setup
from test_trial_garbage import faulted_ring

#: heavily reduced workload so a sweep stays in the second range
QUICK = dict(niters=10, total_compute=180.0, footprint=1e8)


def quick_setup(period):
    return setup_for_period(period, n_procs=4, n_machines=6, **QUICK)


def observed_setup(period):
    """``quick_setup(period)``, recording its ``obs`` document."""
    return dataclasses.replace(quick_setup(period), observe=True)


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


def _storm_trial():
    """An explore ``partition_storm`` trial: each failed launch logs
    three trace records, 44,016 in all."""
    cfg = quick_config(seed=7)
    scenario = generators.generate("partition_storm", 1, cfg.seed,
                                   cfg.generator_context())
    return trial_setup(cfg, "ring", "v1", source=scenario.source)


def test_keeping_records_never_moves_the_document(tmp_path):
    """Trace records stay with the process that ran the trial: the
    document is the same whether the trial kept them or not, and a
    runner's result, serial, pooled or cached, has none."""
    jobs = [(faulted_ring(16, "v2"), 1), (_storm_trial(), 1)]
    docs = []
    for setup, seed in jobs:
        live = setup.run_one(seed)
        assert live.trace.records
        doc = run_result_to_dict(live)
        assert doc == run_result_to_dict(setup.run_one(seed,
                                                       keep_trace=False))
        assert set(doc["trace"]) == {"counts"}
        docs.append(doc)
    cache = str(tmp_path)
    for runner in (TrialRunner(cache_dir=cache), TrialRunner(workers=2),
                   TrialRunner(cache_dir=cache)):
        results = runner.run_jobs(jobs)
        assert [run_result_to_dict(r) for r in results] == docs
        assert not any(r.trace.records for r in results)
    assert runner.stats.cache_hits == len(jobs)


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
    """Both atomic JSON writes (``resultstore.write_text``): a dump
    that raises leaves no temp file and the file it would have replaced
    as it was."""
    path, write = writer(tmp_path, monkeypatch)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("earlier")
    with pytest.raises(TypeError):
        write()
    with open(path) as fh:
        assert fh.read() == "earlier"
    assert list(tmp_path.rglob("*.tmp")) == []


def _entry_doc(text):
    """The whole result document of an entry's text: the rest after
    the last newline, plus the ``obs`` line before it if there is one."""
    obs, _, rest = text.rpartition("\n")
    doc = json.loads(rest)
    if obs:
        doc["obs"] = json.loads(obs)
    return doc


def _read_entry_doc(path):
    with open(path) as fh:
        return _entry_doc(fh.read())


def _write_entry_doc(path, doc):
    """``doc`` written in the store's entry layout."""
    with open(path, "w") as fh:
        fh.write(entry_text(doc))


#: each damage to an observed entry (obs line and rest), then to an
#: unobserved one (one object)
STALE_CASES = [pytest.param(damage, make, id=f"{prefix}{damage}")
               for prefix, make in (("", observed_setup),
                                    ("unobserved ", quick_setup))
               for damage in ("truncated", "format 8", "missing key")]


@pytest.mark.parametrize("damage, make", STALE_CASES)
def test_stale_entry_reexecutes_is_overwritten_and_counted(tmp_path, damage,
                                                           make):
    """An entry that is present but unusable is a *visible* miss: a
    current-format entry that lost a key too, never a hit with a
    default filled in."""
    job = (make(35), 3)
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
            doc = _entry_doc(good)
            del doc["net_bytes"]
            fh.write(entry_text(doc))
        else:   # what the previous format wrote under the same key
            fh.write(entry_text(dict(_entry_doc(good), format=8)))
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
    doc = _read_entry_doc(path)
    doc["format"] = 9
    doc["obs"]["version"] = 3
    doc["obs"]["causal"] = {
        "tid": ["a"], "t_send": [1.0], "t_recv": [1.5], "src": [0],
        "dst": [1], "kind": [0], "parent": [-1], "hosts": ["m1", "m2"],
        "kinds": ["DataMsg"], "dropped_nodes": 0, "dropped_edges": 0,
        "minted": 1}
    _write_entry_doc(path, doc)


def test_format9_cache_directory_migrates_on_first_run(tmp_path):
    """A whole directory written by the previous format: no hits, every
    entry counted stale and re-executed; the run after is all hits."""
    jobs = [(observed_setup(period), 3) for period in (None, 40, 35)]
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
    doc = _read_entry_doc(path)
    _write_entry_doc(path, {"format": doc["format"], "obs": doc["obs"]})


@pytest.mark.parametrize("spoil", [_rewrite_as_format_9, _strip_to_obs],
                         ids=["format 9", "obs only"])
def test_obs_report_skips_and_counts_a_format9_entry(spoil, tmp_path,
                                                     capsys):
    """obs-report reads an entry as the result store does: an entry
    the store would refuse is skipped and counted as unreadable, one
    written without observing as unobserved; neither is aggregated."""
    from repro.__main__ import main
    from repro.experiments import obs_report_cmd
    jobs = [(observed_setup(40), 3), (observed_setup(35), 3),
            (quick_setup(35), 3)]
    runner = TrialRunner(cache_dir=str(tmp_path / "store"))
    runner.run_jobs(jobs)
    spoil(runner.store.path_for(trial_key(*jobs[0])))
    docs, unobserved, unreadable = obs_report_cmd.collect_obs_docs(
        str(tmp_path / "store"))
    assert (len(docs), unobserved, unreadable) == (1, 1, 1)
    main(["obs-report", "--store", str(tmp_path / "store"),
          "--out", str(tmp_path / "report")])
    assert "aggregated 1 observed trials (skipped: 1 unobserved, " \
        "1 unreadable entries)" in capsys.readouterr().out
    assert (tmp_path / "report" / "metrics.txt").read_text() \
        .endswith("# EOF\n")


def test_a_corpus_kept_under_the_store_is_no_entry(tmp_path):
    """A guided campaign keeps its corpus in ``<cache>/corpus/``: those
    files are neither results nor skipped entries, to ``len()`` and to
    obs-report alike."""
    from repro.experiments import obs_report_cmd
    jobs = [(observed_setup(period), 3) for period in (40, 35)]
    runner = TrialRunner(cache_dir=str(tmp_path / "store"))
    runner.run_jobs(jobs)
    (tmp_path / "store" / "corpus").mkdir()
    (tmp_path / "store" / "corpus" / "x.json").write_text("{}")
    docs, unobserved, unreadable = obs_report_cmd.collect_obs_docs(
        str(tmp_path / "store"))
    assert (len(docs), unobserved, unreadable) == (2, 0, 0)
    assert len(runner.store) == 2


def test_format9_entry_with_extra_keys_is_a_hit(tmp_path):
    """The reader takes keys by name, so an entry carrying keys it does
    not know (format 9 once had ``engine_workers`` / ``parallel``) is
    still a hit and re-serialises to today's document, obs included."""
    job = (observed_setup(35), 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (reference,) = cold.run_jobs([job])
    path = cold.store.path_for(trial_key(*job))
    doc = _read_entry_doc(path)
    assert "engine_workers" not in doc and "parallel" not in doc
    _write_entry_doc(path, dict(doc, engine_workers=1, parallel=None))
    warm = TrialRunner(cache_dir=str(tmp_path))
    (hit,) = warm.run_jobs([job])
    assert warm.stats.snapshot() == (0, 1)
    assert warm.stats.stale_entries == 0
    assert hit.obs is not None
    assert run_result_to_dict(hit) == run_result_to_dict(reference)


# -- entry layout -------------------------------------------------------------

#: one observed trial per protocol, and one unobserved
LAYOUT_SETUPS = {
    **{protocol: dataclasses.replace(observed_setup(35), protocol=protocol)
       for protocol in ("vcl", "v2", "v1")},
    "unobserved": quick_setup(35),
}

COMPACT = (",", ":")


@pytest.mark.parametrize("name", sorted(LAYOUT_SETUPS))
def test_a_hit_is_the_executed_document(name, tmp_path, monkeypatch):
    """A hit's document is byte-identical to the executed trial's.  An
    observed entry is its obs line, a newline and the rest (6 bytes
    shorter than one object); an unobserved one is one object.  A hit
    decodes its obs section when it is first read, and only then."""
    from repro.mpichv.runtime import ObsText
    job = (LAYOUT_SETUPS[name], 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (executed,) = cold.run_jobs([job])
    expected = run_result_to_dict(executed)
    whole = json.dumps(expected, separators=COMPACT)
    path = cold.store.path_for(trial_key(*job))
    with open(path) as fh:
        text = fh.read()
    if name == "unobserved":
        assert expected["obs"] is None and text == whole
    else:
        obs, rest = text.split("\n")
        assert json.loads(obs) == expected["obs"]
        assert "obs" not in json.loads(rest)
        assert len(text) == len(whole) - 6
    decodes = []
    decode = ObsText.decode
    monkeypatch.setattr(ObsText, "decode",
                        lambda self: decodes.append(self.path) or decode(self))
    warm = TrialRunner(cache_dir=str(tmp_path))
    (hit,) = warm.run_jobs([job])
    assert warm.stats.snapshot() == (0, 1) and decodes == []
    clone = pickle.loads(pickle.dumps(hit))
    assert hit.obs is hit.obs and hit.obs == executed.obs
    assert decodes == ([] if name == "unobserved" else [path])
    for result in (hit, clone):
        assert json.dumps(run_result_to_dict(result)) == json.dumps(expected)


@pytest.mark.parametrize("layout", ["one object", "obs-out"])
def test_a_one_object_entry_is_a_hit(layout, tmp_path):
    """What the store wrote before the obs line split off — the whole
    document as one compact object — and what ``timeline --obs-out``
    writes (sorted keys, a final newline) read as hits with the
    executed trial's document — byte for byte where the file kept its
    key order.  Both carry the observed trial's obs document."""
    job = (observed_setup(35), 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (executed,) = cold.run_jobs([job])
    expected = run_result_to_dict(executed)
    with open(cold.store.path_for(trial_key(*job)), "w") as fh:
        if layout == "one object":
            fh.write(json.dumps(expected, separators=COMPACT))
        else:
            fh.write(json.dumps(expected, sort_keys=True, separators=COMPACT)
                     + "\n")
    warm = TrialRunner(cache_dir=str(tmp_path))
    (hit,) = warm.run_jobs([job])
    assert warm.stats.snapshot() == (0, 1) and warm.stats.stale_entries == 0
    assert expected["obs"] is not None and hit.obs == executed.obs
    assert run_result_to_dict(hit) == expected
    if layout == "one object":
        assert json.dumps(run_result_to_dict(hit)) == json.dumps(expected)


#: where a truncation cuts an observed entry, given its obs line and rest
CUTS = {
    "inside the obs line": lambda obs, rest: len(obs) // 2,
    "before the newline": lambda obs, rest: len(obs),
    "after the newline": lambda obs, rest: len(obs) + 1,
    "inside the rest": lambda obs, rest: len(obs) + 1 + len(rest) // 2,
    "before the last byte": lambda obs, rest: len(obs) + len(rest),
}


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_a_truncated_entry_is_a_stale_miss_wherever_it_is_cut(cut, tmp_path):
    """The obs line comes first, so every truncation damages the rest:
    a counted stale miss that re-executes and rewrites the entry."""
    job = (observed_setup(35), 3)
    cold = TrialRunner(cache_dir=str(tmp_path))
    (reference,) = cold.run_jobs([job])
    path = cold.store.path_for(trial_key(*job))
    with open(path) as fh:
        good = fh.read()
    obs, _, rest = good.rpartition("\n")
    with open(path, "w") as fh:
        fh.write(good[:CUTS[cut](obs, rest)])
    runner = TrialRunner(cache_dir=str(tmp_path))
    (again,) = runner.run_jobs([job])
    assert runner.stats.snapshot() == (1, 0)
    assert runner.stats.stale_entries == 1
    assert run_result_to_dict(again) == run_result_to_dict(reference)
    with open(path) as fh:
        assert fh.read() == good


@pytest.mark.parametrize("damage", ["cut short", "not an object"])
def test_a_damaged_obs_line_is_named_when_read(damage, tmp_path, capsys):
    """To a runner with no reader of ``obs``, an intact rest behind a
    damaged obs line is a hit; reading its ``obs`` raises one
    ``ValueError`` naming the entry file, obs-report skips and counts
    the entry as unreadable, and trace-diff names the path."""
    from repro.__main__ import main
    from repro.experiments import obs_report_cmd
    store = str(tmp_path / "store")
    jobs = [(observed_setup(period), 3) for period in (40, 35)]
    TrialRunner(cache_dir=store).run_jobs(jobs)
    path = ResultStore(store).path_for(trial_key(*jobs[0]))
    with open(path) as fh:
        obs, _, rest = fh.read().rpartition("\n")
    with open(path, "w") as fh:
        fh.write((obs[:len(obs) // 2] if damage == "cut short" else "[]")
                 + "\n" + rest)
    warm = TrialRunner(cache_dir=store)
    hit, other = warm.run_jobs(jobs)
    assert warm.stats.snapshot() == (0, 2) and warm.stats.stale_entries == 0
    assert other.obs
    message = f"{path}: damaged obs section ("
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            hit.obs
        assert str(err.value).startswith(message)
    assert obs_report_cmd.collect_obs_docs(store) == ([other.obs], 0, 1)
    with pytest.raises(SystemExit) as exit_info:
        main(["trace-diff", path, path])
    assert exit_info.value.code.startswith(f"trace-diff: {message}")
    assert capsys.readouterr().out == ""


def _compare_quick(capsys, *flags):
    """``compare-protocols --quick --reps 1 FLAGS``: its stdout."""
    from repro.__main__ import main
    assert main(["compare-protocols", "--quick", "--reps", "1",
                 *map(str, flags)]) == 0
    return capsys.readouterr().out


def _obs_report(capsys, store, out):
    """``obs-report --store STORE --out OUT``: its summary line."""
    from repro.__main__ import main
    assert main(["obs-report", "--store", str(store), "--out", str(out)]) == 0
    return capsys.readouterr().out.splitlines()[0]


def _table(out):
    """A command's stdout without its runner and report lines."""
    return [line for line in out.splitlines()
            if not line.startswith(("[runner]", "wrote campaign obs report"))]


def test_a_command_observes_only_when_it_has_a_reader(tmp_path, capsys):
    """Without ``--obs-report`` / ``--trace-out`` a command observes
    nothing: every entry is one object with ``obs`` null.  With one,
    every trial is observed, and obs-report aggregates every entry.
    A halved ``obs`` line read under a reader is a stale miss: the
    trial re-executes, the table is printed and the report is the
    same as the first run's."""
    plain, store = tmp_path / "plain", tmp_path / "store"
    unobserved = _compare_quick(capsys, "--cache-dir", plain)
    texts = [path.read_text() for path in sorted(plain.glob("*/*.json"))]
    assert len(texts) == 6
    assert all("\n" not in text and json.loads(text)["obs"] is None
               for text in texts)
    assert _obs_report(capsys, plain, tmp_path / "none") == \
        "aggregated 0 observed trials (skipped: 6 unobserved, " \
        "0 unreadable entries)"

    first = _compare_quick(capsys, "--cache-dir", store,
                           "--obs-report", tmp_path / "first")
    assert _table(first) == _table(unobserved)
    paths = sorted(store.glob("*/*.json"))
    assert len(paths) == 6 and all(_read_entry_doc(path)["obs"]
                                   for path in paths)
    assert _obs_report(capsys, store, tmp_path / "again") == \
        "aggregated 6 observed trials (skipped: 0 unobserved, " \
        "0 unreadable entries)"
    metrics = (tmp_path / "first" / "metrics.txt").read_text()
    assert (tmp_path / "again" / "metrics.txt").read_text() == metrics
    from repro.experiments import trace_diff_cmd
    header = trace_diff_cmd.run(str(sorted(plain.glob("*/*.json"))[0]),
                                str(paths[0]), "plain", "observed")
    plain_line, observed_line = header.splitlines()[:2]
    assert plain_line.endswith(", unobserved")
    assert "unobserved" not in observed_line

    good = paths[0].read_text()
    obs, _, rest = good.rpartition("\n")
    paths[0].write_text(obs[:len(obs) // 2] + "\n" + rest)
    second = _compare_quick(capsys, "--cache-dir", store,
                            "--obs-report", tmp_path / "second")
    assert _table(second) == _table(unobserved)
    assert "[runner] 1 executed, 5 cached" in second
    assert "1 stale cache entries re-executed" in second
    assert (tmp_path / "second" / "metrics.txt").read_text() == metrics
    assert paths[0].read_text() == good


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
