"""repro.obs — deterministic, sim-time observability.

Two recording pieces and their exporters, all pure functions of the
simulated history (never of the wall clock or the worker pool):

* :mod:`repro.obs.spans` — nested ``[t0, t1)`` intervals, kept as the
  ``[t0, t1, kind, lane, fields]`` rows the document ships, opened
  through :meth:`repro.simkernel.engine.Engine.span` and closed through
  :meth:`~repro.simkernel.engine.Engine.end` at protocol call sites
  (dispatcher, daemon lifecycle, checkpoint servers, channel memories,
  the network fault API), so a restart epoch decomposes into
  ``detect → relaunch → restore → replay → catchup`` and a checkpoint
  wave into ``initiate → transfer → commit``;
* :mod:`repro.obs.causal` — the causal message-tracing graph: every
  minted wire message carries an integer context (its mint's index;
  site, instant and parent are recorded once per mint), and the
  network's send loops append the bounded per-trial transmission table
  — a row per copy, one recorder call per send — whose folds (totals,
  per-kind rollup, per-epoch attribution and chain) ship in the
  document and feed :mod:`repro.analysis.critpath`;
* exporters — :mod:`repro.obs.chrometrace` (Chrome-trace / Perfetto
  JSON, one lane per host, plus critical-path flow events),
  :mod:`repro.obs.phases` (the per-epoch phase table behind ``python
  -m repro timeline --phases``) and :mod:`repro.obs.report` (the
  campaign-level OpenMetrics + HTML rollup).

The wire form is the compact ``obs`` document on
:class:`repro.mpichv.runtime.RunResult`: span rows, metrics and the
causal folds, identical byte-for-byte across serial / pooled / cached
execution.  The ``metrics`` section (counters, gauges and log-bucketed
histograms, the ``hit_bucket`` idiom of :mod:`repro.analysis.coverage`)
is no recorder of its own: the runtime folds it at the end of the run
(:meth:`repro.mpichv.runtime.VclRuntime._finalize_obs`) from the
dispatcher's coverage-probe hit counts, the checkpoint servers'
disk-wait histograms and the channel memories' counters.  The document
rides in the result document and shares its one version number
(:data:`repro.experiments.resultstore.FORMAT_VERSION`).
"""
