"""Experiment drivers: one module per table/figure of the paper.

* :mod:`repro.experiments.harness` — run/aggregate machinery shared by
  all experiments (timeout, repetition, outcome percentages);
* :mod:`repro.experiments.runner` — parallel trial execution
  (:class:`TrialRunner`) with an on-disk result cache;
* :mod:`repro.experiments.resultstore` — JSON round-trip and storage
  of per-trial results;
* :mod:`repro.experiments.spec` — :class:`ExperimentSpec` and the one
  CLI that runs every figure, table and sweep command;
* :mod:`repro.experiments.fig5_frequency` — impact of fault frequency;
* :mod:`repro.experiments.fig6_scale` — impact of scale;
* :mod:`repro.experiments.fig7_simultaneous` — simultaneous faults;
* :mod:`repro.experiments.fig9_synchronized` — faults synchronized on
  the recovery wave (onload counting);
* :mod:`repro.experiments.fig11_state_sync` — faults synchronized on
  MPI state (breakpoint at ``localMPI_setCommand``);
* :mod:`repro.experiments.table1_tools` — the §2.1 qualitative
  criteria matrix;
* :mod:`repro.experiments.net_sensitivity` — protocol × topology ×
  oversubscription sweep over the :mod:`repro.netmodel` fabrics;
* :mod:`repro.experiments.scale_sweep` — protocol × ranks (up to 512)
  × checkpoint-server shards, past the paper's Fig. 6 range.

Every driver module exposes ``run_experiment(...)``, whose defaults
are the paper's scale, and a ``SPEC``: its command's flags, quick
scale, printed blocks and the figure's expected shape (``expect``),
which the tests check at both scales.
"""
