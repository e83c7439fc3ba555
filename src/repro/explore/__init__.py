"""``repro.explore`` — property-based fault-space exploration.

The paper demonstrates six hand-written fault scenarios; this
subsystem *generates* adversaries, checks every run against recovery
oracles, and shrinks failures to minimal reproducers:

* :mod:`repro.explore.generators` — seeded scenario families compiled
  to FAIL source through :mod:`repro.fail.build`;
* :mod:`repro.explore.oracles` — per-trial correctness checks against
  a fault-free golden run plus per-protocol invariants;
* :mod:`repro.explore.campaign` — the protocol × workload × generator
  sweep through the cached parallel :class:`TrialRunner`
  (``python -m repro explore``);
* :mod:`repro.explore.shrink` — delta-debugging of failing fault
  plans down to minimal ``.fail`` scenarios.
"""
