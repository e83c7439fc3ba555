"""repro.netmodel — pluggable network topologies for the simulated cluster.

The subsystem has two halves:

* :mod:`repro.netmodel.spec` — :class:`TopologySpec` (per-deployment
  topology configuration; hashes into trial cache keys) and the
  network default constants every other layer imports;
* :mod:`repro.netmodel.fabric` — the :data:`FABRICS` table of the
  ``uniform`` / ``star`` / ``twotier`` fabric models (subclasses of
  :class:`FabricModel`), with per-link counters.

Runtime-mutable reachability (``isolate`` / ``heal``) lives on
:class:`repro.cluster.network.Network`, which owns the live
connections a partition must sever; the fabric only shapes delivery
times.
"""
