"""repro.netmodel — pluggable network topologies for the simulated cluster.

The subsystem has two halves:

* :mod:`repro.netmodel.spec` — :class:`TopologySpec` (per-deployment
  topology configuration; hashes into trial cache keys) and the
  network default constants every other layer imports;
* :mod:`repro.netmodel.fabric` — the :class:`FabricModel` registry and
  the built-in ``uniform`` / ``star`` / ``twotier`` models with
  per-link counters.

Runtime-mutable link state (``cut_link`` / ``partition`` / ``heal``)
lives on :class:`repro.cluster.network.Network`, which owns the live
connections a cut must sever; the fabric only shapes delivery times.
"""
