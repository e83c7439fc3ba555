"""Topology specification — the single source of truth for network
defaults.

:data:`DEFAULT_LATENCY` and :data:`DEFAULT_BANDWIDTH` used to be
duplicated between :mod:`repro.cluster.network` and the
``net_latency`` / ``net_bandwidth`` defaults of
:class:`repro.mpichv.config.TimingModel`; both now import from here
(regression-tested in ``tests/test_netmodel.py``).

A :class:`TopologySpec` names a fabric model from the registry in
:mod:`repro.netmodel.fabric` plus its knobs; it is a frozen dataclass
so it hashes into trial cache keys like every other
:class:`~repro.experiments.harness.TrialSetup` ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_LATENCY = 1e-4          # 100 us — GigE-ish
DEFAULT_BANDWIDTH = 100e6       # 100 MB/s effective GigE payload rate


@dataclass(frozen=True)
class TopologySpec:
    """One fabric model plus its parameters.

    ``latency``/``bandwidth`` of ``None`` inherit the deployment's
    network defaults (:class:`~repro.mpichv.config.TimingModel`
    ``net_latency``/``net_bandwidth``), so a bare
    ``TopologySpec("star")`` reshapes the fabric without recalibrating
    it.
    """

    #: fabric model name, resolved in :data:`repro.netmodel.fabric.FABRICS`
    #: ("uniform", "star" or "twotier")
    model: str = "uniform"
    #: base one-way host-to-host latency (None -> deployment default)
    latency: Optional[float] = None
    #: per-host access-link bandwidth (None -> deployment default)
    bandwidth: Optional[float] = None
    #: forwarding delay added once per switch traversal (star/twotier)
    switch_latency: float = 5e-6
    #: star only: per-node uplink into the shared switch
    #: (None -> ``bandwidth``); lowering it models uplink contention
    uplink_bandwidth: Optional[float] = None
    #: twotier only: hosts per rack (assigned in node-creation order)
    rack_size: int = 8
    #: twotier only: rack uplink oversubscription — the shared core
    #: link carries ``bandwidth * rack_size / oversubscription``
    oversubscription: float = 4.0
    #: twotier only: extra one-way latency of the inter-rack core
    #: (None -> same as ``latency``)
    core_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency is not None and self.latency < 0:
            raise ValueError("topology latency must be >= 0")
        for name in ("bandwidth", "uplink_bandwidth"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"topology {name} must be > 0")
        if self.rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if self.oversubscription <= 0:
            raise ValueError("oversubscription must be > 0")

    @classmethod
    def coerce(cls, value) -> "TopologySpec":
        """Accept a spec, a bare model name, a knob dict, or ``None``.

        This is what lets ``--override topology=star`` (a string from
        the CLI) and ``config_overrides={"topology": {...}}`` both
        reach :class:`~repro.mpichv.config.VclConfig` unharmed.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(model=value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot build a TopologySpec from {value!r}")
