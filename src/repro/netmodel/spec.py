"""Topology specification and the network's calibration.

:data:`DEFAULT_LATENCY` and :data:`DEFAULT_BANDWIDTH` are the fixed
host-to-host parameters of the simulated testbed's network; the
:class:`~repro.cluster.network.Network` and
:class:`~repro.cluster.cluster.Cluster` defaults and the fabric models
read them from here (regression-tested in ``tests/test_netmodel.py``).

A :class:`TopologySpec` names a fabric model from the table in
:mod:`repro.netmodel.fabric` plus its shape; it is a frozen dataclass
so it hashes into trial cache keys like every other
:class:`~repro.experiments.harness.TrialSetup` ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_LATENCY = 1e-4          # 100 us — GigE-ish
DEFAULT_BANDWIDTH = 100e6       # 100 MB/s effective GigE payload rate


@dataclass(frozen=True)
class TopologySpec:
    """One fabric model plus its shape.

    The links themselves are the network's: every access link runs at
    the network's latency and bandwidth, and a switch traversal adds
    :data:`repro.netmodel.fabric.SWITCH_LATENCY`.
    """

    #: fabric model name, resolved in :data:`repro.netmodel.fabric.FABRICS`
    #: ("uniform", "star" or "twotier")
    model: str = "uniform"
    #: twotier only: hosts per rack (assigned in node-creation order)
    rack_size: int = 8
    #: twotier only: rack uplink oversubscription — the shared core
    #: link carries ``bandwidth * rack_size / oversubscription``
    oversubscription: float = 4.0

    def __post_init__(self) -> None:
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
