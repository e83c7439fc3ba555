"""Fig. 7 — impact of simultaneous faults: ``fig7_simultaneous.SPEC.expect``
at quick scale, or at the paper's scale under ``REPRO_FULL=1``."""

from repro.experiments import fig7_simultaneous


def test_fig7_simultaneous(figure_shape):
    figure_shape(fig7_simultaneous.SPEC)
