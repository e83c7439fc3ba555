"""Fig. 5 — impact of fault frequency: ``fig5_frequency.SPEC.expect``
at quick scale, or at the paper's scale under ``REPRO_FULL=1``."""

from repro.experiments import fig5_frequency


def test_fig5_frequency(figure_shape):
    figure_shape(fig5_frequency.SPEC)
