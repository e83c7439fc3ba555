"""Fig. 9 — synchronized faults: ``fig9_synchronized.SPEC.expect`` at
quick scale, or at the paper's scale under ``REPRO_FULL=1``."""

from repro.experiments import fig9_synchronized


def test_fig9_synchronized(figure_shape):
    figure_shape(fig9_synchronized.SPEC)
