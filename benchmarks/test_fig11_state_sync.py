"""Fig. 11 — state-synchronized faults: ``fig11_state_sync.SPEC.expect``
at quick scale, or at the paper's scale under ``REPRO_FULL=1``."""

from repro.experiments import fig11_state_sync


def test_fig11_state_sync(figure_shape):
    figure_shape(fig11_state_sync.SPEC)
