"""The paper's figure shapes at quick scale, one test per figure.

Each is its spec's ``expect`` through the shared ``figure_shape``
fixture, so it shares its run with ``test_figure_shape[<figure>]``.
"""

import pytest

from repro.experiments import (fig5_frequency, fig7_simultaneous,
                               fig9_synchronized, fig11_state_sync)


@pytest.mark.slow
def test_fig5_shape_frequency_kills_progress(figure_shape):
    figure_shape(fig5_frequency.SPEC)


@pytest.mark.slow
def test_fig7_shape_bug_needs_overlapping_faults(figure_shape):
    figure_shape(fig7_simultaneous.SPEC)


@pytest.mark.slow
def test_fig9_shape_recovery_synchronized_faults_race(figure_shape):
    figure_shape(fig9_synchronized.SPEC)


@pytest.mark.slow
def test_fig11_shape_state_synchronized_always_freezes(figure_shape):
    figure_shape(fig11_state_sync.SPEC)
    figure_shape(fig11_state_sync.SPEC, ablated=True)
