"""Smoke + shape tests for the ``net-sensitivity`` experiment."""

import pytest

from repro.experiments import net_sensitivity
from repro.experiments.runner import TrialRunner
from repro.netmodel.spec import TopologySpec


def test_topology_grid_shape():
    grid = net_sensitivity.topology_grid(oversubs=(2.0, 8.0))
    labels = [label for label, _spec in grid]
    assert labels == ["uniform", "star", "twotier/o2", "twotier/o8"]
    assert all(isinstance(spec, TopologySpec) for _l, spec in grid)


@pytest.mark.slow
def test_net_sensitivity_quick_sweep_reports_traffic(tmp_path):
    result = net_sensitivity.run_experiment(
        reps=1, protocol_names=("vcl",), oversubs=(4.0,),
        runner=TrialRunner(cache_dir=str(tmp_path)))
    assert [row.label for row in result.rows] == [
        "vcl/uniform", "vcl/star", "vcl/twotier/o4"]
    for row in result.rows:
        assert row.n == 1
        assert row.pct_terminated == 100.0
        assert row.mean_net_bytes > 0
    # uniform has no per-link accounting: no hot spot, not a 100 %
    # "fabric" pseudo-link (the misleading row this regression pins)
    assert result.row("vcl/uniform").hotspot_link is None
    assert result.row("vcl/uniform").hotspot_share == 0.0
    # non-uniform fabrics name a concrete link as the hot spot
    for label in ("vcl/star", "vcl/twotier/o4"):
        assert "/" in result.row(label).hotspot_link
        assert 0.0 < result.row(label).hotspot_share <= 1.0
    # summaries are JSON-shaped and complete; the uniform row carries
    # null hot-spot columns in the BENCH document
    rows = net_sensitivity.summarize(result)
    assert {r["label"] for r in rows} == {row.label for row in result.rows}
    assert all(r["mean_net_mb"] > 0 for r in rows)
    by_label = {r["label"]: r for r in rows}
    assert by_label["vcl/uniform"]["hotspot_link"] is None
    assert by_label["vcl/uniform"]["hotspot_share"] is None
    assert by_label["vcl/star"]["hotspot_share"] > 0.0
    text = net_sensitivity.render_hotspots(result)
    assert "fabric hot spots" in text and "vcl/star" in text
    # a warm cache re-run is free and identical
    rerun = net_sensitivity.run_experiment(
        reps=1, protocol_names=("vcl",), oversubs=(4.0,),
        runner=TrialRunner(cache_dir=str(tmp_path)))
    assert net_sensitivity.summarize(rerun) == rows
