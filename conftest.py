"""The figure-shape check, shared by ``tests/`` and ``benchmarks/``.

``figure_shape(spec, ablated=False)`` runs a spec's ``run_experiment``
at its quick scale — at the paper's scale under ``REPRO_FULL=1`` —
with the spec's ablation laid over it if ``ablated``, and checks the
result with the spec's ``expect``.  Each run is made once per session,
so the tests that check one figure under different names share it.
"""

import os

import pytest

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def figure_shape():
    results = {}

    def check(spec, ablated=False):
        # run_experiment's defaults are the paper's scale
        kwargs = {**({} if FULL else spec.quick),
                  **(spec.ablation if ablated else {})}
        key = (spec.name, ablated)
        if key not in results:
            results[key] = spec.run(**kwargs)
        spec.expect(results[key], spec.resolve(kwargs))

    return check
