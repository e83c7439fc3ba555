"""Unit tests for the restartable allreduce, over an in-sim router.

Rather than mocking, we run N endpoints over a shared router that
models instantaneous delivery — the collective's logic (progress counters,
dedup, role split) is what's under test here; transport timing is
covered elsewhere.
"""

import pytest

from repro.mpi import collectives as coll
from repro.mpi.endpoint import MpiEndpoint
from repro.simkernel.engine import Engine


class Router:
    """In-memory mesh honouring the state-buffer delivery contract."""

    def __init__(self, engine, n):
        from repro.mpi.endpoint import LocalDelivery
        self.states = [{} for _ in range(n)]
        self.deliveries = [LocalDelivery(engine, st) for st in self.states]

    def port(self, rank):
        router = self

        class _Port:
            def app_send(self, msg):
                router.deliveries[msg.dst].deliver(msg)

            def app_inbox_get(self):
                return router.deliveries[rank].doorbell()

            def app_done(self):
                pass

        return _Port()


def run_ranks(n, body, seed=0):
    """Run body(ep) on every rank; returns list of results."""
    engine = Engine(seed=seed)
    router = Router(engine, n)
    procs = []
    for rank in range(n):
        ep = MpiEndpoint(rank, n, router.states[rank], router.port(rank),
                         engine)
        procs.append(engine.process(body(ep), name=f"rank{rank}"))
    engine.run()
    for p in procs:
        assert p.state == "done", (p.name, p.error)
    return [p.result for p in procs]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_reduce_bcast_sums_everywhere(n):
    def body(ep):
        result = yield from coll.reduce_bcast(ep, "r", ep.rank + 1)
        return result

    expected = sum(range(1, n + 1))
    assert run_ranks(n, body) == [expected] * n


def test_reduce_bcast_custom_op():
    def body(ep):
        result = yield from coll.reduce_bcast(ep, "r", ep.rank, op=max)
        return result

    assert run_ranks(4, body) == [3, 3, 3, 3]


def test_reduce_bcast_idempotent_when_done():
    def body(ep):
        first = yield from coll.reduce_bcast(ep, "r", ep.rank)
        second = yield from coll.reduce_bcast(ep, "r", ep.rank)
        return (first, second)

    for first, second in run_ranks(3, body):
        assert first == second == 3
