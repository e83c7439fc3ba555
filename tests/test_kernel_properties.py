"""Hypothesis invariants on the simulation kernel itself."""

from hypothesis import given, settings, strategies as st

from reference_engine import ReferenceEngine
from repro.simkernel.engine import Engine
from repro.simkernel.store import Store, StoreClosed


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), max_size=50))
@settings(max_examples=100, deadline=None)
def test_clock_is_monotone_under_any_schedule(delays):
    """Calls run in clock order and in the reference's order — where
    each call is one payload; the slotted engine batches same-instant
    calls, so it never needs more."""
    engines, logs = {}, {}
    for cls in (Engine, ReferenceEngine):
        eng = engines[cls] = cls(seed=0)
        seen = logs[cls] = []
        for i, d in enumerate(delays):
            eng.call_later(d, lambda i=i, eng=eng, seen=seen:
                           seen.append((eng.now, i)))
        eng.run()
        assert [t for t, _ in seen] == sorted(t for t, _ in seen)
    assert logs[Engine] == logs[ReferenceEngine]
    assert engines[ReferenceEngine].events_processed == len(delays)
    assert engines[Engine].events_processed <= len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30),
       cut=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_run_until_is_a_clean_partition(delays, cut):
    """Events strictly after `until` fire in the second run, none are
    lost or duplicated."""
    eng = Engine(seed=0)
    fired = []
    for i, d in enumerate(delays):
        eng.call_later(d, lambda i=i: fired.append(i))
    eng.run(until=cut)
    first_batch = set(fired)
    eng.run()
    assert sorted(fired) != [] or not delays
    assert len(fired) == len(delays)
    assert len(set(fired)) == len(delays)
    for i in first_batch:
        assert delays[i] <= cut


@given(ops=st.lists(st.sampled_from(["put", "get"]), max_size=60))
@settings(max_examples=100, deadline=None)
def test_store_conserves_items(ops):
    """Whatever interleaving of puts and gets, every item is received
    exactly once and in order."""
    eng = Engine(seed=0)
    store = Store(eng)
    got = []
    n_puts = ops.count("put")
    n_gets = ops.count("get")

    def consumer(count):
        for _ in range(count):
            try:
                got.append((yield store.get()))
            except StoreClosed:
                return

    eng.process(consumer(n_gets))
    counter = [0]
    for i, op in enumerate(ops):
        if op == "put":
            def put(c=counter):
                store.put(c[0])
                c[0] += 1
            eng.call_later(float(i), put)
    eng.run(until=1000.0)
    expected = min(n_puts, n_gets)
    assert got == list(range(expected))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_two_engines_same_seed_identical_rng_streams(seed):
    a, b = Engine(seed=seed), Engine(seed=seed)
    assert [a.random.random() for _ in range(10)] == \
        [b.random.random() for _ in range(10)]


@given(n=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_process_tree_completion(n):
    """A chain of n nested child processes completes bottom-up with the
    right return values."""
    eng = Engine(seed=0)

    def chain(depth):
        if depth == 0:
            yield eng.timeout(1.0)
            return 0
        value = yield eng.process(chain(depth - 1))
        return value + 1

    root = eng.process(chain(n))
    eng.run()
    assert root.result == n
    assert eng.now == 1.0
