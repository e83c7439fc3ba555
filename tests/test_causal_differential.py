"""The causal recorder against the one it replaced.

``tests/reference_causal.py`` is the string-context recorder, one
``on_transmit`` call per transmitted copy, kept verbatim.  Hypothesis
drives it and :class:`repro.obs.causal.CausalGraph` — integer contexts,
rows written by the send loop, one ``on_send`` per send — with the same
random stream of mints, envelopes and sends, and the two must agree on
every column (``tests/causal_view.columns_of``), the first drop and the
``causal`` document over random recovery windows.

The streams hold what the recorder's rules turn on: mints with and
without a cause, causes that are never sent (or are sent only after
what they caused), envelopes that re-send a context after later rows,
floods of 1-130 copies, and a small cap crossed inside a flood.
"""

import json
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.obs import causal
import reference_causal as reference
from causal_view import Msg, columns_of, send

SITES = ("r0", "r1", "disp", "sched", "cm0")
HOSTS = ("m0", "m1", "m2", "m3", "svc0", "svc1")
#: attributed kinds of several categories, plus one that is not
KINDS = ("DataMsg", "Marker", "FetchReq", "Register", "Hello", "Oddity")

#: a message minted or wrapped earlier, counted back from the newest
#: (mostly a recent one, so causes and effects interleave)
refs = st.integers(0, 1) | st.integers(0, 10 ** 6)
#: one step of a stream
mints = st.tuples(st.just("mint"), st.sampled_from(SITES), st.none() | refs)
adopts = st.tuples(st.just("adopt"), refs)
sends = st.tuples(
    st.just("send"), refs, st.sampled_from(KINDS),
    st.sampled_from(HOSTS),
    st.lists(st.tuples(st.sampled_from(HOSTS),
                       st.floats(0.0, 3.0, allow_nan=False)),
             min_size=1, max_size=130)
    | st.lists(st.tuples(st.sampled_from(HOSTS), st.sampled_from((0.25, 1.0))),
               min_size=1, max_size=3))
ticks = st.tuples(st.just("tick"), st.sampled_from((0.0, 0.5, 1.0, 2.5)))
streams = st.lists(st.one_of(mints, adopts, sends, ticks), max_size=60)
windows = st.lists(st.tuples(st.floats(0.0, 40.0, allow_nan=False),
                             st.floats(0.0, 6.0, allow_nan=False)),
                   max_size=4)
caps = st.sampled_from((0, 1, 2, 7, 40, 151, causal.MAX_CAUSAL_NODES))


def replay(stream, max_nodes):
    """Both recorders after ``stream``: ``(reference, graph)``."""
    old = reference.CausalGraph(max_nodes=max_nodes)
    new = causal.CausalGraph(max_nodes=max_nodes)
    clock = SimpleNamespace(t=0.0)
    engines = [SimpleNamespace(obs=SimpleNamespace(causal=g), now=0.0)
               for g in (old, new)]
    #: one message per recorder for everything minted or wrapped
    messages = []
    for step in stream:
        for engine in engines:
            engine.now = clock.t
        if step[0] == "tick":
            clock.t += step[1]
        elif step[0] == "mint":
            _op, site, cause = step
            pair = (Msg(), Msg())
            if cause is None or not messages:
                reference.stamp(engines[0], pair[0], site)
                causal.stamp(engines[1], pair[1], site)
            else:
                old_cause, new_cause = messages[~(cause % len(messages))]
                reference.derive(engines[0], pair[0], site, old_cause)
                causal.derive(engines[1], pair[1], site, new_cause)
            messages.append(pair)
        elif messages:
            original = messages[~(step[1] % len(messages))]
            if step[0] == "adopt":
                pair = (Msg(), Msg())
                reference.adopt(pair[0], original[0])
                causal.adopt(pair[1], original[1])
                messages.append(pair)
                continue
            _op, _which, kind, src, hops = step
            arrivals = [(dst, clock.t + delay) for dst, delay in hops]
            for dst, t_recv in arrivals:
                old.on_transmit(reference.ctx_of(original[0]), kind, src,
                                dst, clock.t, t_recv, 0)
            send(new, causal.ctx_of(original[1]), kind, src, clock.t,
                 arrivals)
    return old, new


@settings(max_examples=300, deadline=None)
@given(stream=streams, max_nodes=caps, spans=windows)
def test_recorder_equals_the_reference(stream, max_nodes, spans):
    old, new = replay(stream, max_nodes)
    assert columns_of(new) == columns_of(old)
    assert new.first_drop_t == old.first_drop_t
    bounds = [(t0, t0 + length) for t0, length in spans]
    doc = new.to_doc(bounds)
    assert doc == old.to_doc(bounds)
    assert json.dumps(doc) == json.dumps(old.to_doc(bounds))


def test_streams_reach_the_rules():
    """Examples the property must cover, spelled out: a cause sent only
    after what it caused, an envelope re-sent after later rows, and the
    cap crossed inside a flood."""
    late_cause = [("mint", "r0", None), ("mint", "r1", 0),
                  ("send", 0, "DataMsg", "m0", [("m1", 1.0)]),
                  ("send", 1, "Marker", "m1", [("m2", 1.0)]),
                  ("adopt", 1), ("tick", 1.0),
                  ("send", 2, "Hello", "m2", [("m3", 0.25)]),
                  ("send", 0, "FetchReq", "m2", [("m3", 0.25)] * 2)]
    old, new = replay(late_cause, causal.MAX_CAUSAL_NODES)
    assert new.parent == [-1, -1, -1, -1, -1]
    assert new.tid[-3:] == ["r0.1.0#1", "r0.1.0#2", "r0.1.0#3"]
    assert new.dropped_edges == 1
    flood = [("mint", "sched", None),
             ("send", 0, "Marker", "svc0", [("m0", 1.0)] * 130)]
    old, new = replay(flood, 151)
    assert (len(new.tid), new.dropped_nodes) == (75, 110)
    assert columns_of(new) == columns_of(old)
