"""No message or syntax node is changed after it is built.

The wire messages, :class:`~repro.mpi.message.AppMessage`, the FAIL
syntax nodes and the lexer's tokens are plain dataclasses: a frozen
``__init__`` costs four to seven times a plain one, and a trial builds
tens of thousands of these.  Two things still rely on them never
changing: :func:`repro.mpichv.checkpoint.snapshot` shares an
``AppMessage`` between a live state and its images, and a flood hands
one object to every receiver.  This audit holds that rule: every
dataclass the four modules define (found by introspection, so a new
message type is audited with no edit here) gets a write-once
``__setattr__`` / ``__delattr__`` — ``__init__`` assigns each field
once, any later assignment or delete raises — and representative
trials must run exactly as they do unaudited.

A raise inside a simulated daemon thread does not reach the test: the
engine swallows it into ``process_failures`` and the trace records a
``thread_crashed``.  So each case checks for that record, and that its
result document equals the unaudited run's.  The causal context
(``_causal_ctx``) is written straight into the instance ``__dict__``
by :func:`repro.obs.causal.stamp` / ``adopt`` and is not a field.
"""

import dataclasses
import importlib

import pytest

from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import run_result_to_dict
from repro.explore import campaign, generators

AUDITED_MODULES = ("repro.mpichv.wire", "repro.mpi.message",
                   "repro.fail.lang.ast", "repro.fail.lang.lexer")


def audited_classes():
    """Every dataclass defined (not imported) by the audited modules."""
    found = []
    for name in AUDITED_MODULES:
        module = importlib.import_module(name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == name]
    return found


class MutatedAfterInit(AttributeError):
    pass


def _write_once_setattr(self, name, value):
    if name in self.__dict__ or name not in self.__dataclass_fields__:
        raise MutatedAfterInit(
            f"{type(self).__name__}.{name} assigned after construction")
    object.__setattr__(self, name, value)


def _no_delattr(self, name):
    raise MutatedAfterInit(f"{type(self).__name__}.{name} deleted")


@pytest.fixture
def audited(monkeypatch):
    for cls in audited_classes():
        monkeypatch.setattr(cls, "__setattr__", _write_once_setattr)
        monkeypatch.setattr(cls, "__delattr__", _no_delattr)


def _ring(protocol, **overrides):
    """An 8-rank ring whose rank 5 is killed at t=45 and restarted."""
    plan = (generators.TimedKill(at=45, target=5),)
    return TrialSetup(
        n_procs=8, n_machines=12, workload="ring", niters=40,
        total_compute=3520.0, footprint=1e8, timeout=600.0,
        scenario_source=generators.render_plan(plan),
        master_daemon=generators.MASTER, node_daemon=generators.NODE_DAEMON,
        protocol=protocol, config_overrides=overrides)


def _quick_bt(protocol):
    """compare-protocols' quick trial: BT-4 under the 1/25 s fault loop."""
    from repro.experiments.compare_protocols import setup_for
    return setup_for((protocol, 25), n_procs=4, n_machines=6, niters=10,
                     total_compute=180.0, footprint=1e8)


_EXPLORE = campaign.quick_config(seed=7)
_PROTOCOLS = _EXPLORE.resolved_protocols()


def _generated(index, family):
    """Plan 0 of one generator family, on the protocols in turn."""
    scenario = generators.generate(family, 0, _EXPLORE.seed,
                                   _EXPLORE.generator_context())
    return campaign.trial_setup(_EXPLORE, "ring",
                                _PROTOCOLS[index % len(_PROTOCOLS)],
                                source=scenario.source,
                                n_machines=scenario.n_machines)


CASES = {
    **{f"ring8-{p}": (lambda p=p: _ring(p)) for p in ("vcl", "v2", "v1")},
    "ring8-vcl-blocking": lambda: _ring("vcl", blocking=True),
    **{f"bt4-{p}": (lambda p=p: _quick_bt(p)) for p in ("vcl", "v2", "v1")},
    **{f"explore-{family}": (lambda i=i, family=family: _generated(i, family))
       for i, family in enumerate(sorted(generators.FAMILIES))},
}


def test_every_message_and_node_type_is_audited():
    names = {cls.__name__ for cls in audited_classes()}
    assert {"AppMessage", "DataMsg", "V2GcNote", "CMPut", "Token",
            "Program", "PartitionAction"} <= names
    assert len(names) >= 62


def test_an_audited_message_refuses_a_second_write(audited):
    from repro.mpichv import wire
    from repro.obs.causal import adopt

    note = wire.V2GcNote(rank=1, upto=4)
    with pytest.raises(MutatedAfterInit):
        note.upto = 0
    with pytest.raises(MutatedAfterInit):
        note.extra = 1
    with pytest.raises(MutatedAfterInit):
        del note.rank
    carrier = wire.V2GcNote(rank=2, upto=0)
    carrier.__dict__["_causal_ctx"] = 3
    adopt(note, carrier)                 # the context is not a field
    assert note == wire.V2GcNote(rank=1, upto=4)
    assert note._causal_ctx == 3


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_trial_never_changes_a_built_message(case, request):
    setup = dataclasses.replace(CASES[case](), observe=True)
    plain = setup.run_one(seed=3)
    request.getfixturevalue("audited")
    audited_result = setup.run_one(seed=3)
    assert audited_result.trace.of_kind("thread_crashed") == []
    assert run_result_to_dict(audited_result) == run_result_to_dict(plain)
    assert plain.restarts or case.startswith("explore-")
