"""Compile → codegen → exec round-trip (satellite of the explore PR).

For every builtin paper scenario *and* every generated explorer
scenario, the Python source :mod:`repro.fail.codegen` emits must build
a machine behaviorally identical to the directly compiled one: same
node trajectory, same variables, same outputs, for the same randomized
event sequences.  The generators lean on this path (their scenarios
are rendered text compiled twice), so the equivalence is load-bearing,
not just documentation.
"""

import random

from repro.explore import generators
from repro.fail import builtin_scenarios as scenarios
from repro.fail.lang import ast
from repro.fail.lang.parser import parse_fail
from repro.fail.machine import Machine

from test_fail_codegen import compile_handler
from test_fail_machine import FakeCtx

BUILTINS = {
    "fig4": scenarios.FIG4_NODE_DAEMON,
    "fig5a": scenarios.FIG5A_MASTER,
    "fig7a": scenarios.FIG7A_MASTER,
    "fig8a": scenarios.FIG8A_MASTER,
    "fig8b": scenarios.FIG8B_NODE_DAEMON,
    "fig10a": scenarios.FIG10A_MASTER,
    "fig10b": scenarios.FIG10B_NODE_DAEMON,
}

PARAMS = {"X": 3, "N": 5}


def event_alphabet(daemon: ast.DaemonDef):
    """Every event kind the daemon could conceivably receive."""
    events = [("onload", None), ("onexit", None), ("onerror", None),
              ("timer", None), ("msg", "bogus")]
    for node in daemon.nodes:
        for tr in node.transitions:
            if isinstance(tr.trigger, ast.MsgTrigger):
                events.append(("msg", tr.trigger.name))
            elif isinstance(tr.trigger, ast.Before):
                events.append(("before", tr.trigger.func))
    # deterministic order regardless of set/dict iteration
    return sorted(set(events), key=repr)


def drive_both(source: str, label: str, seed: int, steps: int = 60):
    """Same event script into interpreter and generated code; states
    and outputs must agree after every single event."""
    prog = parse_fail(source)
    daemon = prog.daemons[0]
    interp_ctx = FakeCtx(seed=seed)
    interp = Machine(daemon, PARAMS, interp_ctx, "T")
    gen, gen_ctx = compile_handler(source, params=PARAMS, seed=seed)
    assert gen.node == interp.node_id, f"{label}: initial node differs"

    alphabet = event_alphabet(daemon)
    declared = [v.name for v in daemon.variables]
    script_rng = random.Random(f"codegen-roundtrip:{label}:{seed}")
    for step in range(steps):
        kind, arg = alphabet[script_rng.randrange(len(alphabet))]
        where = f"{label} step {step}: {kind}({arg})"
        if kind == "msg":
            fired = interp.handle((kind, arg, "P1"))
            gen_fired = gen.handle(kind, arg, "P1")
        elif kind == "before":
            fired = interp.handle((kind, arg))
            gen_fired = gen.handle(kind, arg)
        elif kind == "timer":
            # deliver a *fresh* timer tick (the staleness filter is
            # interpreter plumbing the generated class does not carry)
            fired = interp.handle((kind, interp.entry_gen))
            gen_fired = gen.handle(kind)
        else:
            fired = interp.handle((kind,))
            gen_fired = gen.handle(kind)
        assert fired == gen_fired, where
        assert gen.node == interp.node_id, where
        # the generated class folds PARAMS into vars; compare the
        # daemon-declared variables, which is where behaviour lives
        assert {k: gen.vars[k] for k in declared} == interp.vars, where
        assert gen.always_vars == interp.always_vars, where
        assert gen_ctx.sent == interp_ctx.sent, where
        assert gen_ctx.halted == interp_ctx.halted, where
        assert gen_ctx.stopped == interp_ctx.stopped, where
        assert gen_ctx.continued == interp_ctx.continued, where
        assert gen_ctx.partitions == interp_ctx.partitions, where
        assert gen_ctx.healed == interp_ctx.healed, where
        assert gen_ctx.timers == [d for d, _gen in interp_ctx.timers], where


def test_builtin_scenarios_roundtrip():
    for label, source in BUILTINS.items():
        for seed in (0, 1, 2):
            drive_both(source, label, seed)


def test_generated_scenarios_roundtrip():
    """Both daemons of every generated family behave identically when
    compiled directly and through the codegen path."""
    from repro.fail import build as fb

    ctx = generators.GeneratorContext(n_machines=6, n_busy=4)
    for family in generators.FAMILIES:
        scenario = generators.generate(family, 0, 11, ctx)
        prog = parse_fail(scenario.source)
        for daemon in prog.daemons:
            # drive each daemon in isolation: re-render just its text
            source = fb.render(fb.program(daemon))
            drive_both(source, f"{family}:{daemon.name}", seed=3)
