#!/usr/bin/env python
"""A tour of the FAIL language: parse, check, pretty-print, and dry-run
a state machine through the interpreter.

Run:  python examples/scenario_tour.py
"""

import random

from repro.fail import builtin_scenarios as scenarios
from repro.fail.compile import compile_scenario
from repro.fail.lang.parser import parse_fail
from repro.fail.lang.pretty import pretty_print
from repro.fail.machine import Machine

SCENARIO = """
// Inject a batch of X faults every 50 seconds (paper Fig. 7a).
Daemon ADV1 {
  int nb_crash = X;
  node 1:
    always int ran = FAIL_RANDOM(0, N);
    time g_timer = 50;
    timer -> !crash(G1[ran]), goto 2;
  node 2:
    always int ran = FAIL_RANDOM(0, N);
    ?ok && nb_crash > 1 -> !crash(G1[ran]), nb_crash = nb_crash - 1, goto 2;
    ?ok && nb_crash <= 1 -> nb_crash = X, goto 1;
    ?no -> !crash(G1[ran]), goto 2;
}
"""


class TourCtx:
    """A minimal machine context that narrates what the scenario does."""

    def __init__(self):
        self.rng = random.Random(42)

    def send_msg(self, msg, dest):
        print(f"    -> send {msg!r} to {dest}")

    def act_halt(self):
        print("    -> HALT the controlled process (inject the fault)")

    def act_stop(self):
        print("    -> STOP (suspend under the debugger)")

    def act_continue(self):
        print("    -> CONTINUE")

    def arm_timer(self, delay, gen):
        print(f"    [timer armed: fires in {delay:.0f}s]")

    def arm_breakpoints(self, funcs):
        if funcs:
            print(f"    [breakpoints armed: {', '.join(funcs)}]")


def main():
    print("1) PARSE + SEMANTIC CHECK " + "-" * 45)
    compiled = compile_scenario(SCENARIO, params={"X": 3, "N": 52})
    daemon = compiled.daemon("ADV1")
    print(f"   daemon {daemon.name!r}: {len(daemon.nodes)} nodes, "
          f"{sum(len(n.transitions) for n in daemon.nodes)} transitions")

    print()
    print("2) PRETTY-PRINT (canonical form, round-trips) " + "-" * 25)
    canonical = pretty_print(compiled.program)
    print(canonical)
    assert parse_fail(canonical) == compiled.program

    print("3) DRY-RUN THE STATE MACHINE " + "-" * 42)
    machine = Machine(daemon, compiled.params, TourCtx(), "P1")
    print("  timer expires:")
    machine.handle(("timer", machine.entry_gen))
    print("  positive ack (2 crashes left in the batch):")
    machine.handle(("msg", "ok", "G1[17]"))
    print("  negative ack (machine was empty, re-draw):")
    machine.handle(("msg", "no", "G1[4]"))
    print("  positive ack (last crash of the batch):")
    machine.handle(("msg", "ok", "G1[9]"))
    print("  positive ack: batch complete, back to the timer:")
    machine.handle(("msg", "ok", "G1[30]"))
    print(f"  machine is in node {machine.node_id} with "
          f"nb_crash={machine.vars['nb_crash']}")


if __name__ == "__main__":
    main()
