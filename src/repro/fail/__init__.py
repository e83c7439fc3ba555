"""FAIL-MPI: the FAIL fault-injection language and the FCI platform.

This is the paper's contribution.  The package splits like the real
system:

* :mod:`repro.fail.lang` — the FAIL language: lexer, parser, AST,
  semantic checks and pretty-printer;
* :mod:`repro.fail.compile` — the "FCI compiler": FAIL source →
  checked daemon definitions and their bindings (the paper emits C++
  per machine; here every instance interprets its definition);
* :mod:`repro.fail.machine` — the state-machine interpreter, the one
  semantics of the language and the only run-time reader of a
  scenario's AST;
* :mod:`repro.fail.daemon` — the FAIL-MPI daemon controlling the
  application process of its machine through the debugger interface;
* :mod:`repro.fail.bus` — inter-daemon messaging;
* :mod:`repro.fail.debugger` — the GDB-like control surface
  (halt / stop / continue / breakpoints);
* :mod:`repro.fail.scenario` — the user-facing API: parse, bind
  daemons to machines/groups, deploy onto a runtime;
* :mod:`repro.fail.builtin_scenarios` — the paper's Figs. 4, 5a, 7a,
  8a/8b and 10a/10b transcribed in FAIL.
"""
