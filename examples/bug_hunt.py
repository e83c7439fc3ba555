#!/usr/bin/env python
"""Bug hunting with FAIL-MPI — replaying §5.3 of the paper.

The paper's narrative, compressed into one script:

Step 1 (Fig. 7): hammer BT with batches of simultaneous faults.  At 5
        faults per batch a third of the runs freeze — something is
        wrong, but the trigger is unclear.

Step 2 (Fig. 8/9): synchronize fault #2 with the *recovery wave* by
        counting onload events per machine.  Some runs freeze with
        only two faults: the bug lives in recovery, not in scale.

Step 3 (Fig. 10/11): synchronize fault #2 with the *MPI state* — a
        breakpoint just before ``localMPI_setCommand``, i.e. right
        after the restarted daemon registered with the dispatcher.
        Every run freezes: the bug is pinned.  A failure of an
        already-recovered process, detected while old-wave processes
        are still terminating, confuses the dispatcher and one node is
        never relaunched.

Step 4 (the fix): flip ``bug_compat=False`` (epoch-tagged closures) and
        the Step-3 scenario terminates every time.

Run:  python examples/bug_hunt.py          (reduced scale: 6.1-6.6 s wall
      on a 2-vCPU Intel Xeon guest, Python 3.11.7, --workers 1)
      add --workers N to fan the repetitions over N processes
"""

import argparse

from repro.experiments import (fig7_simultaneous, fig9_synchronized,
                               fig11_state_sync)
from repro.experiments.runner import add_runner_arguments, runner_from_args

# Reduced scale so the whole hunt replays in seconds: BT-16 with a
# shorter compute budget (wave duration — the quantity that matters —
# is footprint-bound and stays at its class-B value).
QUICK = dict(niters=40, total_compute=2400.0)
SCALE = dict(n_procs=16, n_machines=20)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    add_runner_arguments(parser)
    runner = runner_from_args(parser.parse_args())
    print(__doc__)

    print("=" * 72)
    print("STEP 1 — simultaneous faults (Fig. 7 shape)")
    print("=" * 72, flush=True)
    r7 = fig7_simultaneous.run_experiment(reps=4, batches=(1, 5),
                                          runner=runner, **SCALE, **QUICK)
    print(r7.render())
    print()

    print("=" * 72)
    print("STEP 2 — faults synchronized on the recovery wave (Fig. 9 shape)")
    print("=" * 72, flush=True)
    r9 = fig9_synchronized.run_experiment(reps=6, scales=(16,),
                                          include_baseline=False,
                                          runner=runner, **QUICK)
    print(r9.render())
    print()

    print("=" * 72)
    print("STEP 3 — faults synchronized on MPI state (Fig. 11 shape)")
    print("=" * 72, flush=True)
    r11 = fig11_state_sync.run_experiment(reps=4, scales=(16,),
                                          include_baseline=False,
                                          runner=runner, **QUICK)
    print(r11.render())
    assert r11.rows[0].pct_buggy == 100.0
    print()
    print("100% of runs froze: the bug is located at the registration "
          "boundary of the recovery wave.")
    print()

    print("=" * 72)
    print("STEP 4 — the fix (epoch-tagged closure attribution)")
    print("=" * 72, flush=True)
    fixed = fig11_state_sync.run_experiment(reps=4, scales=(16,),
                                            include_baseline=False,
                                            bug_compat=False,
                                            runner=runner, **QUICK)
    print(fixed.render())
    assert fixed.rows[0].pct_terminated == 100.0
    print()
    print('"This bug is now corrected in the MPICH-Vcl framework and was '
          'discovered during this work." — §6')


if __name__ == "__main__":
    main()
