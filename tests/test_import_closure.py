"""What one trial loads: the import closure of a faulted ring trial.

A campaign is a long series of short processes (CLI commands, pool
workers, bench children), and each pays at start-up for every module
it imports.  A trial needs the simulator, FAIL and the recorder; it
must not drag in the fuzzer's campaign machinery, the obs exporters,
the process pool or a command-line parser.  The check is exact — the
set of loaded modules — not a timing.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

TRIAL = """
import json, sys
from repro.experiments.harness import TrialSetup
from repro.explore.generators import (MASTER, NODE_DAEMON, TimedKill,
                                      render_plan)
setup = TrialSetup(
    n_procs=4, n_machines=8, workload="ring", niters=10,
    total_compute=180.0, footprint=1e8,
    scenario_source=render_plan((TimedKill(at=5, target=1),)),
    master_daemon=MASTER, node_daemon=NODE_DAEMON)
result = setup.run_one(1)
assert result.restarts, "the kill must have cost a recovery"
print(json.dumps(sorted(sys.modules)))
"""

NOT_LOADED = (
    "concurrent.futures", "multiprocessing", "argparse",
    "repro.explore.campaign", "repro.explore.shrink", "repro.explore.corpus",
    "repro.explore.mutate", "repro.explore.oracles",
    "repro.obs.report", "repro.obs.chrometrace",
)


def test_a_trial_loads_no_campaign_exporter_pool_or_parser():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", TRIAL], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "repro.mpichv.runtime" in loaded      # the trial did run here
    assert sorted(loaded.intersection(NOT_LOADED)) == []
