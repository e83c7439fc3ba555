"""What one trial loads: the import closure of a faulted ring trial.

A campaign is a long series of short processes (CLI commands, pool
workers, bench children), and each pays at start-up for every module
it imports.  A trial needs the simulator, FAIL and the recorder; it
must not drag in the fuzzer's campaign machinery, the obs exporters,
the process pool or a command-line parser.  The check is exact — the
set of loaded modules — not a timing.

The same trial pins which of the loaded classes are frozen
dataclasses.  A frozen ``__init__`` assigns every field through
``object.__setattr__``, so a type built per message or per token is a
plain ``@dataclass`` and ``tests/test_message_immutability.py`` audits
that nothing changes it after construction; only configuration and
plan types, built a few times per campaign and some used as keys, stay
frozen.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

TRIAL = """
import dataclasses, json, sys
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
frozen = [f"{name}.{cls.__qualname__}"
          for name, module in sys.modules.items() if name.startswith("repro")
          for cls in vars(module).values()
          if isinstance(cls, type) and cls.__module__ == name
          and dataclasses.is_dataclass(cls)
          and cls.__dataclass_params__.frozen]
print(json.dumps({"modules": sorted(sys.modules), "frozen": sorted(frozen)}))
"""

NOT_LOADED = (
    "concurrent.futures", "multiprocessing", "argparse",
    "repro.explore.campaign", "repro.explore.shrink", "repro.explore.corpus",
    "repro.explore.mutate", "repro.explore.oracles",
    "repro.obs.report", "repro.obs.chrometrace",
)


#: the frozen dataclasses a trial loads: configuration, plan steps and
#: records, none built per message or per token
FROZEN = [
    "repro.analysis.traces.TraceRecord",
    "repro.explore.generators.GeneratedScenario",
    "repro.explore.generators.GeneratorContext",
    "repro.explore.generators.Heal",
    "repro.explore.generators.KillReporter",
    "repro.explore.generators.RekillRace",
    "repro.explore.generators.TimedKill",
    "repro.explore.generators.TimedPartition",
    "repro.fail.compile.CompiledScenario",
    "repro.mpichv.protocols.ProtocolSpec",
    "repro.mpichv.protocols.ServiceSpec",
    "repro.netmodel.spec.TopologySpec",
]


@pytest.fixture(scope="module")
def trial_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", TRIAL], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_a_trial_loads_no_campaign_exporter_pool_or_parser(trial_process):
    loaded = set(trial_process["modules"])
    assert "repro.mpichv.runtime" in loaded      # the trial did run here
    assert sorted(loaded.intersection(NOT_LOADED)) == []


def test_no_type_built_per_message_or_token_is_frozen(trial_process):
    assert trial_process["frozen"] == FROZEN, (
        "a wire message, AppMessage, FAIL syntax node or token must be a "
        "plain @dataclass (immutability is audited by "
        "tests/test_message_immutability.py); a new frozen type goes on "
        "FROZEN only if it is not built per message or per token")
