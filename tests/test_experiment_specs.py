"""Every experiment command's spec: its figure's shape and its flags.

``test_figure_shape`` runs each spec's ``run_experiment`` at its quick
scale and checks the paper's shape with the spec's own ``expect`` —
and its ablation, where it has one.  Under ``REPRO_FULL=1`` the same
test runs the paper's scales instead (serially: tens of minutes).  The
``figure_shape`` fixture (``tests/conftest.py``) shares each run with
the older per-figure test names in ``tests/test_fig*.py`` and
``tests/test_figure_shapes_quick.py``.
"""

import argparse
import importlib
import json
import re
import sys

import pytest

from repro.__main__ import COMMANDS, main, usage
from repro.experiments.runner import add_runner_arguments
from repro.experiments.spec import ExperimentSpec

#: the specs that draw a figure: the ones with shape assertions
SPECS = [spec for spec in (
    importlib.import_module(module).SPEC
    for module, _blurb in COMMANDS.values()) if spec.expect is not None]


@pytest.mark.slow
@pytest.mark.parametrize("spec, ablated", [
    pytest.param(spec, ablated, id=spec.name + ("-ablation" if ablated else ""))
    for spec in SPECS for ablated in (False, True)
    if spec.ablation or not ablated])
def test_figure_shape(spec, ablated, figure_shape):
    figure_shape(spec, ablated)


def test_every_command_is_a_spec():
    """Every command runs through the one command line: its module
    declares a spec under the command's name and no ``main`` of its
    own."""
    for command, (module_name, _blurb) in COMMANDS.items():
        module = importlib.import_module(module_name)
        assert isinstance(module.SPEC, ExperimentSpec), command
        assert module.SPEC.name == command
        assert not hasattr(module, "main"), command


RUNNER = " --workers --cache-dir --no-cache --trace-out --obs-report"

#: each command's options beyond -h/--help, as recorded before the
#: specs replaced the hand-written parsers, and ``--quick`` wherever a
#: spec has a quick preset
OPTIONS = {
    "fig5": "--reps --procs --machines --quick" + RUNNER,
    "fig6": "--reps --extended --quick" + RUNNER,
    "fig7": "--reps --fixed --quick" + RUNNER,
    "fig9": "--reps --fixed --quick" + RUNNER,
    "fig11": "--reps --fixed --quick" + RUNNER,
    "table1": RUNNER,
    "compare-protocols": "--reps --procs --machines --protocols --quick"
                         + RUNNER,
    "explore": "--budget --bug-compat --corpus-dir --families --guided "
               "--json --machines --max-shrinks --out --override --procs "
               "--protocols --quick --replay --require-clean --seed "
               "--self-check --shrink-budget --timeout --trial-seed "
               "--workloads" + RUNNER,
    "net-sensitivity": "--reps --protocols --oversub --procs --machines "
                       "--no-faults --quick --json" + RUNNER,
    "scale-sweep": "--reps --protocols --ranks --shards --topology "
                   "--no-faults --quick --json" + RUNNER,
    "timeline": "--heal-after --kill --obs-out --partition --phases --procs "
                "--protocol --seed --timeout --trace-out --width --workload",
    "trace-diff": "--label-a --label-b",
    "obs-report": "--out --store --title",
}


def options_in(help_text):
    """The option strings of an argparse help text, in order."""
    found = []
    for line in help_text.splitlines():
        if line.startswith("  -"):
            invocation = re.split(r"\s{2,}", line.strip())[0]
            found += [part.split()[0] for part in invocation.split(", ")
                      if part.split()[0] not in ("-h", "--help")]
    return found


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_options_are_pinned(command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert sorted(options_in(capsys.readouterr().out)) \
        == sorted(OPTIONS[command].split())


def test_usage_lists_the_runner_flags():
    parser = argparse.ArgumentParser(add_help=False)
    add_runner_arguments(parser)
    (line,) = [line for line in usage().splitlines()
               if line.startswith("shared flags:")]
    assert re.findall(r"--[\w-]+", line) == options_in(parser.format_help())


def test_quick_preset_yields_to_an_explicit_reps(tmp_path):
    def sweep(*flags):
        out = tmp_path / "bench.json"
        assert main(["net-sensitivity", "--quick", "--protocols", "v1",
                     "--oversub", "2", "--json", str(out),
                     "--cache-dir", str(tmp_path / "cache"), *flags]) == 0
        return json.loads(out.read_text())

    assert sweep()["reps"] == 1
    doc = sweep("--reps", "2")
    assert doc["reps"] == 2
    assert [row["runs"] for row in doc["rows"]] == [2, 2, 2]
