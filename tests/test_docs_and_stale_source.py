"""Docs tooling tests + the stale-docstring source scan.

Two kinds of rot guard:

* unit tests for ``scripts/check_docs.py`` (snippet extraction,
  link/anchor checking) plus a live link check over the real
  documentation set — CI's ``docs-check`` job additionally *executes*
  every ``python``/``console`` snippet;
* a source scan (à la ``tests/test_protocol_registry.py``) that greps
  ``src/`` for phrases describing architectures this repository no
  longer has — the single-checkpoint-server topology, the
  one-entry-per-event heap — and for ``svc``-node arithmetic outside
  the shard map, so stale descriptions and layout forks cannot creep
  back in.
"""

import importlib
import pathlib
import re
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SCRIPTS))

import check_docs  # noqa: E402


# ---------------------------------------------------------------------------
# snippet extraction
# ---------------------------------------------------------------------------

def test_extract_snippets_classifies_fences(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text(
        "# t\n\n```python\nprint(1)\n```\n\n"
        "```console\n$ echo hi\nhi\n```\n\n"
        "```bash\nrm -rf /never-run\n```\n")
    snippets = check_docs.extract_snippets(str(doc))
    assert [(s.lang, s.line) for s in snippets] \
        == [("python", 3), ("console", 7), ("bash", 12)]
    assert snippets[0].body == "print(1)"
    assert "$ echo hi" in snippets[1].body


def test_run_snippets_python_and_console(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text(
        "```python\nassert 1 + 1 == 2\n```\n"
        "```console\n$ true\n```\n"
        "```bash\nfalse\n```\n"                       # display-only
        "```python\n# docs: skip\nraise SystemExit(3)\n```\n")
    assert check_docs.check_snippets([str(doc)]) == []


def test_run_snippets_reports_failures(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text("```python\nraise ValueError('boom')\n```\n")
    errors = check_docs.check_snippets([str(doc)])
    assert len(errors) == 1 and "x.md:1" in errors[0]
    doc.write_text("```console\n$ exit 7\n```\n")
    errors = check_docs.check_snippets([str(doc)])
    assert len(errors) == 1 and "exit 7" in errors[0]


# ---------------------------------------------------------------------------
# link checking
# ---------------------------------------------------------------------------

def test_link_checker_inside_repo(tmp_path, monkeypatch):
    monkeypatch.setattr(check_docs, "REPO", str(tmp_path))
    (tmp_path / "other.md").write_text("# Real Heading\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Top\n"
        "[ok](other.md)\n"
        "[ok2](other.md#real-heading)\n"
        "[self](#top)\n"
        "[web](https://example.com/x)\n"
        "[gone](missing.md)\n"
        "[bad-anchor](other.md#nope)\n")
    errors = check_docs.check_links([str(doc)])
    assert len(errors) == 2
    assert any("missing.md" in e for e in errors)
    assert any("nope" in e for e in errors)


def test_link_checker_skips_links_leaving_the_repo(tmp_path, monkeypatch):
    monkeypatch.setattr(check_docs, "REPO", str(tmp_path / "repo"))
    (tmp_path / "repo").mkdir()
    doc = tmp_path / "repo" / "README.md"
    doc.write_text("[badge](../../actions/workflows/ci.yml)\n")
    assert check_docs.check_links([str(doc)]) == []


def test_fenced_blocks_are_not_scanned_for_links(tmp_path, monkeypatch):
    monkeypatch.setattr(check_docs, "REPO", str(tmp_path))
    doc = tmp_path / "doc.md"
    doc.write_text("```text\n[not-a-link](nowhere.md)\n```\n")
    assert check_docs.check_links([str(doc)]) == []


def test_repo_documentation_links_resolve():
    """The real README/EXPERIMENTS/docs link graph, checked live."""
    paths = check_docs.doc_files()
    names = {pathlib.Path(p).name for p in paths}
    assert {"README.md", "EXPERIMENTS.md", "architecture.md",
            "fail-language.md", "protocols.md"} <= names
    assert check_docs.check_links(paths) == []


def test_repo_docs_have_executable_snippets():
    """The docs-check CI job must have something to execute."""
    langs = [s.lang for p in check_docs.doc_files()
             for s in check_docs.extract_snippets(p)]
    assert langs.count("python") >= 4
    assert langs.count("console") >= 2


# ---------------------------------------------------------------------------
# stale-docstring source scan
# ---------------------------------------------------------------------------

#: phrases describing architectures this repo no longer has; add the
#: tell-tale wording here whenever a subsystem is replaced
STALE_PHRASES = [
    # pre-sharding: a fixed scheduler/servers layout spelled in prose
    r"checkpoint servers on ``svc2\.\.``",
    r"the single checkpoint server\b",
    # pre-slot-table engine
    r"deterministic event heap",
    r"pending-event heap",
    r"provides a virtual clock, an event heap",
    # pre-registry protocol dispatch
    r"string-match(?:ing|es) on the protocol name",
    r"if config\.protocol ==",
    # pre-collector teardown: a hand-written dispose() chain
    r"Teardown-only",
    r"dispose\(\) severs",
    # a second FAIL semantics: daemons rendered as generated Python
    r"repro\.fail\.codegen",
    r"generate_python",
    # the trace as a live bus: callables listening to its records
    r"subscriber callables",
    r"clear_listeners",
    r"trace listener",
    # package-level spellings: a package __init__ is a module map that
    # re-exports nothing (``from repro.obs import causal`` stays legal)
    r"from repro\.obs import \(?(Obs|NULL_SPAN|span_rollups|CausalGraph"
    r"|causal_kind_rollup|chrome_trace_doc|chrome_trace_json"
    r"|write_chrome_trace|epoch_phase_table|render_phase_table"
    r"|aggregate_obs|openmetrics_text|html_report|write_obs_report)\b",
    r"from repro\.explore import \(?(run_campaign|ExploreConfig|quick_config"
    r"|CampaignResult|replay_scenario|FAMILIES|GeneratedScenario"
    r"|GeneratorContext|generate|generate_suite|render_plan|ORACLE_NAMES"
    r"|OracleReport|run_oracles|ShrinkResult)\b",
    r"from repro\.(analysis|cluster|experiments|fail|fail\.lang|mpi|mpichv"
    r"|netmodel|simkernel) import \(?[A-Z]",
    # a mesh handshake hook per connection: a landing's connected rows
    # reach the daemon together
    r"def on_peer_connected\(self, row\b",
    # a link-cut API beside isolate/heal, the path FAIL partitions take
    r"cut_link",
    r"_cut_pairs",
    # protocol code minting contexts: the send paths mint, replies pass
    # ``cause=``; a send on a closed socket drops the message
    r"causal\.derive",
    r"ConnectionClosed",
    # per-message types paying for frozen=True: immutability is an
    # audit (tests/test_message_immutability.py), not a constructor cost
    r"wire dataclasses are frozen",
    r"frozen message",
    r"AST nodes are frozen",
    # a span is its row: no span object, no null handle to close
    r"NULL_SPAN",
    r"_NullSpan",
    r"close_at",
    r"class Span\b",
    # keeping trace records is the caller's argument, not a setup field
    # hashed into the key, and the result document never ships them
    # (``keep_trace`` itself stays: it names that argument)
    r"self\.keep_trace",
    r"keep_trace: bool = False",
    r"keep_trace=True",
    r"when the trial kept them",
    # a runtime plugin API for a closed family: the protocols, workloads
    # and fabric models are plain tables of their built-ins
    r"register_workload",
    r"register_fabric",
    r"protocols\.register\(",
    r"unregister",
    r"Registry\(",
]


def _py_sources():
    return [p for p in SRC.rglob("*.py")]


@pytest.mark.parametrize("phrase", STALE_PHRASES)
def test_no_stale_phrases_in_source(phrase):
    pattern = re.compile(phrase)
    offenders = [
        f"{path.relative_to(SRC)}:{i}"
        for path in _py_sources()
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == [], f"stale phrase {phrase!r} in {offenders}"


def test_table1_evidence_names_resolve():
    """Every dotted ``repro.…`` name Table 1 quotes as evidence imports
    and resolves, so the table cannot cite deleted code."""
    from repro.experiments.table1_tools import SUPPORT_EVIDENCE

    names = [name for text in SUPPORT_EVIDENCE.values()
             for name in re.findall(r"repro(?:\.\w+)+", text)]
    assert "repro.fail.machine.eval_expr" in names
    for name in names:
        parts = name.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ModuleNotFoundError:
                continue
            for attr in parts[split:]:
                obj = getattr(obj, attr)    # AttributeError names it
            break
        else:
            pytest.fail(f"{name} does not import")


def test_service_node_arithmetic_only_in_shardmap():
    """``svc{2+...}``-style placement math must live in shardmap.py —
    a second copy is how daemons and deploy plans drift apart."""
    pattern = re.compile(r"svc\{2\s*\+|f\"svc\{.*\+")
    offenders = [
        f"{path.relative_to(SRC)}:{i}"
        for path in _py_sources()
        if path.name != "shardmap.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == [], offenders


def test_ckpt_shard_modulo_only_in_shardmap():
    pattern = re.compile(r"%\s*(self\.config\.|config\.)?n_ckpt_servers")
    offenders = [
        f"{path.relative_to(SRC)}:{i}"
        for path in _py_sources()
        if path.name != "shardmap.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == [], offenders
