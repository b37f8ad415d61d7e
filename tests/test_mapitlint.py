"""mapitlint: per-rule fixtures, pragmas, baseline, CLI, self-check.

The fixture pairs under ``tests/fixtures/lint/`` hold one clean and
one violating file per rule; the doc-sync rules (OBS001/CLI001) use
the two ``docroot_*`` mini-trees whose ``docs/`` either match or lag
their ``src/``.  The final self-check runs the real linter over the
repo's ``src/`` against the checked-in baseline — the same gate CI
applies — so a violation introduced anywhere in ``src/`` fails here
first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.mapitlint import baseline as baseline_mod  # noqa: E402
from tools.mapitlint import cli as lint_cli  # noqa: E402
from tools.mapitlint.engine import parse_pragmas, run_lint  # noqa: E402
from tools.mapitlint.findings import legacy_fingerprint  # noqa: E402
from tools.mapitlint.registry import known_ids  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def lint_paths(paths, root, **kwargs):
    findings, errors, _ = run_lint([Path(p) for p in paths], Path(root), **kwargs)
    assert not errors, errors
    return findings


def rules_hit(findings):
    return {finding.rule for finding in findings}


# -- registry -----------------------------------------------------------------


def test_all_rules_registered():
    assert known_ids() == [
        "CLI001", "DET001", "DET002", "DET003", "ERR001", "FORK001",
        "FORK002", "FORK003", "IO001", "OBS001", "ORA001", "RACE001",
        "RACE002",
    ]


# -- per-rule fixtures --------------------------------------------------------


@pytest.mark.parametrize(
    "rule, clean, violating, expected_min",
    [
        ("DET001", "det001_clean.py", "det001_violating.py", 4),
        ("DET002", "det002_clean.py", "det002_violating.py", 4),
        ("FORK001", "perf/fork001_clean.py", "perf/fork001_violating.py", 5),
        ("FORK002", "perf/fork002_clean.py", "perf/fork002_violating.py", 5),
        ("ERR001", "err001_clean.py", "err001_violating.py", 3),
        ("IO001", "io001_clean.py", "io001_violating.py", 8),
    ],
)
def test_module_rule_fixtures(rule, clean, violating, expected_min):
    clean_findings = lint_paths([FIXTURES / clean], REPO_ROOT, select=[rule])
    assert clean_findings == [], [str(f) for f in clean_findings]

    found = lint_paths([FIXTURES / violating], REPO_ROOT, select=[rule])
    assert len(found) >= expected_min, [str(f) for f in found]
    assert rules_hit(found) == {rule}


def test_det001_messages_name_the_hazard():
    found = lint_paths([FIXTURES / "det001_violating.py"], REPO_ROOT, select=["DET001"])
    messages = " ".join(finding.message for finding in found)
    assert "iterating a set" in messages
    assert "filesystem enumeration" in messages
    assert "hidden global state" in messages


def test_fork001_covers_each_hazard_kind():
    found = lint_paths(
        [FIXTURES / "perf" / "fork001_violating.py"], REPO_ROOT, select=["FORK001"]
    )
    messages = " ".join(finding.message for finding in found)
    assert "lambda" in messages
    assert "bound method" in messages
    assert "imap_unordered" in messages
    assert "closure" in messages or "nested function" in messages
    assert "module global" in messages


def test_fork002_names_the_supervised_alternative():
    found = lint_paths(
        [FIXTURES / "perf" / "fork002_violating.py"], REPO_ROOT, select=["FORK002"]
    )
    messages = " ".join(finding.message for finding in found)
    assert "fork_map" in messages
    assert "Pool construction" in messages
    assert "bypasses" in messages


def test_fork002_allows_the_supervisor_itself(tmp_path):
    module = tmp_path / "src" / "repro" / "robust" / "supervise.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def dispatch(pool, worker, shard):\n"
        "    return pool.apply_async(worker, (shard,))\n"
    )
    assert lint_paths([module], tmp_path, select=["FORK002"]) == []


@pytest.mark.parametrize(
    "rule, expected_clean, expected_violations",
    [("OBS001", 0, 3), ("CLI001", 0, 2)],
)
def test_doc_sync_rule_fixtures(rule, expected_clean, expected_violations):
    clean_root = FIXTURES / "docroot_clean"
    found = lint_paths([clean_root / "src"], clean_root, select=[rule])
    assert len(found) == expected_clean, [str(f) for f in found]

    stale_root = FIXTURES / "docroot_violating"
    found = lint_paths([stale_root / "src"], stale_root, select=[rule])
    assert len(found) == expected_violations, [str(f) for f in found]
    assert rules_hit(found) == {rule}


def test_doc_sync_reports_missing_doc(tmp_path):
    root = tmp_path / "tree"
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "emitter.py").write_text(
        "def go(obs):\n    obs.event('thing.happened')\n"
    )
    found = lint_paths([root / "src"], root, select=["OBS001"])
    assert len(found) == 1
    assert "not found" in found[0].message


# -- ORA001: oracle independence ----------------------------------------------


def _oracle_module(tmp_path, body):
    module = tmp_path / "src" / "repro" / "oracle" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(body)
    return module


def test_ora001_forbids_core_imports_in_oracle(tmp_path):
    module = _oracle_module(
        tmp_path,
        "import repro.core\n"
        "from repro.core.engine import Engine\n"
        "from repro.core import mapit\n",
    )
    found = lint_paths([module], tmp_path, select=["ORA001"])
    assert len(found) == 3, [str(f) for f in found]
    assert rules_hit(found) == {"ORA001"}
    assert "independent of repro.core" in found[0].message


def test_ora001_allows_everything_else(tmp_path):
    """The oracle may import itself and the standard library; every
    other repro module is production code it checks, however named."""
    module = _oracle_module(
        tmp_path,
        "import repro.graph.neighbors\n"
        "from repro.perf.flat import GraphFold\n"
        "from ..perf.flat import GraphFold\n"  # relative, out of the package
        "from repro.oracle.fold import oracle_fold\n"
        "import repro.oracle.reference\n"
        "from .reference import oracle_run\n"
        "from ..oracle import fold\n"
        "from reprolike import thing\n"  # prefix match must be exact
        "import dataclasses\n",
    )
    found = lint_paths([module], tmp_path, select=["ORA001"])
    assert [finding.line for finding in found] == [1, 2, 3], [str(f) for f in found]


def test_ora001_ignores_files_outside_oracle(tmp_path):
    module = tmp_path / "src" / "repro" / "diff" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("from repro.core.mapit import MapIt\n")
    assert lint_paths([module], tmp_path, select=["ORA001"]) == []


def test_ora001_repo_oracle_is_independent():
    found = lint_paths([REPO_ROOT / "src" / "repro" / "oracle"], REPO_ROOT,
                       select=["ORA001"])
    assert found == [], [str(f) for f in found]


# -- IO001: no unpickling -----------------------------------------------------


def test_io001_repo_never_unpickles():
    """Nothing mapitlint scans loads pickle, marshal or shelve bytes —
    not even the fork pool, whose unpickling stays inside
    multiprocessing."""
    found = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT,
                       select=["IO001"])
    assert found == [], [str(f) for f in found]


# -- pragmas ------------------------------------------------------------------


def test_parse_pragmas_line_file_and_all():
    lines = [
        "x = set()  # mapitlint: disable=DET001 -- reviewed",
        "# mapitlint: disable-file=ERR001",
        "y = 1  # mapitlint: disable=all",
        "z = 2  # mapitlint: disable=DET001,DET002",
    ]
    line_pragmas, file_pragmas = parse_pragmas(lines)
    assert line_pragmas[1] == {"DET001"}
    assert line_pragmas[3] == {"all"}
    assert line_pragmas[4] == {"DET001", "DET002"}
    assert file_pragmas == {"ERR001"}


def test_line_pragma_suppresses_finding(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(items):\n"
        "    return [x for x in set(items)]"
        "  # mapitlint: disable=DET001 -- order-insensitive sink\n"
    )
    assert lint_paths([source], tmp_path, select=["DET001"]) == []


def test_comment_line_pragma_governs_next_line(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(items):\n"
        "    # mapitlint: disable=DET001 -- order-insensitive sink\n"
        "    return [x for x in set(items)]\n"
    )
    assert lint_paths([source], tmp_path, select=["DET001"]) == []


def test_file_pragma_suppresses_whole_file(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "# mapitlint: disable-file=DET001 -- fixture\n"
        "def f(items):\n"
        "    return [x for x in set(items)]\n"
        "def g(items):\n"
        "    return {x for x in set(items)}\n"
    )
    assert lint_paths([source], tmp_path, select=["DET001"]) == []


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(items):\n"
        "    return [x for x in set(items)]  # mapitlint: disable=ERR001\n"
    )
    assert len(lint_paths([source], tmp_path, select=["DET001"])) == 1


# -- baseline -----------------------------------------------------------------


def test_baseline_grandfathers_and_reports_stale(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(items):\n    return [x for x in set(items)]\n")
    findings = lint_paths([source], tmp_path, select=["DET001"])
    assert len(findings) == 1

    baseline_path = tmp_path / "baseline.json"
    baseline_mod.save(baseline_path, findings, {})
    entries, version = baseline_mod.load(baseline_path)
    assert version == baseline_mod.BASELINE_VERSION
    for entry in entries.values():
        entry["justification"] = "fixture: sink is order-insensitive"
    new, grandfathered, stale, unjustified = baseline_mod.apply(findings, entries)
    assert new == [] and len(grandfathered) == 1
    assert stale == [] and unjustified == []

    # fix the violation: the entry goes stale
    source.write_text("def f(items):\n    return [x for x in sorted(items)]\n")
    fixed = lint_paths([source], tmp_path, select=["DET001"])
    new, grandfathered, stale, unjustified = baseline_mod.apply(fixed, entries)
    assert new == [] and grandfathered == []
    assert len(stale) == 1


def test_baseline_without_justification_is_flagged(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(items):\n    return [x for x in set(items)]\n")
    findings = lint_paths([source], tmp_path, select=["DET001"])
    baseline_path = tmp_path / "baseline.json"
    baseline_mod.save(baseline_path, findings, {})
    entries, _ = baseline_mod.load(baseline_path)
    new, _, _, unjustified = baseline_mod.apply(findings, entries)
    assert new == []
    assert len(unjustified) == 1


def test_fingerprints_survive_line_shifts(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(items):\n    return [x for x in set(items)]\n")
    before = lint_paths([source], tmp_path, select=["DET001"])
    source.write_text(
        "# a new leading comment shifts every line number\n\n"
        "def f(items):\n    return [x for x in set(items)]\n"
    )
    after = lint_paths([source], tmp_path, select=["DET001"])
    assert before[0].fingerprint == after[0].fingerprint
    assert before[0].line != after[0].line


# -- CLI ----------------------------------------------------------------------


def test_cli_clean_exit_zero(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("VALUE = 1\n")
    code = lint_cli.main([str(tmp_path), "--root", str(tmp_path), "--no-baseline"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_findings_exit_one(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def f(i):\n    return [x for x in set(i)]\n")
    code = lint_cli.main([str(tmp_path), "--root", str(tmp_path), "--no-baseline"])
    assert code == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def f(i):\n    return [x for x in set(i)]\n")
    code = lint_cli.main(
        [str(tmp_path), "--root", str(tmp_path), "--no-baseline", "--format", "json"]
    )
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["new"] == 1
    finding = document["findings"][0]
    assert finding["rule"] == "DET001"
    assert finding["path"] == "mod.py"
    assert finding["fingerprint"]


def test_cli_disable_rule(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def f(i):\n    return [x for x in set(i)]\n")
    code = lint_cli.main(
        [str(tmp_path), "--root", str(tmp_path), "--no-baseline", "--disable", "DET001"]
    )
    capsys.readouterr()
    assert code == 0


def test_cli_unknown_rule_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_cli.main([str(tmp_path), "--select", "NOPE999"])
    capsys.readouterr()
    assert excinfo.value.code == 2


def test_cli_update_baseline_roundtrip(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def f(i):\n    return [x for x in set(i)]\n")
    baseline_path = tmp_path / "baseline.json"
    code = lint_cli.main(
        [
            str(tmp_path), "--root", str(tmp_path),
            "--baseline", str(baseline_path), "--update-baseline",
        ]
    )
    assert code == 0
    capsys.readouterr()
    entries, _ = baseline_mod.load(baseline_path)
    assert len(entries) == 1
    # without justifications the run still fails
    code = lint_cli.main(
        [str(tmp_path), "--root", str(tmp_path), "--baseline", str(baseline_path)]
    )
    assert code == 1
    assert "UNJUSTIFIED" in capsys.readouterr().out
    # justified: clean
    for entry in entries.values():
        entry["justification"] = "fixture"
    findings = lint_paths([tmp_path], tmp_path)
    baseline_mod.save(baseline_path, findings, entries)
    code = lint_cli.main(
        [str(tmp_path), "--root", str(tmp_path), "--baseline", str(baseline_path)]
    )
    assert code == 0
    assert "grandfathered" in capsys.readouterr().out


def test_cli_syntax_error_reported(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n")
    code = lint_cli.main([str(tmp_path), "--root", str(tmp_path), "--no-baseline"])
    assert code == 1
    assert "SyntaxError" in capsys.readouterr().out


# -- repo self-check ----------------------------------------------------------


def test_repo_src_is_clean_modulo_baseline():
    findings, errors, scanned = run_lint(
        [REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT
    )
    assert not errors, errors
    assert scanned > 50
    entries, _ = baseline_mod.load(baseline_mod.default_path())
    new, _, stale, unjustified = baseline_mod.apply(findings, entries)
    assert new == [], "\n".join(str(f) for f in new)
    assert stale == [], stale
    assert unjustified == [], unjustified


def test_seeded_violation_in_core_is_caught(tmp_path):
    """The acceptance gate: a fresh violation in src/repro/core fails."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "seeded.py").write_text(
        "def merge(halves):\n"
        "    out = []\n"
        "    for half in set(halves):\n"
        "        try:\n"
        "            out.append(half)\n"
        "        except:\n"
        "            pass\n"
        "    return out\n"
    )
    findings = lint_paths([tmp_path / "src"], tmp_path)
    assert {"DET001", "ERR001"} <= rules_hit(findings)


# -- whole-program rules: RACE001/RACE002, FORK003, DET003 --------------------


def test_race001_fixture_fires_with_both_locations():
    found = lint_paths(
        [FIXTURES / "serve" / "race001_violating.py"],
        REPO_ROOT,
        select=["RACE001"],
    )
    assert len(found) >= 1, [str(f) for f in found]
    finding = found[0]
    assert "Pipeline.stats" in finding.message
    assert "without a mutual lock" in finding.message
    # the writer is the primary location; the cross-role reader rides
    # along in `related` so the report names both sides of the race
    assert "Pipeline.report" in finding.related
    assert "race001_violating.py" in finding.related


def test_race002_fixture_flags_multi_role_rmw():
    found = lint_paths(
        [FIXTURES / "serve" / "race001_violating.py"],
        REPO_ROOT,
        select=["RACE002"],
    )
    assert len(found) >= 1, [str(f) for f in found]
    messages = " ".join(f.message for f in found)
    assert "read-modify-write" in messages
    assert "many instances" in messages


def test_race_clean_fixture_passes():
    found = lint_paths(
        [FIXTURES / "serve" / "race001_clean.py"],
        REPO_ROOT,
        select=["RACE001", "RACE002"],
    )
    assert found == [], [str(f) for f in found]


def test_fork003_flags_dict_worker_and_container_field():
    found = lint_paths(
        [FIXTURES / "perf" / "fork003_violating.py"],
        REPO_ROOT,
        select=["FORK003"],
    )
    messages = {f.message for f in found}
    assert any("unpacked dict" in m for m in messages), messages
    assert any("ShardOutcome.hops" in m for m in messages), messages
    # every finding carries the fork_map call site as the sink
    assert all("fork_map call site" in f.related for f in found)


def test_fork003_clean_fixture_passes():
    found = lint_paths(
        [FIXTURES / "perf" / "fork003_clean.py"], REPO_ROOT, select=["FORK003"]
    )
    assert found == [], [str(f) for f in found]


def test_det003_traces_time_two_calls_deep():
    found = lint_paths(
        [FIXTURES / "det003_violating.py"], REPO_ROOT, select=["DET003"]
    )
    assert len(found) == 2, [str(f) for f in found]
    producer = next(f for f in found if "state_fingerprint" in f.message)
    # the message carries the full hop chain from source to sink ...
    assert "time.time()" in producer.message
    assert "_now" in producer.message and "_salt" in producer.message
    # ... and `related` points at the source line itself
    assert producer.related.startswith("source ")
    assert "det003_violating.py:9" in producer.related
    sink_call = next(f for f in found if "make_cache_key" in f.message)
    assert "cache_key" in sink_call.message


def test_det003_clean_fixture_passes():
    found = lint_paths(
        [FIXTURES / "det003_clean.py"], REPO_ROOT, select=["DET003"]
    )
    assert found == [], [str(f) for f in found]


# -- pragma edge cases --------------------------------------------------------


def test_multi_rule_pragma_suppresses_both(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(items):\n"
        "    # mapitlint: disable=DET001,ERR001 -- fixture: both reviewed\n"
        "    for x in set(items):\n"
        "        try:\n"
        "            return x\n"
        "        except:\n"
        "            pass\n"
    )
    found = lint_paths([source], tmp_path, select=["DET001"])
    assert found == [], [str(f) for f in found]
    # ERR001 reports on the bare-except line, which the pragma does not
    # govern -- only DET001's set-iteration line is covered
    still = lint_paths([source], tmp_path, select=["ERR001"])
    assert len(still) == 1


def test_pragma_on_decorator_governs_def_line(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import functools\n"
        "from typing import List\n"
        "\n"
        "\n"
        "class Item:\n"
        "    pass\n"
        "\n"
        "\n"
        "@functools.lru_cache  # mapitlint: disable=FORK003 -- measured: tiny\n"
        "def worker(shard) -> List[Item]:\n"
        "    return []\n"
        "\n"
        "\n"
        "def run(shards, fork_map):\n"
        "    return fork_map(worker, shards)\n"
    )
    found = lint_paths([source], tmp_path, select=["FORK003"])
    assert found == [], [str(f) for f in found]
    # without the pragma the same worker is flagged at its def line
    source.write_text(source.read_text().replace(
        "  # mapitlint: disable=FORK003 -- measured: tiny", ""
    ))
    found = lint_paths([source], tmp_path, select=["FORK003"])
    assert len(found) == 1
    assert found[0].line == 10


def test_unknown_rule_id_in_pragma_is_an_error(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "VALUE = 1  # mapitlint: disable=NOPE999 -- typo\n"
    )
    findings, errors, _ = run_lint([source], tmp_path)
    assert findings == []
    assert len(errors) == 1
    assert "NOPE999" in errors[0] and "unknown rule id" in errors[0]


def test_unknown_rule_id_in_file_pragma_is_an_error(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("# mapitlint: disable-file=WAT123\nVALUE = 1\n")
    _, errors, _ = run_lint([source], tmp_path)
    assert any("WAT123" in error for error in errors)


# -- baseline v1 -> v2 migration ----------------------------------------------


def test_baseline_v1_migrates_keeping_justification(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(items):\n    return [x for x in set(items)]\n")
    findings = lint_paths([source], tmp_path, select=["DET001"])
    assert len(findings) == 1
    finding = findings[0]
    # a v1 file: strip-only fingerprint, a `line` field, no version
    v1_fp = legacy_fingerprint(finding.rule, finding.path, finding.snippet, 0)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({
        "entries": [{
            "fingerprint": v1_fp,
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "message": finding.message,
            "justification": "v1-era review: sink is order-insensitive",
        }]
    }))
    entries, version = baseline_mod.load(baseline_path)
    assert version == 1
    migrated = baseline_mod.migrate(findings, entries, version)
    assert finding.fingerprint in migrated
    assert migrated[finding.fingerprint]["justification"].startswith("v1-era")
    new, grandfathered, stale, unjustified = baseline_mod.apply(
        findings, migrated
    )
    assert new == [] and len(grandfathered) == 1
    assert stale == [] and unjustified == []
    # a save after migration writes v2 (snippet-keyed, no line field)
    baseline_mod.save(baseline_path, findings, migrated)
    data = json.loads(baseline_path.read_text())
    assert data["version"] == baseline_mod.BASELINE_VERSION
    assert "snippet" in data["entries"][0]
    assert "line" not in data["entries"][0]


def test_stale_v1_entry_survives_migration_for_reporting(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("VALUE = 1\n")
    findings = lint_paths([source], tmp_path)
    entries = {"feedfeedfeedfeed": {
        "fingerprint": "feedfeedfeedfeed", "rule": "DET001",
        "path": "gone.py", "line": 3, "message": "old", "justification": "x",
    }}
    migrated = baseline_mod.migrate(findings, entries, 1)
    _, _, stale, _ = baseline_mod.apply(findings, migrated)
    assert len(stale) == 1


# -- --changed ----------------------------------------------------------------


def _git(repo, *argv):
    subprocess.run(
        ["git", "-C", str(repo), *argv],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo), "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


def test_changed_run_agrees_with_full_run(tmp_path):
    repo = tmp_path
    (repo / "stable.py").write_text(
        "def f(items):\n    return [x for x in set(items)]\n"
    )
    (repo / "touched.py").write_text("VALUE = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-qm", "seed")
    # introduce one violation in one file; the other keeps its old one
    (repo / "touched.py").write_text(
        "def g(items):\n    return [x for x in set(items)]\n"
    )

    changed = lint_cli.changed_files(repo, "HEAD")
    assert changed == {"touched.py"}

    full = lint_paths([repo], repo)
    narrowed = lint_paths([repo], repo, changed=changed)
    assert {f.path for f in narrowed} == {"touched.py"}
    # agreement: the narrowed run reports exactly the full run's
    # findings for the changed files, identical fingerprints included
    expected = [f for f in full if f.path in changed]
    assert [(f.fingerprint, f.line) for f in narrowed] == [
        (f.fingerprint, f.line) for f in expected
    ]
    # untracked files count as changed too
    (repo / "fresh.py").write_text(
        "def h(items):\n    return [x for x in set(items)]\n"
    )
    assert "fresh.py" in lint_cli.changed_files(repo, "HEAD")


def test_changed_with_update_baseline_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_cli.main(
            [str(tmp_path), "--update-baseline", "--changed"]
        )
    capsys.readouterr()
    assert excinfo.value.code == 2


def test_json_summary_carries_rule_timings(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("VALUE = 1\n")
    code = lint_cli.main(
        [str(tmp_path), "--root", str(tmp_path), "--no-baseline",
         "--format", "json"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    timings = document["summary"]["rule_timings_ms"]
    assert set(known_ids()) == set(timings)
    assert all(ms >= 0 for ms in timings.values())
