"""Tier-1 gate: the repo's own source must lint clean.

This is the point of the whole framework — the invariants in the rule
table (:mod:`repro.analysis`) hold over the shipped tree on every test
run, so a regression (a blocking call sneaking into an async handler,
a DAO write that forgets to stamp) fails CI the moment it is written,
with the rule's message explaining which documented invariant broke and
why.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import all_rules, lint_paths, render_findings

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_lints_clean():
    findings, errors = lint_paths([SRC])
    assert not errors, "\n".join(f"{e.path}: {e.message}" for e in errors)
    assert not findings, "\n" + render_findings(findings)


def test_rule_registry_is_complete():
    rules = all_rules()
    # the six repo invariants plus the two dead-code passes
    expected = {
        "RPR001", "RPR002", "RPR003", "RPR005", "RPR006", "RPR008",
        "RPR101", "RPR102",
    }
    assert expected == set(rules)
    for name, rule in rules.items():
        assert rule.name == name
        assert rule.summary, f"{name} has no summary"


def test_cli_lint_exits_clean():
    from repro.cli import main

    assert main(["lint", str(SRC)]) == 0


def test_cli_lint_json_shape(capsys):
    import json

    from repro.cli import main

    assert main(["lint", str(SRC), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "errors": []}


def test_cli_lint_reports_findings(tmp_path, capsys):
    import json

    from repro.cli import main

    bad = tmp_path / "repro" / "server" / "handler.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n\n\nasync def handle(r):\n    time.sleep(1)\n",
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path)]) == 1
    assert "RPR001" in capsys.readouterr().out

    assert main(["lint", str(tmp_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (finding,) = payload["findings"]
    assert finding["rule"] == "RPR001"
    assert finding["line"] == 5
    assert finding["file"].endswith("handler.py")


def test_cli_lint_unparseable_exits_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    assert main(["lint", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().out
