"""The reprolint engine, CLI, allow escape hatch, and the clean-tree gate.

The load-bearing test here is :func:`test_real_tree_is_clean`: the analyzer
must exit 0 on the repository's own source, which is what CI enforces.  The
rest pins the scoping table, the allow-comment meta rules (LINT001-003),
report formats, and exit codes.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint import ALL_RULES, families_for, format_json, format_text, lint_source
from repro.lint import engine
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


# --------------------------------------------------------------------- #
# The gate: the repository's own tree is clean
# --------------------------------------------------------------------- #


def test_real_tree_is_clean():
    findings = engine.run_lint(SRC_ROOT)
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"reprolint found problems in the tree:\n{rendered}"


def test_cli_exits_zero_and_prints_clean_on_the_real_tree(capsys):
    assert lint_main([]) == 0
    assert capsys.readouterr().out.strip() == "reprolint: clean"


# --------------------------------------------------------------------- #
# Scoping
# --------------------------------------------------------------------- #


def test_families_for_scoping_table():
    assert families_for("sim/events.py") == ("determinism",)
    assert families_for("core/transport.py") == ("determinism",)
    assert families_for("distributed/coordinator.py") == ("locks",)
    assert families_for("distributed/protocol.py") == ("locks",)
    assert families_for("distributed/leases.py") == ("determinism", "locks")
    assert families_for("api/backends.py") == ("locks",)
    assert families_for("sim/random.py") == ()  # the sanctioned entropy wrapper
    assert families_for("analysis/survey.py") == ()


# --------------------------------------------------------------------- #
# The allow escape hatch and its meta rules
# --------------------------------------------------------------------- #

_CLOCKED = """
import time

def stamp():
    return time.time()  {comment}
"""


def _lint_clocked(comment: str):
    return lint_source(_CLOCKED.format(comment=comment), "sim/fixture.py")


def test_allow_with_reason_suppresses_the_finding():
    assert _lint_clocked("# reprolint: allow(DET001): fixture exercises clocks") == []


def test_allow_on_the_line_above_also_covers():
    source = textwrap.dedent(
        """
        import time

        def stamp():
            # reprolint: allow(DET001): fixture exercises clocks
            return time.time()
        """
    )
    assert lint_source(source, "sim/fixture.py") == []


def test_allow_without_reason_is_lint001():
    rules = [f.rule for f in _lint_clocked("# reprolint: allow(DET001)")]
    assert rules == ["LINT001"]


def test_allow_for_unknown_rule_is_lint002():
    rules = sorted(f.rule for f in _lint_clocked("# reprolint: allow(NOPE42): why"))
    assert rules == ["DET001", "LINT002"]


def test_stale_allow_is_lint003():
    source = textwrap.dedent(
        """
        def stamp():
            return 0  # reprolint: allow(DET001): nothing here anymore
        """
    )
    rules = [f.rule for f in lint_source(source, "sim/fixture.py")]
    assert rules == ["LINT003"]


def test_allow_text_inside_a_string_literal_is_not_an_allow():
    source = textwrap.dedent(
        """
        import time

        def stamp():
            note = "# reprolint: allow(DET001): not a comment"
            return time.time(), note
        """
    )
    rules = [f.rule for f in lint_source(source, "sim/fixture.py")]
    assert rules == ["DET001"]


# --------------------------------------------------------------------- #
# Report formats, parse errors, and CLI exit codes
# --------------------------------------------------------------------- #


def _dirty_src(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "bad.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n"
    )
    return root


def test_format_text_and_json_agree(tmp_path):
    findings = engine.run_lint(_dirty_src(tmp_path))
    assert len(findings) == 1
    text = format_text(findings)
    assert "DET001" in text and text.endswith("1 finding(s)")
    report = json.loads(format_json(findings))
    assert report["version"] == 1
    assert report["count"] == 1
    assert report["findings"][0]["rule"] == "DET001"
    assert report["findings"][0]["path"].endswith("sim/bad.py")


def test_unparseable_scoped_file_is_lint004():
    findings = lint_source("def broken(:\n", "sim/broken.py")
    assert [f.rule for f in findings] == ["LINT004"]


def test_cli_exit_codes_and_output_file(tmp_path, capsys):
    dirty = _dirty_src(tmp_path)
    out_file = tmp_path / "report.json"
    status = lint_main(
        ["--src", str(dirty), "--format", "json", "--output", str(out_file)]
    )
    assert status == 1
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["count"] == 1
    assert json.loads(capsys.readouterr().out) == report


def test_cli_rejects_missing_src_dir(tmp_path, capsys):
    assert lint_main(["--src", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_cli_list_rules_covers_every_family(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET001", "LOCK001", "LINT001"):
        assert rule in out
    # Every advertised rule is listed.
    for rule in ALL_RULES:
        assert rule in out


def test_module_cli_routes_lint_subcommand(capsys):
    from repro.__main__ import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert "DET001" in capsys.readouterr().out
