"""The reprolint engine: scoping, orchestration, and report formats.

Each rule family applies to the layer whose invariants it protects:

* determinism rules run over the deterministic layers — ``sim/``, ``core/``,
  ``scenarios/``, ``stats/``, ``store/``, ``workloads/``, and the remote
  coordinator's lease book ``distributed/leases.py`` — with
  ``sim/random.py`` (the one sanctioned wrapper around :mod:`random`)
  exempt;
* lock-discipline rules run over the threaded layers — ``distributed/``
  and ``api/backends.py``.

:func:`run_lint` walks a source root (normally ``src/repro``), applies the
applicable families per file, honors ``# reprolint: allow`` comments, and
returns sorted findings.  :func:`format_text` renders the
``path:line: RULE-ID message`` lines CI greps; :func:`format_json` renders
the machine-readable report CI uploads as an artifact.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from repro.lint import determinism as det_rules
from repro.lint import locks as lock_rules
from repro.lint.findings import META_RULES, Finding, apply_allows, collect_allows

RULE_PARSE_ERROR = "LINT004"

#: Every rule id the analyzer can emit, with its one-line description.
ALL_RULES: dict[str, str] = {
    **det_rules.RULES,
    **lock_rules.RULES,
    **META_RULES,
    RULE_PARSE_ERROR: "file does not parse",
}

DETERMINISM_DIRS: tuple[str, ...] = (
    "sim",
    "core",
    "scenarios",
    "stats",
    "store",
    "workloads",
)
DETERMINISM_FILES: frozenset[str] = frozenset({"distributed/leases.py"})
DETERMINISM_EXEMPT: frozenset[str] = frozenset({"sim/random.py"})
LOCK_SCOPE_DIRS: tuple[str, ...] = ("distributed",)
LOCK_SCOPE_FILES: frozenset[str] = frozenset({"api/backends.py"})

Checker = Callable[[str, ast.Module], "list[Finding]"]


def families_for(relpath: str) -> tuple[str, ...]:
    """The rule families that apply to a source-root-relative posix path."""
    families: list[str] = []
    top = relpath.split("/", 1)[0]
    deterministic = top in DETERMINISM_DIRS or relpath in DETERMINISM_FILES
    if deterministic and relpath not in DETERMINISM_EXEMPT:
        families.append("determinism")
    if top in LOCK_SCOPE_DIRS or relpath in LOCK_SCOPE_FILES:
        families.append("locks")
    return tuple(families)


def lint_source(
    source: str,
    relpath: str,
    *,
    display_path: Optional[str] = None,
) -> list[Finding]:
    """Lint one file's source text under its source-root-relative path."""
    path = display_path or relpath
    families = families_for(relpath)
    if not families:
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 1, RULE_PARSE_ERROR, f"syntax error: {exc.msg}")
        ]
    findings: list[Finding] = []
    if "determinism" in families:
        findings.extend(det_rules.check_determinism(path, tree))
    if "locks" in families:
        findings.extend(lock_rules.check_locks(path, tree))
    allows = collect_allows(source)
    return sorted(apply_allows(path, findings, allows, frozenset(ALL_RULES)))


def run_lint(
    src_root: Path,
    *,
    display_base: Optional[Path] = None,
) -> list[Finding]:
    """Lint every scoped file under ``src_root`` (normally ``src/repro``).

    ``display_base`` controls how paths render in findings (defaults to
    paths relative to ``src_root``'s parent, i.e. ``repro/...``).
    """
    src_root = src_root.resolve()
    findings: list[Finding] = []
    for source_file in sorted(src_root.rglob("*.py")):
        relpath = source_file.relative_to(src_root).as_posix()
        if display_base is not None:
            try:
                display = source_file.relative_to(display_base.resolve()).as_posix()
            except ValueError:
                display = str(source_file)
        else:
            display = f"{src_root.name}/{relpath}"
        try:
            source = source_file.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(display, 1, RULE_PARSE_ERROR, f"unreadable: {exc}"))
            continue
        findings.extend(lint_source(source, relpath, display_path=display))
    return sorted(findings)


def format_text(findings: list[Finding]) -> str:
    if not findings:
        return "reprolint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(f"reprolint: {len(findings)} finding(s)")
    return "\n".join(lines)


def format_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "version": 1,
            "count": len(findings),
            "findings": [asdict(finding) for finding in findings],
        },
        indent=2,
        sort_keys=True,
    )
