#!/usr/bin/env python3
"""Run mypy --strict over the typed islands, honouring the allowlist.

The strict surface is configured in ``pyproject.toml`` (``[tool.mypy]``):
the ``repro.lint`` analyzer itself plus the two binary wire modules
(``distributed/protocol.py``, ``core/transport.py``).

``tools/mypy_allowlist.txt`` lists error lines that are known, reviewed, and
tracked: one ``path:line: error: ...`` prefix per line, ``#`` comments
allowed.  An emitted error matching an allowlist prefix is reported but does
not fail the run; an allowlist entry matching nothing is stale and *does*
fail the run, so the list can only shrink silently, never rot.

Exit status: 0 clean (or mypy not installed — CI installs it, developer
machines may not have it), 1 on new errors or stale allowlist entries, 2 on
usage problems.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "mypy_allowlist.txt"


def load_allowlist() -> list[str]:
    if not ALLOWLIST.is_file():
        return []
    entries: list[str] = []
    for raw in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def main() -> int:
    try:
        import mypy  # noqa: F401
    except ImportError:
        print("check_types: mypy is not installed; skipping (CI runs this)")
        return 0
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    allow = load_allowlist()
    used: set[str] = set()
    new_errors: list[str] = []
    for line in proc.stdout.splitlines():
        if ": error:" not in line:
            continue
        matched = next((entry for entry in allow if line.startswith(entry)), None)
        if matched is not None:
            used.add(matched)
            print(f"allowed: {line}")
        else:
            new_errors.append(line)
            print(line)
    stale = [entry for entry in allow if entry not in used]
    for entry in stale:
        print(f"stale allowlist entry (remove it): {entry}")
    if new_errors or stale:
        return 1
    print("check_types: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
