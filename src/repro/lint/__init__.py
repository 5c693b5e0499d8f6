"""``reprolint``: the repo's own AST-based static analyzer.

Two rule families protect the invariants the golden-digest tests can only
check dynamically:

* **determinism** (``DET00x``) — no wall clocks, no ambient entropy, no
  unordered collections feeding digests inside the deterministic layers;
* **lock discipline** (``LOCK00x``) — shared attributes accessed under
  their guard, predicate loops around ``Condition.wait()``, no
  thread-start/attribute-assignment races in the threaded layers.

Suppression is explicit: ``# reprolint: allow(RULE-ID): reason``.  See
:mod:`repro.lint.engine` for scoping and :mod:`repro.lint.cli` for the
``python -m repro lint`` front door.
"""

from __future__ import annotations

from repro.lint.engine import (
    ALL_RULES,
    families_for,
    format_json,
    format_text,
    lint_source,
    run_lint,
)
from repro.lint.findings import Finding

__all__ = [
    "ALL_RULES",
    "Finding",
    "families_for",
    "format_json",
    "format_text",
    "lint_source",
    "run_lint",
]
