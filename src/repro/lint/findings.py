"""The analyzer's output model: findings, and the ``allow`` escape hatch.

A finding is one ``path:line: RULE-ID message`` diagnostic.  Suppression is
explicit and auditable: a ``# reprolint: allow(RULE-ID): reason`` comment on
the flagged line (or alone on the line directly above it) silences exactly
that rule at exactly that site.  The reason string is mandatory — an allow
is a claim that a human looked at the site and decided the rule does not
apply, and the claim must say why.  Allows are themselves linted:

* ``LINT001`` — an allow without a reason string,
* ``LINT002`` — an allow naming a rule id the analyzer does not define,
* ``LINT003`` — an allow that suppressed nothing (stale after a refactor).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

ALLOW_RE = re.compile(
    r"#\s*reprolint:\s*allow\(\s*(?P<rule>[A-Za-z0-9_-]+)\s*\)"
    r"(?P<colon>\s*:\s*(?P<reason>\S.*)?)?"
)

RULE_ALLOW_NO_REASON = "LINT001"
RULE_ALLOW_UNKNOWN = "LINT002"
RULE_ALLOW_UNUSED = "LINT003"

META_RULES: dict[str, str] = {
    RULE_ALLOW_NO_REASON: "a reprolint allow comment must carry a reason string",
    RULE_ALLOW_UNKNOWN: "a reprolint allow comment names an unknown rule id",
    RULE_ALLOW_UNUSED: "a reprolint allow comment suppressed nothing (stale?)",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what is wrong."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Allow:
    """One parsed ``# reprolint: allow(...)`` comment."""

    line: int
    rule: str
    reason: str
    has_colon: bool
    used: bool = False

    def covers(self, finding_line: int) -> bool:
        """An allow covers its own line and the line directly below it."""
        return finding_line in (self.line, self.line + 1)


def collect_allows(source: str) -> list[Allow]:
    """Parse every allow comment in ``source`` (tokenizer-exact, not regex
    over strings, so allow text inside string literals never counts)."""
    allows: list[Allow] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = ALLOW_RE.search(token.string)
            if match is None:
                continue
            allows.append(
                Allow(
                    line=token.start[0],
                    rule=match.group("rule"),
                    reason=(match.group("reason") or "").strip(),
                    has_colon=match.group("colon") is not None,
                )
            )
    except tokenize.TokenError:
        pass  # the syntax error surfaces as a parse failure elsewhere
    return allows


def apply_allows(
    path: str,
    findings: list[Finding],
    allows: list[Allow],
    known_rules: frozenset[str],
) -> list[Finding]:
    """Drop suppressed findings; lint the allow comments themselves."""
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for allow in allows:
            if allow.rule == finding.rule and allow.covers(finding.line):
                allow.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)
    for allow in allows:
        if allow.rule not in known_rules:
            kept.append(
                Finding(
                    path,
                    allow.line,
                    RULE_ALLOW_UNKNOWN,
                    f"allow names unknown rule {allow.rule!r}",
                )
            )
            continue
        if not allow.reason:
            kept.append(
                Finding(
                    path,
                    allow.line,
                    RULE_ALLOW_NO_REASON,
                    f"allow({allow.rule}) needs a reason: "
                    f"`# reprolint: allow({allow.rule}): <why>`",
                )
            )
        elif not allow.used:
            kept.append(
                Finding(
                    path,
                    allow.line,
                    RULE_ALLOW_UNUSED,
                    f"allow({allow.rule}) suppressed no finding; remove it",
                )
            )
    return kept
