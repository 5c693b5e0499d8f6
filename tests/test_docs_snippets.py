"""Documentation checks: code snippets must run, dotted references must exist.

Every fenced ``python`` block in ``README.md`` and ``docs/architecture.md``
is executed, and every ``repro.*`` dotted path mentioned anywhere in the
documents must resolve to a real module and, past the module, to a real
attribute at every step (``repro.net.flow.format_address``,
``repro.api.Session.run``) — so the docs cannot drift from the code
without failing CI.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "architecture.md"]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MODULE_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _python_blocks() -> list[tuple[str, int, str]]:
    blocks = []
    for doc in DOCS:
        text = doc.read_text()
        for index, match in enumerate(_FENCE.finditer(text)):
            blocks.append((doc.name, index, match.group(1)))
    return blocks


def _module_refs() -> set[str]:
    refs = set()
    for doc in DOCS:
        refs.update(match.group(0) for match in _MODULE_REF.finditer(doc.read_text()))
    return refs


def test_docs_exist():
    for doc in DOCS:
        assert doc.exists(), f"missing documentation file: {doc}"
    assert _python_blocks(), "expected at least one python snippet in the docs"


BLOCKS = _python_blocks()


# Ids name each block by its document and position (``README.md-block3``),
# not by its source, so editing a block does not rename its test.
@pytest.mark.parametrize(
    "doc,index,source",
    BLOCKS,
    ids=[f"{doc}-block{index}" for doc, index, _source in BLOCKS],
)
def test_doc_snippet_executes(doc, index, source):
    """Each fenced python block must run unmodified against the library."""
    exec(compile(source, f"{doc}:block{index}", "exec"), {"__name__": f"doc_snippet_{index}"})


def test_doc_module_references_resolve():
    """Every dotted repro.* path in the docs must lead to a real module, then
    through a real attribute for each name after it."""
    missing = []
    for dotted in sorted(_module_refs()):
        parts = dotted.split(".")
        found = False
        # A reference may name a module or an attribute path inside one
        # (class, function, method); the longest importable prefix of length
        # >= 2 is the module, and every remaining name must resolve in turn.
        for cut in range(len(parts), 1, -1):
            module_name = ".".join(parts[:cut])
            try:
                spec = importlib.util.find_spec(module_name)
            except ModuleNotFoundError:
                continue
            if spec is None:
                continue
            owner = importlib.import_module(module_name)
            found = True
            for name in parts[cut:]:
                if not hasattr(owner, name):
                    found = False
                    break
                owner = getattr(owner, name)
            break
        if not found:
            missing.append(dotted)
    assert not missing, f"documentation references unknown modules/attributes: {missing}"
