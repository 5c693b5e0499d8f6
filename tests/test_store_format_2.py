"""Store format 2 pinned by bytes a format-2 build wrote, migrated to format 3.

``tests/fixtures/store-format-2`` is a complete two-shard ``imc2002-survey``
campaign (3 hosts, seed 5, one round, 3 samples, all four techniques, serial
backend).  Its records cover every shape the codec carries: all four sample
outcomes, an error string, an ineligible host and a report without a
measurement.  Format 3 changed only the manifest (it holds the host specs),
so a migrated copy must keep the fixture's ``shards.log`` byte for byte and
read to the pinned digest, and writing its shards back, in index order, into
a fresh store with the migrated plan must reproduce both of the migrated
files byte for byte.  So a change to the record codec that alters a single
byte of the log fails here.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.runner import result_digest
from repro.net.errors import StoreError
from repro.store import LOG_NAME, MANIFEST_NAME, CampaignStore, migrate_store

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "store-format-2"
FIXTURE_DIGEST = "d6c594d8d4b8007cfc1e3d8744debaecb0ce0a557cd8f9ab0ec5a6abe8bc78dc"


@pytest.fixture
def migrated(tmp_path) -> Path:
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    assert migrate_store(root) is True
    return root


def test_the_format_2_fixture_is_refused_until_migrated():
    with pytest.raises(StoreError, match="format 2; convert it with `python -m repro migrate"):
        CampaignStore.open(FIXTURE)


def test_the_format_2_fixture_reads_to_its_pinned_digest(migrated):
    assert (migrated / LOG_NAME).read_bytes() == (FIXTURE / LOG_NAME).read_bytes()
    store = CampaignStore.open(migrated)
    assert store.is_complete()
    assert result_digest(store.load_result()) == FIXTURE_DIGEST
    old_plan = json.loads((FIXTURE / MANIFEST_NAME).read_text())["plan"]
    assert store.plan().host_addresses == tuple(old_plan["host_addresses"])


def test_rewriting_the_format_2_fixture_reproduces_its_bytes(migrated, tmp_path):
    source = CampaignStore.open(migrated)
    copy = CampaignStore.create(tmp_path / "copy", source.plan())
    for index in sorted(source.completed_shards()):
        copy.write_shard(source.read_shard(index))
    for name in (MANIFEST_NAME, LOG_NAME):
        assert (copy.root / name).read_bytes() == (migrated / name).read_bytes(), name


@pytest.mark.parametrize(
    "key, value, message",
    [("origin", None, "no scenario origin"), ("shards", 10, "malformed campaign plan")],
    ids=["no-origin", "more-shards-than-hosts"],
)
def test_a_legacy_plan_that_cannot_be_rebuilt_is_refused_unchanged(
    tmp_path, capsys, key, value, message
):
    """A manifest that holds neither specs nor a way to rebuild them, or
    whose rebuilt plan breaks the plan's invariants, is left as it was."""
    from repro.__main__ import main

    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    manifest["plan"][key] = value
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))
    before = {path.name: path.read_bytes() for path in root.iterdir()}

    assert main(["migrate", "--store", str(root)]) == 1
    assert message in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before
