"""Store format 2 pinned by bytes a format-2 build wrote.

``tests/fixtures/store-format-2`` is a complete two-shard ``imc2002-survey``
campaign (3 hosts, seed 5, one round, 3 samples, all four techniques, serial
backend).  Its records cover every shape the codec carries: all four sample
outcomes, an error string, an ineligible host and a report without a
measurement.  Reading it must give the pinned digest, and writing its shards
back, in index order, into a fresh store with the same plan must reproduce
its ``shards.log`` and ``manifest.json`` byte for byte.  So a change to the
record codec that alters a single byte of format 2 fails here.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.runner import result_digest
from repro.store import LOG_NAME, MANIFEST_NAME, CampaignStore

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "store-format-2"
FIXTURE_DIGEST = "d6c594d8d4b8007cfc1e3d8744debaecb0ce0a557cd8f9ab0ec5a6abe8bc78dc"


def test_the_format_2_fixture_reads_to_its_pinned_digest():
    store = CampaignStore.open(FIXTURE)
    assert store.is_complete()
    assert result_digest(store.load_result()) == FIXTURE_DIGEST


def test_rewriting_the_format_2_fixture_reproduces_its_bytes(tmp_path):
    source = CampaignStore.open(FIXTURE)
    copy = CampaignStore.create(tmp_path / "copy", source.plan())
    for index in sorted(source.completed_shards()):
        copy.write_shard(source.read_shard(index))
    for name in (MANIFEST_NAME, LOG_NAME):
        assert (copy.root / name).read_bytes() == (FIXTURE / name).read_bytes(), name
