"""Format-1 stores: refused with a pointer to ``migrate``, and migrated in place.

``tests/fixtures/store-format-1`` is a store written by the last format-1
build: a two-shard ``imc2002-survey`` campaign (4 hosts, seed 7, one round,
4 samples) interrupted after shard 0, so it holds ``manifest.json`` and
``shard-00000.jsonl``.  Migrating it (to format 3, which rebuilds its host
specs from the manifest's scenario origin) and resuming must reproduce the
uninterrupted campaign's digest, and a migration that fails before its
commit point (the manifest rewrite) must leave a format-1 store that a rerun
migrates.  The format-2 fixture's migration is pinned in
``test_store_format_2``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

import repro.store.store as store_module
from repro.__main__ import main
from repro.api import CampaignRequest, ResumeRequest, Session
from repro.core.campaign import CampaignConfig
from repro.core.runner import EXECUTOR_SERIAL
from repro.net.errors import StoreError
from repro.store import FORMAT_VERSION, CampaignStore, decode_record, migrate_store

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "store-format-1"

FIXTURE_REQUEST = CampaignRequest(
    scenario="imc2002-survey",
    config=CampaignConfig(rounds=1, samples_per_measurement=4),
    hosts=4,
    seed=7,
    shards=2,
)


@pytest.fixture(scope="module")
def uninterrupted_digest() -> str:
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(FIXTURE_REQUEST).result_digest


@pytest.fixture
def format_1_store(tmp_path) -> Path:
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    return root


def _fixture_records():
    lines = (FIXTURE / "shard-00000.jsonl").read_text().splitlines()
    return [decode_record(json.loads(line)) for line in lines[1:]]


def _resume(root: Path) -> tuple[list[int], str]:
    rerun: list[int] = []
    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(
            ResumeRequest(
                store=root,
                on_checkpoint=lambda outcome, completed, total: rerun.append(outcome.index),
            )
        )
    return rerun, envelope.result_digest


@pytest.mark.parametrize(
    "opener",
    [
        CampaignStore.open,
        lambda root: CampaignStore(root).begin(None, resume=True),
        lambda root: _resume(root),
    ],
    ids=["open", "begin", "resume-request"],
)
def test_a_format_1_store_is_refused_with_the_migrate_command(format_1_store, opener):
    with pytest.raises(StoreError, match="python -m repro migrate --store"):
        opener(format_1_store)


def test_migrate_then_resume_matches_uninterrupted(format_1_store, capsys, uninterrupted_digest):
    assert main(["migrate", "--store", str(format_1_store)]) == 0
    assert f"to format {FORMAT_VERSION}" in capsys.readouterr().out
    assert sorted(path.name for path in format_1_store.iterdir()) == [
        "manifest.json",
        "shards.log",
    ]
    manifest = json.loads((format_1_store / "manifest.json").read_text())
    assert manifest["format"] == FORMAT_VERSION
    store = CampaignStore.open(format_1_store)
    assert store.completed_shards() == frozenset({0})
    assert store.read_shard(0).records == _fixture_records()

    rerun, digest = _resume(format_1_store)
    assert rerun == [1]
    assert digest == uninterrupted_digest


def _fail_log_rename(real_replace):
    def replace(src, dst, *args, **kwargs):
        if Path(dst).name == store_module.LOG_NAME:
            raise OSError("injected failure before the log rename")
        real_replace(src, dst, *args, **kwargs)

    return replace


def _fail_manifest_rewrite(path, text):
    raise StoreError("injected failure before the manifest rewrite")


@pytest.mark.parametrize("failure", ["log-rename", "manifest-rewrite"])
def test_a_failed_migration_leaves_format_1_and_a_retry_migrates(
    format_1_store, monkeypatch, uninterrupted_digest, failure
):
    manifest = (format_1_store / "manifest.json").read_bytes()
    if failure == "log-rename":
        monkeypatch.setattr(os, "replace", _fail_log_rename(os.replace))
    else:
        monkeypatch.setattr(store_module, "_atomic_write_text", _fail_manifest_rewrite)
    with pytest.raises(StoreError, match="injected failure"):
        migrate_store(format_1_store)
    monkeypatch.undo()

    assert (format_1_store / "manifest.json").read_bytes() == manifest
    assert (format_1_store / "shard-00000.jsonl").exists()
    with pytest.raises(StoreError, match="format 1"):
        CampaignStore.open(format_1_store)

    assert migrate_store(format_1_store) is True
    rerun, digest = _resume(format_1_store)
    assert rerun == [1]
    assert digest == uninterrupted_digest


def test_a_rerun_after_the_commit_point_removes_the_leftovers(format_1_store):
    """A crash after the manifest rewrite leaves old segments and temp files;
    rerunning the migration deletes them and leaves the log as it was."""
    assert migrate_store(format_1_store) is True
    log = (format_1_store / "shards.log").read_bytes()
    shutil.copy(FIXTURE / "shard-00000.jsonl", format_1_store)
    (format_1_store / "shards.log.tmp").write_bytes(log[:7])
    (format_1_store / "manifest.json.tmp").write_text('{"format": 1')

    assert migrate_store(format_1_store) is False
    assert sorted(path.name for path in format_1_store.iterdir()) == [
        "manifest.json",
        "shards.log",
    ]
    assert (format_1_store / "shards.log").read_bytes() == log


def test_migrate_on_a_format_3_store_does_nothing(tmp_path, capsys):
    root = tmp_path / "store"
    with Session(backend=EXECUTOR_SERIAL) as session:
        session.run(CampaignRequest(
            scenario="imc2002-survey",
            config=CampaignConfig(rounds=1, samples_per_measurement=2),
            hosts=2,
            seed=3,
            shards=2,
            store=root,
        ))
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    assert main(["migrate", "--store", str(root)]) == 0
    assert "nothing to migrate" in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before


@pytest.mark.parametrize(
    "segments",
    [{}, {"0": "shard-00000.jsonl", "1": "shard-00001.jsonl"}, {"zero": "shard-00000.jsonl"}],
    ids=["orphan", "stale", "malformed"],
)
def test_migrate_ignores_a_manifest_segment_index(format_1_store, segments):
    """Older format-1 manifests carry a ``segments`` map; the segment files
    on disk decide what migrates, whatever the map says."""
    path = format_1_store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["segments"] = segments
    path.write_text(json.dumps(manifest))

    assert migrate_store(format_1_store) is True
    store = CampaignStore.open(format_1_store)
    assert store.completed_shards() == frozenset({0})
    assert list(store.iter_records()) == _fixture_records()
    assert "segments" not in json.loads(path.read_text())


def test_migrate_refuses_a_corrupt_segment_and_changes_nothing(format_1_store, capsys):
    segment = format_1_store / "shard-00000.jsonl"
    lines = segment.read_text().splitlines()
    segment.write_text("\n".join(lines[:-1]) + "\n")  # drop the last record
    before = {path.name: path.read_bytes() for path in format_1_store.iterdir()}

    assert main(["migrate", "--store", str(format_1_store)]) == 1
    assert "truncated" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in format_1_store.iterdir()} == before


def test_migrate_without_a_store_is_an_error(tmp_path, capsys):
    assert main(["migrate", "--store", str(tmp_path / "missing")]) == 1
    assert "no campaign store" in capsys.readouterr().err
