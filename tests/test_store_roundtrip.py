"""Store serialization: lossless round-trips and on-disk integrity checks.

The resume guarantee rests on the codec being *exact*: any record a shard can
produce must come back from JSON equal to the original.  Hypothesis drives
that over the full result-type tree (samples, measurements, reports, records,
whole shard outcomes); the integrity tests pin the store's corruption and
misuse behaviour (truncated segments, mismatched plans, double commits,
stray segments) and its commit protocol (one durable rename per shard, a
manifest written once, crash leftovers ignored).
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import survey_from_store
from repro.api import CampaignRequest, ResumeRequest, Session
from repro.core.campaign import CampaignConfig, HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import EXECUTOR_SERIAL, ShardOutcome
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.net.errors import StoreError
from repro.store import (
    CampaignPlan,
    CampaignStore,
    decode_measurement,
    decode_record,
    decode_report,
    decode_sample,
    encode_measurement,
    encode_record,
    encode_report,
    encode_sample,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
short_text = st.text(max_size=24)
addresses = st.integers(min_value=0, max_value=2**32 - 1)
uid_tuples = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=3).map(tuple)

samples = st.builds(
    ReorderSample,
    index=st.integers(min_value=0, max_value=10_000),
    time=finite_floats,
    spacing=finite_floats,
    forward=st.sampled_from(SampleOutcome),
    reverse=st.sampled_from(SampleOutcome),
    detail=short_text,
    probe_uids=uid_tuples,
    response_uids=uid_tuples,
)

measurements = st.builds(
    MeasurementResult,
    test_name=short_text,
    host_address=addresses,
    start_time=finite_floats,
    end_time=finite_floats,
    spacing=finite_floats,
    samples=st.lists(samples, max_size=6),
    notes=short_text,
)

reports = st.builds(
    ProbeReport,
    test=st.sampled_from(TestName),
    host_address=addresses,
    result=st.none() | measurements,
    error=st.none() | short_text,
    ineligible=st.booleans(),
)

records = st.builds(
    HostRoundResult,
    round_index=st.integers(min_value=0, max_value=500),
    host_address=addresses,
    test=st.sampled_from(TestName),
    time=finite_floats,
    report=reports,
    scenario=st.none() | short_text,
)


def _through_json(payload):
    """The exact path a record takes to disk and back: dumps then loads."""
    return json.loads(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@given(samples)
def test_sample_roundtrip_is_lossless(sample):
    assert decode_sample(_through_json(encode_sample(sample))) == sample


@given(measurements)
def test_measurement_roundtrip_is_lossless(measurement):
    assert decode_measurement(_through_json(encode_measurement(measurement))) == measurement


@given(reports)
def test_report_roundtrip_is_lossless(report):
    assert decode_report(_through_json(encode_report(report))) == report


@given(records)
def test_record_roundtrip_is_lossless(record):
    assert decode_record(_through_json(encode_record(record))) == record


def _plan(shards: int = 1, host_addresses: tuple[int, ...] = (1, 2)) -> CampaignPlan:
    config = CampaignConfig(rounds=1, samples_per_measurement=2)
    return CampaignPlan(
        seed=7,
        shards=shards,
        remote_port=80,
        scenario="test",
        tests=TestName.all(),
        config=config,
        specs_digest="d" * 64,
        host_addresses=host_addresses,
        origin=None,
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(records, max_size=8))
def test_shard_outcome_survives_the_store(record_list):
    """write_shard → read_shard reconstructs the outcome field for field."""
    outcome = ShardOutcome(index=0, host_addresses=(1, 2), records=record_list)
    with tempfile.TemporaryDirectory() as root:
        store = CampaignStore.create(Path(root) / "campaign", _plan())
        store.write_shard(outcome)
        loaded = store.read_shard(0)
    assert loaded.index == outcome.index
    assert loaded.host_addresses == outcome.host_addresses
    assert loaded.records == outcome.records


def _record(round_index: int = 0) -> HostRoundResult:
    return HostRoundResult(
        round_index=round_index,
        host_address=1,
        test=TestName.SYN,
        time=0.5,
        report=ProbeReport(test=TestName.SYN, host_address=1, result=None, error="x"),
        scenario="test",
    )


def test_store_rejects_double_commit(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    with pytest.raises(StoreError, match="already durable"):
        store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[]))


def test_store_rejects_out_of_plan_shard(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan(shards=1))
    with pytest.raises(StoreError, match="outside plan"):
        store.write_shard(ShardOutcome(index=3, host_addresses=(1,), records=[]))


def test_store_detects_truncated_segment(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan())
    store.write_shard(
        ShardOutcome(index=0, host_addresses=(1,), records=[_record(0), _record(1)])
    )
    segment = tmp_path / "c" / "shard-00000.jsonl"
    lines = segment.read_text().splitlines()
    segment.write_text("\n".join(lines[:-1]) + "\n")  # drop the last record
    reopened = CampaignStore.open(tmp_path / "c")
    with pytest.raises(StoreError, match="truncated"):
        reopened.read_shard(0)
    with pytest.raises(StoreError, match="truncated"):
        next(reopened.iter_records())  # validated before the first record


def test_store_detects_corrupt_json(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan())
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    segment = tmp_path / "c" / "shard-00000.jsonl"
    segment.write_text(segment.read_text()[:-10] + "not json}\n")
    with pytest.raises(StoreError, match="corrupt JSON"):
        CampaignStore.open(tmp_path / "c").read_shard(0)


def test_store_adopts_orphan_segment(tmp_path):
    """A durable segment that a manifest's ``segments`` map omits still counts.

    Older builds kept that map and could crash before updating it.  The
    directory is now the only index, so no such window exists, and a store
    left in that state opens with every durable segment.
    """
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["segments"] = {}
    manifest_path.write_text(json.dumps(manifest))
    reopened = CampaignStore.open(tmp_path / "c")
    assert reopened.completed_shards() == frozenset({0})
    assert len(reopened.read_shard(0).records) == 1


def test_begin_rejects_mismatched_plan(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    other = _plan(shards=3)
    with pytest.raises(StoreError, match="differs on: shards"):
        CampaignStore(tmp_path / "c").begin(other, resume=True)


def test_begin_requires_resume_once_shards_exist(tmp_path):
    plan = _plan(shards=2)
    store = CampaignStore.create(tmp_path / "c", plan)
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[]))
    with pytest.raises(StoreError, match="resume=True"):
        CampaignStore(tmp_path / "c").begin(plan, resume=False)
    assert CampaignStore(tmp_path / "c").begin(plan, resume=True) == frozenset({0})


def test_load_result_requires_a_complete_store(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[]))
    with pytest.raises(StoreError, match="incomplete"):
        store.load_result()


def test_store_wraps_malformed_data_in_store_errors(tmp_path):
    """Corrupt headers/records surface as StoreError, never raw
    KeyError/ValueError, so the CLI's handled error path stays reachable."""
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))

    segment = tmp_path / "c" / "shard-00000.jsonl"
    lines = segment.read_text().splitlines()
    header = json.loads(lines[0])
    del header["shard"]
    segment.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(StoreError, match="claims shard"):
        CampaignStore.open(tmp_path / "c").read_shard(0)

    record = json.loads(lines[1])
    del record["report"]
    segment.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(StoreError, match="malformed record"):
        CampaignStore.open(tmp_path / "c").read_shard(0)


@pytest.mark.parametrize(
    "segments",
    [{"0": "shard-00000.jsonl", "1": "shard-00001.jsonl"}, {"zero": "shard-00000.jsonl"}],
    ids=["stale", "malformed"],
)
def test_store_ignores_a_manifest_segment_index(tmp_path, segments):
    """Manifests written by older builds carry a ``segments`` map; the
    directory decides which shards are durable, whatever the map says."""
    records = [_record(0), _record(1)]
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=records))
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["segments"] = segments
    manifest_path.write_text(json.dumps(manifest))

    reopened = CampaignStore.open(tmp_path / "c")
    assert reopened.completed_shards() == frozenset({0})
    assert reopened.read_shard(0).records == records
    assert list(reopened.iter_records()) == records


def test_one_checkpoint_is_one_file_fsync_and_one_directory_fsync(tmp_path, monkeypatch):
    """The segment rename is the whole commit: opening, resuming and
    committing never touch the manifest written at creation."""
    plan = _plan(shards=2)
    CampaignStore.create(tmp_path / "c", plan)
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest_bytes, manifest_inode = manifest_path.read_bytes(), manifest_path.stat().st_ino

    synced: list[str] = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    store = CampaignStore.open(tmp_path / "c")
    assert store.begin(plan, resume=True) == frozenset()
    assert synced == []
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    assert sorted(synced) == ["dir", "file"]
    assert manifest_path.read_bytes() == manifest_bytes
    assert manifest_path.stat().st_ino == manifest_inode
    assert sorted(path.name for path in (tmp_path / "c").iterdir()) == [
        "manifest.json",
        "shard-00000.jsonl",
    ]


@pytest.mark.parametrize(
    "fresh",
    [CampaignStore.create, lambda root, plan: CampaignStore(root).begin(plan)],
    ids=["create", "begin"],
)
def test_new_store_refuses_a_directory_holding_segments(tmp_path, fresh):
    """A stray segment would otherwise count as durable for the new campaign."""
    other = CampaignStore.create(tmp_path / "other", _plan(shards=2))
    other.write_shard(ShardOutcome(index=1, host_addresses=(2,), records=[_record()]))
    root = tmp_path / "c"
    root.mkdir()
    shutil.copy(tmp_path / "other" / "shard-00001.jsonl", root)
    with pytest.raises(StoreError, match="no manifest"):
        fresh(root, _plan(shards=2))
    assert not (root / "manifest.json").exists()


def test_every_read_path_checks_the_header_shard_claim(tmp_path):
    root = tmp_path / "c"
    store = CampaignStore.create(root, _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record(0)]))
    store.write_shard(ShardOutcome(index=1, host_addresses=(2,), records=[_record(1)]))
    # A well-formed segment filed under the wrong shard's name.
    shutil.copy(root / "shard-00000.jsonl", root / "shard-00001.jsonl")
    reopened = CampaignStore.open(root)
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        reopened.read_shard(1)
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        list(reopened.iter_records())
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        reopened.load_result()
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        survey_from_store(reopened)


class _Interrupt(BaseException):
    """Raised from the checkpoint hook; BaseException so no handler eats it."""


def test_crash_leftovers_are_ignored_and_the_shard_reruns(tmp_path):
    """``*.tmp`` files a crash leaves behind never count as durable."""
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=CampaignConfig(rounds=1, samples_per_measurement=4),
        hosts=4,
        seed=11,
        shards=2,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        reference = session.run(request).result_digest

    root = tmp_path / "c"

    def crash(outcome, completed, total):
        raise _Interrupt()

    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(_Interrupt):
            session.run(replace(request, store=root, on_checkpoint=crash))
    assert CampaignStore.open(root).completed_shards() == frozenset({0})
    (root / "shard-00001.jsonl.tmp").write_text('{"shard": 1, "host_addr')
    (root / "manifest.json.tmp").write_text('{"format": 1, "pl')

    rerun: list[int] = []
    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(
            ResumeRequest(
                store=root,
                on_checkpoint=lambda outcome, completed, total: rerun.append(outcome.index),
            )
        )
    assert rerun == [1]
    assert envelope.result_digest == reference
    assert not (root / "shard-00001.jsonl.tmp").exists()
