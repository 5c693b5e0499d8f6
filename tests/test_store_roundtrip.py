"""Store serialization: lossless round-trips and on-disk integrity checks.

The resume guarantee rests on the codec being *exact*: any record a shard can
produce must come back from JSON equal to the original.  Hypothesis drives
that over the full result-type tree (samples, measurements, reports, records,
whole shard outcomes); the integrity tests pin the store's corruption and
misuse behaviour (truncated or corrupt payloads, torn and corrupt log
frames, bad shard claims, malformed manifests and records, mismatched
plans, double commits, a stray log) and its commit protocol (one log fsync
per shard, a manifest written once, crash leftovers ignored).
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
from repro.core.runner import EXECUTOR_SERIAL, CampaignPlan, ShardOutcome
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.core.schema import from_json, to_json
from repro.net.errors import StoreError
from repro.workloads.testbed import HostSpec
from repro.store import (
    FORMAT_VERSION,
    CampaignStore,
    decode_record,
    encode_record,
)
from repro.store.codec import encode_frame
from _store_helpers import FRAME, frame, frame_payloads

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
    assert from_json(ReorderSample, _through_json(to_json(sample))) == sample


@given(measurements)
def test_measurement_roundtrip_is_lossless(measurement):
    assert from_json(MeasurementResult, _through_json(to_json(measurement))) == measurement


@given(reports)
def test_report_roundtrip_is_lossless(report):
    assert from_json(ProbeReport, _through_json(to_json(report))) == report


@given(records)
def test_record_roundtrip_is_lossless(record):
    assert decode_record(_through_json(encode_record(record))) == record


def _plan(
    shards: int = 1,
    host_addresses: tuple[int, ...] = (1, 2),
    tests: tuple[TestName, ...] = TestName.all(),
) -> CampaignPlan:
    config = CampaignConfig(rounds=1, samples_per_measurement=2)
    return CampaignPlan(
        seed=7,
        shards=shards,
        remote_port=80,
        scenario="test",
        tests=tests,
        config=config,
        specs=tuple(HostSpec(name=f"h{address}", address=address) for address in host_addresses),
    )


# Records a one-round plan over hosts (1, 2) accepts on read-back.
plan_records = st.builds(
    HostRoundResult,
    round_index=st.just(0),
    host_address=st.sampled_from((1, 2)),
    test=st.sampled_from(TestName),
    time=finite_floats,
    report=reports,
    scenario=st.none() | short_text,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(plan_records, max_size=8))
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


def _record(round_index: int = 0, host: int = 1) -> HostRoundResult:
    return HostRoundResult(
        round_index=round_index,
        host_address=host,
        test=TestName.SYN,
        time=0.5,
        report=ProbeReport(test=TestName.SYN, host_address=host, result=None, error="x"),
        scenario="test",
    )


def _frames(root: Path) -> list[bytes]:
    """The payloads of a store's log frames, in log order."""
    return frame_payloads((root / "shards.log").read_bytes())


def _rewrite_payload(root: Path, position: int, edit) -> None:
    """Replace one frame's payload with ``edit(lines)``, re-framed with a valid
    CRC so the damage reaches the payload validators, not the frame check."""
    payloads = _frames(root)
    lines = payloads[position].decode().splitlines()
    payloads[position] = ("\n".join(edit(lines)) + "\n").encode()
    (root / "shards.log").write_bytes(b"".join(frame(payload) for payload in payloads))


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
        ShardOutcome(index=0, host_addresses=(1, 2), records=[_record(0, 1), _record(0, 2)])
    )
    _rewrite_payload(tmp_path / "c", 0, lambda lines: lines[:-1])  # drop the last record
    reopened = CampaignStore.open(tmp_path / "c")
    with pytest.raises(StoreError, match="truncated"):
        reopened.read_shard(0)
    with pytest.raises(StoreError, match="truncated"):
        next(reopened.iter_records())  # validated before the first record


def test_store_detects_corrupt_json(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan())
    store.write_shard(ShardOutcome(index=0, host_addresses=(1, 2), records=[_record()]))
    _rewrite_payload(tmp_path / "c", 0, lambda lines: [lines[0], lines[1][:-10] + "not json}"])
    with pytest.raises(StoreError, match="corrupt JSON"):
        CampaignStore.open(tmp_path / "c").read_shard(0)


def test_begin_rejects_mismatched_plan(tmp_path):
    store = CampaignStore.create(tmp_path / "c", _plan(shards=2, host_addresses=(1, 2, 3)))
    other = _plan(shards=3, host_addresses=(1, 2, 3))
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
    root = tmp_path / "c"
    store = CampaignStore.create(root, _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    original = (root / "shards.log").read_bytes()

    def drop(key: str, position: int):
        def edit(lines):
            value = json.loads(lines[position])
            del value[key]
            lines[position] = json.dumps(value)
            return lines

        return edit

    _rewrite_payload(root, 0, drop("shard", 0))
    with pytest.raises(StoreError, match="claims no shard"):
        CampaignStore.open(root)

    (root / "shards.log").write_bytes(original)
    _rewrite_payload(root, 0, drop("report", 1))
    with pytest.raises(StoreError, match="malformed record"):
        CampaignStore.open(root).read_shard(0)

    def negative_count(lines):
        header = json.loads(lines[0])
        header["records"] = -1
        return [json.dumps(header), *lines[1:]]

    (root / "shards.log").write_bytes(original)
    _rewrite_payload(root, 0, negative_count)
    with pytest.raises(StoreError, match="malformed header"):
        CampaignStore.open(root).read_shard(0)


def _campaign_store(root: Path) -> None:
    """A complete two-shard, one-round store over hosts (1, 2) and SYN only."""
    store = CampaignStore.create(root, _plan(shards=2, tests=(TestName.SYN,)))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record(0, 1)]))
    store.write_shard(ShardOutcome(index=1, host_addresses=(2,), records=[_record(0, 2)]))


def _edit_manifest(edit):
    def apply(root: Path) -> None:
        path = root / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))

    return apply


def _edit_plan(key, value):
    def edit(manifest):
        manifest["plan"][key] = value
        return manifest

    return _edit_manifest(edit)


def _edit_record(key, value):
    def edit(lines):
        record = json.loads(lines[1])
        record[key] = value
        return [lines[0], json.dumps(record)]

    return lambda root: _rewrite_payload(root, 0, edit)


@pytest.mark.parametrize(
    "damage",
    [
        _edit_manifest(lambda manifest: []),
        _edit_plan("shards", "2"),
        _edit_plan("seed", True),
        _edit_record("test", TestName.DATA_TRANSFER.value),
        _edit_record("host_address", None),
        _edit_record("host_address", 7),
        _edit_record("host_address", "x"),
        _edit_record("host_address", [1]),
        _edit_record("round_index", "0"),
        _edit_record("round_index", 7),
        _edit_record("time", []),
        _edit_record("scenario", 7),
        _edit_record("host_address", 2),  # shard 1's host, filed in shard 0
    ],
    ids=[
        "manifest-not-an-object",
        "plan-shards-str",
        "plan-seed-bool",
        "test-outside-plan",
        "host-none",
        "host-not-in-plan",
        "host-str",
        "host-list",
        "round-str",
        "round-outside-plan",
        "time-list",
        "scenario-int",
        "host-of-another-shard",
    ],
)
def test_malformed_store_input_raises_store_error(tmp_path, damage):
    """Each damage once escaped as a raw exception or was merged silently."""
    root = tmp_path / "c"
    _campaign_store(root)
    assert len(CampaignStore.open(root).load_result().records) == 2
    damage(root)
    with pytest.raises(StoreError):
        CampaignStore.open(root).load_result()


def test_one_checkpoint_is_one_file_fsync_and_no_rename(tmp_path, monkeypatch):
    """One log fsync is the whole commit: no temp file, no rename, no
    directory fsync, and the manifest written at creation is never touched."""
    plan = _plan(shards=2)
    CampaignStore.create(tmp_path / "c", plan)
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest_bytes, manifest_inode = manifest_path.read_bytes(), manifest_path.stat().st_ino

    synced: list[str] = []
    replaced: list[tuple] = []
    real_fsync, real_replace = os.fsync, os.replace

    def counting_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def counting_replace(*args, **kwargs):
        replaced.append(args)
        real_replace(*args, **kwargs)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "replace", counting_replace)
    store = CampaignStore.open(tmp_path / "c")
    assert store.begin(plan, resume=True) == frozenset()
    assert synced == []
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    assert synced == ["file"]
    assert replaced == []
    assert manifest_path.read_bytes() == manifest_bytes
    assert manifest_path.stat().st_ino == manifest_inode
    assert sorted(path.name for path in (tmp_path / "c").iterdir()) == [
        "manifest.json",
        "shards.log",
    ]


@pytest.mark.parametrize(
    "fresh",
    [CampaignStore.create, lambda root, plan: CampaignStore(root).begin(plan)],
    ids=["create", "begin"],
)
def test_new_store_refuses_a_directory_holding_a_log(tmp_path, fresh):
    """A stray log's frames would otherwise count as durable for the new campaign."""
    other = CampaignStore.create(tmp_path / "other", _plan(shards=2))
    other.write_shard(ShardOutcome(index=1, host_addresses=(2,), records=[_record(0, 2)]))
    root = tmp_path / "c"
    root.mkdir()
    shutil.copy(tmp_path / "other" / "shards.log", root)
    with pytest.raises(StoreError, match="no manifest"):
        fresh(root, _plan(shards=2))
    assert not (root / "manifest.json").exists()


def test_a_new_store_adopts_an_empty_log(tmp_path):
    """A crash between creating the log and writing the manifest leaves an
    empty log; the next create() commits the manifest beside it."""
    root = tmp_path / "c"
    root.mkdir()
    (root / "shards.log").write_bytes(b"")
    store = CampaignStore.create(root, _plan(shards=2))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record()]))
    assert CampaignStore.open(root).read_shard(0).records == [_record()]


def test_every_read_path_checks_the_header_shard_claim(tmp_path):
    root = tmp_path / "c"
    _campaign_store(root)
    reopened = CampaignStore.open(root)
    # After the index is built, a well-formed frame claiming shard 0 lands
    # where shard 1's frame was (the two frames have the same length).
    log = (root / "shards.log").read_bytes()
    assert len(log) % 2 == 0
    (root / "shards.log").write_bytes(log[: len(log) // 2] * 2)
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        reopened.read_shard(1)
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        list(reopened.iter_records())
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        reopened.load_result()
    with pytest.raises(StoreError, match="claims shard 0, expected 1"):
        survey_from_store(reopened)
    with pytest.raises(StoreError, match="claims shard 0, already committed"):
        CampaignStore.open(root)


def _two_frame_store(root: Path) -> CampaignStore:
    store = CampaignStore.create(root, _plan(shards=3, host_addresses=(1, 2, 3)))
    store.write_shard(ShardOutcome(index=0, host_addresses=(1,), records=[_record(0, 1)]))
    store.write_shard(ShardOutcome(index=1, host_addresses=(2,), records=[_record(0, 2)]))
    return store


def test_a_torn_final_frame_is_not_durable_at_any_offset(tmp_path):
    """Cut the log anywhere inside its final frame: that shard is not durable,
    the earlier one reads back intact, and the next append overwrites the
    torn bytes."""
    root = tmp_path / "c"
    _two_frame_store(root)
    log = (root / "shards.log").read_bytes()
    first_end = FRAME.size + len(_frames(root)[0])
    for cut in range(first_end, len(log)):
        (root / "shards.log").write_bytes(log[:cut])
        reopened = CampaignStore.open(root)
        assert reopened.completed_shards() == frozenset({0}), cut
        assert reopened.read_shard(0).records == [_record(0, 1)]
    reopened.write_shard(ShardOutcome(index=2, host_addresses=(3,), records=[_record(0, 3)]))
    assert CampaignStore.open(root).completed_shards() == frozenset({0, 2})
    assert (root / "shards.log").stat().st_size == len(log)


def test_a_corrupt_final_frame_is_a_torn_tail(tmp_path):
    """A complete final frame that fails its CRC is the one state a crash
    mid-append can leave, so it is dropped rather than refused."""
    root = tmp_path / "c"
    _two_frame_store(root)
    log = bytearray((root / "shards.log").read_bytes())
    log[-3] ^= 0xFF
    (root / "shards.log").write_bytes(bytes(log))
    assert CampaignStore.open(root).completed_shards() == frozenset({0})


@pytest.mark.parametrize(
    "offset, flip",
    [(0, 0x01), (7, 0x01), (9, 0x80), (FRAME.size + 4, 0x20)],
    ids=["magic", "length", "crc", "payload"],
)
def test_a_corrupt_non_final_frame_raises(tmp_path, offset, flip):
    """Only the last append can be torn: damage before it is corruption."""
    root = tmp_path / "c"
    _two_frame_store(root)
    log = bytearray((root / "shards.log").read_bytes())
    log[offset] ^= flip
    (root / "shards.log").write_bytes(bytes(log))
    with pytest.raises(StoreError, match="corrupt frame"):
        CampaignStore.open(root)


@pytest.mark.parametrize(
    "claim, message",
    [(0, "claims shard 0, already committed"), (5, "claims shard 5, outside the plan")],
    ids=["duplicate", "out-of-plan"],
)
def test_a_valid_frame_with_a_bad_claim_raises(tmp_path, claim, message):
    root = tmp_path / "c"
    _two_frame_store(root)

    def reclaim(lines):
        header = json.loads(lines[0])
        header["shard"] = claim
        return [json.dumps(header), *lines[1:]]

    _rewrite_payload(root, 1, reclaim)
    with pytest.raises(StoreError, match=message):
        CampaignStore.open(root)


def test_a_write_refuses_a_shard_filed_under_another_shards_hosts(tmp_path):
    """Shard 2 of a 3-host, 3-shard plan is host 3's: an outcome carrying
    shard 1's host and record used to commit, and the store then read back
    "complete" with host 2 measured twice and host 3 never."""
    store = _two_frame_store(tmp_path / "c")
    with pytest.raises(StoreError, match=r"shard 2 lists hosts \[2\], but the plan gives it \[3\]"):
        store.write_shard(ShardOutcome(index=2, host_addresses=(2,), records=[_record(0, 2)]))
    assert store.completed_shards() == frozenset({0, 1})


def test_a_read_refuses_a_frame_filed_under_another_shards_hosts(tmp_path):
    """The same frame appended by hand is valid and claims a shard in the
    plan, so the store opens complete, but no read merges it."""
    root = tmp_path / "c"
    _two_frame_store(root)
    header, *records = _frames(root)[1].decode().splitlines()
    claim = json.loads(header)
    claim["shard"] = 2
    payload = ("\n".join([json.dumps(claim), *records]) + "\n").encode()
    with open(root / "shards.log", "ab") as log:
        log.write(encode_frame(payload))
    reopened = CampaignStore.open(root)
    assert reopened.is_complete()
    with pytest.raises(StoreError, match=r"shard 2 lists hosts \[2\], but the plan gives it \[3\]"):
        reopened.load_result()


class _Interrupt(BaseException):
    """Raised from the checkpoint hook; BaseException so no handler eats it."""


_RESUME_REQUEST = CampaignRequest(
    scenario="imc2002-survey",
    config=CampaignConfig(rounds=1, samples_per_measurement=4),
    hosts=4,
    seed=11,
    shards=2,
)


def _interrupted_store(root: Path, after: int) -> None:
    def crash(outcome, completed, total):
        if completed >= after:
            raise _Interrupt()

    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(_Interrupt):
            session.run(replace(_RESUME_REQUEST, store=root, on_checkpoint=crash))


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


@pytest.fixture(scope="module")
def uninterrupted_digest() -> str:
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(_RESUME_REQUEST).result_digest


def test_crash_leftovers_are_ignored_and_the_shard_reruns(tmp_path, uninterrupted_digest):
    """A ``manifest.json.tmp`` a crash leaves behind never counts."""
    root = tmp_path / "c"
    _interrupted_store(root, after=1)
    assert CampaignStore.open(root).completed_shards() == frozenset({0})
    (root / "manifest.json.tmp").write_text(f'{{"format": {FORMAT_VERSION}, "pl')
    manifest = (root / "manifest.json").read_bytes()

    rerun, digest = _resume(root)
    assert rerun == [1]
    assert digest == uninterrupted_digest
    assert (root / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize(
    "keep", [1, FRAME.size - 1, FRAME.size, FRAME.size + 1, -1],
    ids=["magic-only", "header-short", "header-only", "one-payload-byte", "one-byte-short"],
)
def test_resume_after_a_torn_final_frame_matches_uninterrupted(
    tmp_path, uninterrupted_digest, keep
):
    root = tmp_path / "c"
    _interrupted_store(root, after=2)
    log = (root / "shards.log").read_bytes()
    final = FRAME.size + len(_frames(root)[0])
    (root / "shards.log").write_bytes(log[: final + keep] if keep > 0 else log[:keep])
    assert CampaignStore.open(root).completed_shards() == frozenset({0})

    rerun, digest = _resume(root)
    assert rerun == [1]
    assert digest == uninterrupted_digest
    assert (root / "shards.log").stat().st_size == len(log)
