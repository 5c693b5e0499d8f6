"""The durable, append-only campaign store.

A store is a directory holding one campaign's measurements as they become
durable, shard by shard:

* ``manifest.json`` — the campaign *plan* (everything needed to re-execute
  or verify the run: config, tests, seed, shard count and the host specs
  themselves) under ``{"format": 3, "plan": ...}``, in the JSON layout of
  the plan's field table (:mod:`repro.core.schema`).  It is written once,
  atomically, when the store is created, and never rewritten.
* ``shards.log`` — an append-only log holding one *frame* per completed
  shard, in commit order.  A frame is a 12-byte header (magic, payload
  length, payload CRC-32; see :mod:`repro.store.codec`) and a JSONL
  payload: a header line (``{"shard": i, "host_addresses": [...],
  "records": n}``), then one encoded
  :class:`~repro.core.campaign.HostRoundResult` per line.

Commit protocol
---------------
A fresh store creates the empty log first and then writes the manifest
(temp file, fsync, rename, directory fsync), so the manifest's rename is
the store's commit point and makes both names durable.  A checkpoint then
opens the log, writes one frame at the end of the durable prefix, truncates
anything after it, and fsyncs the log once: no temp file, no rename and no
directory fsync.  The fsync is the commit point, so a shard is durable
before its checkpoint hook fires.  A resumed run only appends.  A new store
refuses a directory whose log already holds frames.

Recovery
--------
Opening a store scans the log one frame at a time into a shard → offset
index.  Only the last append can be torn, so a frame that is the last bytes
of the log and is incomplete or fails its magic or CRC check is a *torn
tail*: it does not count, and the next append overwrites it.  Any other bad
frame, and any valid frame claiming a shard outside the plan or a shard
already claimed, raises :class:`~repro.net.errors.StoreError`.  Every read
re-checks its frame's CRC and validates the whole payload (JSON lines, the
header's shard claim, its host list against the plan's partition for that
shard, the record count) and then every record against its header and the
plan before any record is used.  A write checks its outcome's hosts the
same way, so a frame filed under another shard's hosts never counts.

Stores in format 1 (one ``shard-NNNNN.jsonl`` file per shard) or format 2
(a plan without host specs) are refused with a pointer to
:func:`migrate_store` (``python -m repro migrate``), which converts them.

Determinism
-----------
The codec (:mod:`repro.store.codec`) is lossless, so records read back from
a store are equal — signature-bit-for-bit — to the records the shard
produced in memory.  Combined with the runner's shard determinism this gives
the resume guarantee: interrupt a campaign after any shard boundary, resume
it, and the merged :func:`~repro.core.runner.result_signature` is identical
to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, BinaryIO, Iterator, NamedTuple, Optional

from repro.core.campaign import CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.core.runner import CampaignPlan, ShardOutcome, merge_records
from repro.core.schema import from_json, to_json
from repro.net.errors import MeasurementError, ReproError, StoreError
from repro.store.codec import (
    FORMAT_VERSION,
    FRAME_HEADER_SIZE,
    decode_record,
    encode_frame,
    encode_record,
    read_frame,
    require,
)
from repro.workloads.population import partition_specs

MANIFEST_NAME = "manifest.json"
LOG_NAME = "shards.log"
_FORMAT_1, _FORMAT_2 = 1, 2


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fsync_directory(path: Path) -> None:
    """Flush directory metadata so a rename survives power loss (best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` with a tmp-file + fsync + rename commit."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    _fsync_directory(path.parent)


class _ShardHeader(NamedTuple):
    """The first line of a shard's payload."""

    shard: int
    host_addresses: tuple[int, ...]
    records: int


def _decode_plan(plan_type: type, data: Any) -> Any:
    try:
        return from_json(plan_type, data)
    except (KeyError, ValueError, TypeError, MeasurementError) as exc:
        raise StoreError(f"malformed campaign plan in manifest: {exc}") from exc


def _manifest_text(plan: CampaignPlan) -> str:
    return _dumps({"format": FORMAT_VERSION, "plan": to_json(plan)}) + "\n"


class CampaignStore:
    """One campaign's manifest plus its append-only log of durable shards."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self._plan: Optional[CampaignPlan] = None
        self._shard_hosts: tuple[tuple[int, ...], ...] = ()  # each shard's hosts, by index
        self._frames: dict[int, int] = {}  # durable shard -> its frame's offset
        self._end = 0  # end of the log's durable prefix: where the next frame goes

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def log_path(self) -> Path:
        return self.root / LOG_NAME

    @classmethod
    def create(cls, root: os.PathLike | str, plan: CampaignPlan) -> "CampaignStore":
        """Initialise a fresh store directory for ``plan``."""
        store = cls(root)
        require(
            not store.manifest_path.exists(),
            f"store already exists at {store.root}; open() or resume it instead",
        )
        store._initialise(plan)
        return store

    @classmethod
    def open(cls, root: os.PathLike | str) -> "CampaignStore":
        """Open an existing store: read its plan and index its durable shards."""
        store = cls(root)
        require(
            store.manifest_path.exists(),
            f"no campaign store at {store.root} (missing {MANIFEST_NAME})",
        )
        store._load()
        return store

    def begin(self, plan: CampaignPlan, *, resume: bool = False) -> frozenset[int]:
        """Bind a campaign's plan to this store and report durable shards.

        Creates the manifest when the store is fresh.  When the store already
        holds data, the stored plan must match ``plan`` exactly, and any
        committed shards require ``resume=True`` (so a caller cannot silently
        mix two different runs into one directory).  Returns the set of shard
        indices that are already durable and need not be re-executed.
        """
        if not self.manifest_path.exists():
            self._initialise(plan)
            return frozenset()
        if self._plan is None:
            self._load()
        else:  # the manifest is write-once: only the log can have grown
            self._scan()
        stored = self.plan()
        mismatched = [
            f.name for f in fields(plan) if getattr(stored, f.name) != getattr(plan, f.name)
        ]
        require(
            not mismatched,
            "stored campaign plan does not match the resuming campaign "
            f"(differs on: {', '.join(mismatched)})",
        )
        completed = self.completed_shards()
        require(
            resume or not completed,
            f"store at {self.root} already holds {len(completed)} shard(s); "
            "pass resume=True to continue the interrupted run",
        )
        return completed

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def plan(self) -> CampaignPlan:
        if self._plan is None:
            self._load()
        assert self._plan is not None
        return self._plan

    def completed_shards(self) -> frozenset[int]:
        """Indices of shards whose frames are durable."""
        self.plan()  # ensure the store is loaded
        return frozenset(self._frames)

    def is_complete(self) -> bool:
        """True when every shard of the plan has a durable frame."""
        return len(self.completed_shards()) == self.plan().shards

    def read_shard(self, index: int) -> ShardOutcome:
        """Load one shard's outcome back from its frame."""
        require(
            index in self.completed_shards(),
            f"shard {index} is not durable in {self.root}",
        )
        with self._open_log() as handle:
            hosts, payloads = self._read_payload(handle, index)
        allowed = frozenset(hosts)
        return ShardOutcome(
            index=index,
            host_addresses=hosts,
            records=[self._decode_record(payload, index, allowed) for payload in payloads],
        )

    def iter_records(self) -> Iterator[HostRoundResult]:
        """Stream every durable record, one at a time, in shard-index order.

        This is the streaming-aggregation entry point: only one frame's
        parsed lines and one decoded record are alive at a time, so
        survey-scale stores can be analysed without materializing every
        sample in memory.
        """
        with self._open_log() as handle:
            for index in sorted(self.completed_shards()):
                hosts, payloads = self._read_payload(handle, index)
                allowed = frozenset(hosts)
                for payload in payloads:
                    yield self._decode_record(payload, index, allowed)

    def load_result(self) -> CampaignResult:
        """Materialize the full merged dataset in canonical order.

        Requires a complete store: merging a partial campaign would silently
        present a subset as the whole survey.
        """
        plan = self.plan()
        require(
            self.is_complete(),
            f"store at {self.root} is incomplete "
            f"({len(self.completed_shards())}/{plan.shards} shards durable)",
        )
        return merge_records(self.iter_records(), plan)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def write_shard(self, outcome: ShardOutcome) -> None:
        """Commit one shard's records as one durable frame of the log.

        Re-committing an already durable shard is rejected: frames are
        append-only and immutable once fsynced.
        """
        plan = self.plan()
        require(
            0 <= outcome.index < plan.shards,
            f"shard index {outcome.index} outside plan of {plan.shards} shard(s)",
        )
        require(
            outcome.index not in self._frames,
            f"shard {outcome.index} is already durable in {self.root}",
        )
        self._require_shard_hosts(outcome.index, tuple(outcome.host_addresses))
        header = _ShardHeader(outcome.index, outcome.host_addresses, len(outcome.records))
        lines = [_dumps(to_json(header))]
        lines.extend(_dumps(encode_record(record)) for record in outcome.records)
        frame = encode_frame(("\n".join(lines) + "\n").encode("utf-8"))
        try:
            with open(self.log_path, "r+b") as handle:
                handle.seek(self._end)
                handle.write(frame)
                handle.flush()
                handle.truncate()  # drop a torn tail longer than this frame
                os.fsync(handle.fileno())
        except OSError as exc:
            raise StoreError(f"cannot append shard {outcome.index} to {self.log_path}: {exc}") from exc
        self._frames[outcome.index] = self._end
        self._end += len(frame)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _bind(self, plan: CampaignPlan) -> None:
        self._plan = plan
        # plan.shard_tasks()'s partition rule, applied to the addresses alone,
        # so that opening a store builds no shard tasks.
        self._shard_hosts = tuple(
            tuple(hosts) for hosts in partition_specs(plan.host_addresses, plan.shards)
        )

    def _require_shard_hosts(self, index: int, hosts: tuple[int, ...]) -> None:
        """Refuse a shard whose host list is not the plan's partition for ``index``."""
        expected = self._shard_hosts[index]
        require(
            hosts == expected,
            f"shard {index} lists hosts {list(hosts)}, but the plan gives it {list(expected)}",
        )

    def _initialise(self, plan: CampaignPlan) -> None:
        """Create the empty log, then commit the manifest that names it."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.log_path, "ab") as handle:
                require(
                    os.fstat(handle.fileno()).st_size == 0,
                    f"{self.root} already holds a non-empty {LOG_NAME} but no "
                    f"manifest; a new store needs a directory without one",
                )
        except OSError as exc:
            raise StoreError(f"cannot create store at {self.root}: {exc}") from exc
        _atomic_write_text(self.manifest_path, _manifest_text(plan))
        self._bind(plan)
        self._frames, self._end = {}, 0

    def _read_manifest(self) -> dict:
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise StoreError(f"cannot read manifest at {self.manifest_path}: {exc}") from exc
        require(
            isinstance(manifest, dict),
            f"manifest at {self.manifest_path} is not a JSON object",
        )
        require("plan" in manifest, f"manifest at {self.manifest_path} has no plan")
        return manifest

    def _load(self) -> None:
        """Read the plan from the manifest and index the log's durable frames."""
        manifest = self._read_manifest()
        version = manifest.get("format")
        require(
            version not in (_FORMAT_1, _FORMAT_2),
            f"store at {self.root} is in format {version}; convert it with "
            f"`python -m repro migrate --store {self.root}`",
        )
        require(
            version == FORMAT_VERSION,
            f"unsupported store format {version!r} "
            f"(this build reads format {FORMAT_VERSION})",
        )
        self._bind(_decode_plan(CampaignPlan, manifest["plan"]))
        self._scan()

    def _scan(self) -> None:
        """Index the log's frames by shard, one frame in memory at a time."""
        shards = self.plan().shards
        frames: dict[int, int] = {}
        offset = 0
        with self._open_log() as handle:
            try:
                size = os.fstat(handle.fileno()).st_size
                while offset < size:
                    payload = read_frame(handle, offset, size)
                    if payload is None:
                        break  # a torn tail: not durable; the next append overwrites it
                    index = _claimed_shard(payload, offset)
                    if not 0 <= index < shards:
                        raise StoreError(
                            f"frame at byte {offset} claims shard {index}, "
                            f"outside the plan of {shards} shard(s)"
                        )
                    if index in frames:
                        raise StoreError(
                            f"frame at byte {offset} claims shard {index}, "
                            f"already committed at byte {frames[index]}"
                        )
                    frames[index] = offset
                    offset += FRAME_HEADER_SIZE + len(payload)
            except OSError as exc:
                raise StoreError(f"cannot read {self.log_path}: {exc}") from exc
        self._frames, self._end = frames, offset

    def _open_log(self) -> BinaryIO:
        try:
            return open(self.log_path, "rb")
        except OSError as exc:
            raise StoreError(f"cannot read {self.log_path}: {exc}") from exc

    def _read_payload(self, handle: BinaryIO, index: int) -> tuple[tuple[int, ...], list[dict]]:
        """Re-check shard ``index``'s frame and validate its payload.

        The frame lay whole inside the durable prefix when the log was
        indexed, so one that no longer checks out there raises.
        """
        offset = self._frames[index]
        try:
            payload = read_frame(handle, offset, self._end)
        except OSError as exc:
            raise StoreError(f"cannot read {self.log_path}: {exc}") from exc
        require(
            payload is not None,
            f"shard {index}'s frame at byte {offset} of {self.log_path} is no longer intact",
        )
        return self._parse_payload(payload, index)

    def _parse_payload(self, payload: bytes, index: int) -> tuple[tuple[int, ...], list[dict]]:
        """Validate shard ``index``'s payload before any of its records is used.

        Every line must be a JSON object, the header must claim shard
        ``index``, list exactly the hosts the plan gives that shard, and
        promise exactly the records that follow it.  Returns the header's
        hosts and the undecoded records.
        """
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(f"shard {index}'s payload is not UTF-8: {exc}") from exc
        lines: list[dict] = []
        for number, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise StoreError(f"corrupt JSON at shard {index} line {number}: {exc}") from exc
            if not isinstance(value, dict):
                raise StoreError(f"non-object line at shard {index} line {number}")
            lines.append(value)
        require(bool(lines), f"shard {index}'s payload is empty")
        records = lines[1:]
        try:
            header: _ShardHeader = from_json(_ShardHeader, lines[0])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"shard {index}'s payload has a malformed header: {exc}") from exc
        require(
            header.shard == index,
            f"shard {index}'s payload claims shard {header.shard!r}, expected {index}",
        )
        require(
            header.records == len(records),
            f"shard {index}'s payload is truncated: header promises "
            f"{header.records!r} record(s), found {len(records)}",
        )
        self._require_shard_hosts(index, header.host_addresses)
        return header.host_addresses, records

    def _decode_record(
        self, payload: dict, index: int, hosts: frozenset[int]
    ) -> HostRoundResult:
        """Decode one record and check it against its header and the plan."""
        try:
            record = decode_record(payload)
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed record in shard {index}: {exc}") from exc
        plan = self.plan()
        if record.host_address not in hosts:
            raise StoreError(
                f"record in shard {index} is for host {record.host_address}, "
                "which the shard's header does not list"
            )
        if record.test not in plan.tests:
            raise StoreError(
                f"record in shard {index} is for test {record.test.value!r}, outside the plan"
            )
        if not 0 <= record.round_index < plan.config.rounds:
            raise StoreError(
                f"record in shard {index} is for round {record.round_index}, "
                f"outside the plan's {plan.config.rounds} round(s)"
            )
        return record


def _claimed_shard(payload: bytes, offset: int) -> int:
    """The shard index a frame's header line claims (the rest is read later)."""
    line = payload.lstrip().partition(b"\n")[0]
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise StoreError(f"frame at byte {offset} has a corrupt header line: {exc}") from exc
    claim = header.get("shard") if isinstance(header, dict) else None
    require(type(claim) is int, f"frame at byte {offset} claims no shard index")
    return claim


@dataclass(frozen=True, slots=True)
class _Origin:
    """The registry scenario a format-1 or format-2 store's hosts came from."""

    scenario: str
    hosts: Optional[int]
    os_name: Optional[str]
    seed: int


@dataclass(frozen=True, slots=True)
class _LegacyPlan:
    """A format-1 or format-2 plan: :class:`CampaignPlan` with hosts by origin."""

    seed: int
    shards: int
    remote_port: int
    scenario: Optional[str]
    tests: tuple[TestName, ...]
    config: CampaignConfig
    host_addresses: tuple[int, ...]
    origin: Optional[_Origin]


def _rebuilt_plan(data: Any) -> CampaignPlan:
    """A format-1 or format-2 plan, its host specs rebuilt as those formats
    resumed: the origin's registry scenario at its population size and OS,
    built at its seed.  Their specs digest hashed ``repr()`` text that has
    since changed, so the rebuilt hosts are checked by address only."""
    # Imported here: the scenario layer sits above the store.
    from repro.scenarios.matrix import MIXED_OS
    from repro.scenarios.population import build_scenario_hosts
    from repro.scenarios.registry import get_scenario

    legacy: _LegacyPlan = _decode_plan(_LegacyPlan, data)
    origin = legacy.origin
    require(origin is not None, "the manifest names no scenario origin to rebuild hosts from")
    try:
        scenario = get_scenario(origin.scenario)
        if origin.hosts is not None:
            scenario = scenario.with_population(num_hosts=origin.hosts)
        if origin.os_name is not None and origin.os_name != MIXED_OS:
            scenario = scenario.with_os(origin.os_name)
        specs = tuple(build_scenario_hosts(scenario, seed=origin.seed))
    except (KeyError, ValueError, ReproError) as exc:
        raise StoreError(f"cannot rebuild the store's hosts from its origin: {exc}") from exc
    require(
        tuple(spec.address for spec in specs) == legacy.host_addresses,
        "the hosts rebuilt from the store's origin differ from its host addresses",
    )
    shared = [getattr(legacy, f.name) for f in fields(CampaignPlan) if f.name != "specs"]
    try:
        return CampaignPlan(*shared, specs=specs)
    except MeasurementError as exc:
        raise StoreError(f"malformed campaign plan in manifest: {exc}") from exc


def migrate_store(root: os.PathLike | str) -> bool:
    """Convert a format-1 or format-2 store to format 3 in place.

    The host specs are rebuilt from the old plan's scenario origin (a store
    without one is refused unchanged).  Format-1 segments are validated like
    a read and written as frames, in shard order, to a temp log that is
    fsynced and renamed to ``shards.log``; a format-2 log is only indexed.
    Rewriting the manifest is the commit point; only then are old segments
    and ``*.tmp`` leftovers deleted, so a crash at any step leaves a store
    that reruns to the same result.  Returns ``False``, after removing such
    leftovers, when the store is already in the current format.
    """
    store = CampaignStore(root)
    require(
        store.manifest_path.exists(),
        f"no campaign store at {store.root} (missing {MANIFEST_NAME})",
    )
    manifest = store._read_manifest()
    version = manifest.get("format")
    if version == FORMAT_VERSION:
        store._load()
        _remove_format_1_leftovers(store)
        return False
    require(version in (_FORMAT_1, _FORMAT_2), f"cannot migrate store format {version!r}")
    plan = _rebuilt_plan(manifest["plan"])
    store._bind(plan)
    if version == _FORMAT_1:
        _write_format_1_log(store)
    else:
        store._scan()
    _atomic_write_text(store.manifest_path, _manifest_text(plan))
    _remove_format_1_leftovers(store)
    return True


def _write_format_1_log(store: CampaignStore) -> None:
    tmp = store.log_path.with_name(LOG_NAME + ".tmp")
    try:
        with open(tmp, "wb") as log:
            for index in range(store.plan().shards):
                segment = _format_1_segment(store, index)
                if not segment.exists():
                    continue
                payload = segment.read_bytes()
                hosts, records = store._parse_payload(payload, index)
                allowed = frozenset(hosts)
                for record in records:
                    store._decode_record(record, index, allowed)
                log.write(encode_frame(payload))
            log.flush()
            os.fsync(log.fileno())
        os.replace(tmp, store.log_path)
    except OSError as exc:
        raise StoreError(f"cannot migrate {store.root}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_directory(store.root)


def _format_1_segment(store: CampaignStore, index: int) -> Path:
    return store.root / f"shard-{index:05d}.jsonl"


def _remove_format_1_leftovers(store: CampaignStore) -> None:
    """Delete format-1 segments and crash leftovers from a migrated store."""
    leftovers = [_format_1_segment(store, index) for index in range(store.plan().shards)]
    leftovers.extend(store.root.glob("*.tmp"))
    try:
        for path in leftovers:
            path.unlink(missing_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot remove leftovers from {store.root}: {exc}") from exc


__all__ = [
    "CampaignStore",
    "LOG_NAME",
    "MANIFEST_NAME",
    "migrate_store",
]
