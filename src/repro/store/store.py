"""The durable, append-only campaign store.

A store is a directory holding one campaign's measurements as they become
durable, shard by shard:

* ``manifest.json`` — the campaign *plan* (everything needed to re-execute
  or verify the run: config, tests, seed, shard count, host addresses, a
  digest of the host specs).  It is written once, atomically, when the store
  is created, and never rewritten.
* ``shard-00000.jsonl`` … — one JSONL *segment* per completed shard.  The
  first line is a header (``{"shard": i, "host_addresses": [...],
  "records": n}``); each following line is one encoded
  :class:`~repro.core.campaign.HostRoundResult`.

Commit protocol
---------------
A segment is written to a temporary file, flushed, fsynced, renamed into
place, and the directory is fsynced.  The rename is the commit point, so a
segment either exists complete or not at all, and the directory is the
index: the ``shard-NNNNN.jsonl`` names in it are the durable shards.  There
is no state in which a segment is durable but unrecorded, and a crash's
``*.tmp`` leftovers never count.  Nothing is ever modified in place; a
resumed run only adds new segments.  A store is created only in a directory
that holds no segments, so every durable segment belongs to its campaign.
Manifests written by older builds also carry a ``segments`` index; it is
ignored.  Every read validates a whole segment (JSON, the header's shard
claim, the record count) before any of its records is used.

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

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

from repro.core.campaign import CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.net.errors import StoreError
from repro.store.codec import FORMAT_VERSION, decode_record, encode_record, require

MANIFEST_NAME = "manifest.json"
_SEGMENT_RE = re.compile(r"^shard-(\d{5})\.jsonl$")


def _segment_name(index: int) -> str:
    return f"shard-{index:05d}.jsonl"


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


_MEMORY_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


def specs_digest(specs: Sequence[Any]) -> str:
    """Stable digest of a host-spec list, used to guard mismatched resumes.

    ``HostSpec`` trees are dataclasses of primitives plus the occasional
    callable (e.g. ``OsProfile.ipid_policy_factory``), whose default ``repr``
    embeds a process-local memory address.  Addresses are normalized away so
    the digest is a pure function of the spec *values* (field values and
    callable qualnames) across processes and Python invocations — which is
    what lets a resumed run verify it rebuilt the same population.
    """
    canonical = _MEMORY_ADDRESS_RE.sub("0x0", repr(tuple(specs)))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class CampaignPlan:
    """Everything that fixes a campaign's merged dataset, in storable form.

    Two runs with equal plans (and the same host specs, witnessed by
    ``specs_digest``) produce bit-identical merged signatures, which is why
    resume refuses to proceed when the plan on disk differs from the one the
    resuming runner derived.  ``origin`` is a free-form description of how
    the host specs were built (e.g. a registry scenario name and population
    size) so ``python -m repro resume`` can rebuild them from the manifest
    alone.
    """

    seed: int
    shards: int
    remote_port: int
    scenario: Optional[str]
    tests: tuple[TestName, ...]
    config: CampaignConfig
    specs_digest: str
    host_addresses: tuple[int, ...]
    origin: Optional[dict] = None

    def to_mapping(self) -> dict:
        return {
            "seed": self.seed,
            "shards": self.shards,
            "remote_port": self.remote_port,
            "scenario": self.scenario,
            "tests": [test.value for test in self.tests],
            "config": self.config.to_mapping(),
            "specs_digest": self.specs_digest,
            "host_addresses": list(self.host_addresses),
            "origin": self.origin,
        }

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CampaignPlan":
        try:
            return cls(
                seed=mapping["seed"],
                shards=mapping["shards"],
                remote_port=mapping["remote_port"],
                scenario=mapping["scenario"],
                tests=tuple(TestName(value) for value in mapping["tests"]),
                config=CampaignConfig.from_mapping(mapping["config"]),
                specs_digest=mapping["specs_digest"],
                host_addresses=tuple(mapping["host_addresses"]),
                origin=mapping["origin"],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed campaign plan in manifest: {exc}") from exc

    def differences(self, other: "CampaignPlan") -> list[str]:
        """Names of fields on which two plans disagree (empty == compatible)."""
        ours, theirs = self.to_mapping(), other.to_mapping()
        return sorted(key for key in ours if ours[key] != theirs[key])


class CampaignStore:
    """One campaign's manifest plus its directory of durable segments."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self._plan: Optional[CampaignPlan] = None
        self._segments: set[int] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

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
        """Open an existing store: read its plan and list its durable segments."""
        store = cls(root)
        require(
            store.manifest_path.exists(),
            f"no campaign store at {store.root} (missing {MANIFEST_NAME})",
        )
        store._load()
        return store

    def begin(self, plan: CampaignPlan, *, resume: bool = False) -> frozenset[int]:
        """Bind a runner's plan to this store and report durable shards.

        Creates the manifest when the store is fresh.  When the store already
        holds data, the stored plan must match ``plan`` exactly, and any
        committed shards require ``resume=True`` (so a caller cannot silently
        mix two different runs into one directory).  Returns the set of shard
        indices that are already durable and need not be re-executed.
        """
        if not self.manifest_path.exists():
            self._initialise(plan)
            return frozenset()
        self._load()
        stored = self.plan()
        mismatched = stored.differences(plan)
        require(
            not mismatched,
            "stored campaign plan does not match the resuming runner "
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
        """Indices of shards whose segments are durable."""
        self.plan()  # ensure the store is loaded
        return frozenset(self._segments)

    def is_complete(self) -> bool:
        """True when every shard of the plan has a durable segment."""
        return len(self.completed_shards()) == self.plan().shards

    def read_shard(self, index: int) -> "ShardOutcome":
        """Load one shard's outcome back from its segment."""
        from repro.core.runner import ShardOutcome

        require(
            index in self.completed_shards(),
            f"shard {index} is not durable in {self.root}",
        )
        header, payloads = self._read_segment(index)
        addresses = header.get("host_addresses")
        require(
            isinstance(addresses, list),
            f"segment {_segment_name(index)} has a malformed host_addresses header",
        )
        return ShardOutcome(
            index=index,
            host_addresses=tuple(addresses),
            records=[self._decode_record(payload, index) for payload in payloads],
        )

    def iter_records(self) -> Iterator[HostRoundResult]:
        """Stream every durable record, one at a time, in shard-index order.

        This is the streaming-aggregation entry point: only one segment's
        parsed lines and one decoded record are alive at a time, so
        survey-scale stores can be analysed without materializing every
        sample in memory.
        """
        for index in sorted(self.completed_shards()):
            _, payloads = self._read_segment(index)
            for payload in payloads:
                yield self._decode_record(payload, index)

    def load_result(self) -> CampaignResult:
        """Materialize the full merged dataset in canonical order.

        Requires a complete store: merging a partial campaign would silently
        present a subset as the whole survey.
        """
        from repro.core.runner import merge_records

        plan = self.plan()
        require(
            self.is_complete(),
            f"store at {self.root} is incomplete "
            f"({len(self.completed_shards())}/{plan.shards} shards durable)",
        )
        return merge_records(
            self.iter_records(),
            config=plan.config,
            host_addresses=plan.host_addresses,
            tests=plan.tests,
            scenario=plan.scenario,
        )

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def write_shard(self, outcome: "ShardOutcome") -> None:
        """Commit one shard's records as a durable segment.

        Re-committing an already durable shard is rejected: segments are
        append-only and immutable once renamed into place.
        """
        plan = self.plan()
        require(
            0 <= outcome.index < plan.shards,
            f"shard index {outcome.index} outside plan of {plan.shards} shard(s)",
        )
        require(
            outcome.index not in self._segments,
            f"shard {outcome.index} is already durable in {self.root}",
        )
        header = {
            "shard": outcome.index,
            "host_addresses": list(outcome.host_addresses),
            "records": len(outcome.records),
        }
        lines = [_dumps(header)]
        lines.extend(_dumps(encode_record(record)) for record in outcome.records)
        _atomic_write_text(self.root / _segment_name(outcome.index), "\n".join(lines) + "\n")
        self._segments.add(outcome.index)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _initialise(self, plan: CampaignPlan) -> None:
        """Write a fresh store's manifest, refusing a directory with segments."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store directory {self.root}: {exc}") from exc
        stray = self._list_segments()
        require(
            not stray,
            f"{self.root} already holds {len(stray)} segment(s) but no manifest; "
            "a new store needs a directory without shard-*.jsonl files",
        )
        manifest = {"format": FORMAT_VERSION, "plan": plan.to_mapping()}
        _atomic_write_text(self.manifest_path, _dumps(manifest) + "\n")
        self._plan = plan
        self._segments = set()

    def _load(self) -> None:
        """Read the plan from the manifest and the durable shards from the directory."""
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read manifest at {self.manifest_path}: {exc}") from exc
        require(
            manifest.get("format") == FORMAT_VERSION,
            f"unsupported store format {manifest.get('format')!r} "
            f"(this build reads format {FORMAT_VERSION})",
        )
        require("plan" in manifest, f"manifest at {self.manifest_path} has no plan")
        self._plan = CampaignPlan.from_mapping(manifest["plan"])
        self._segments = self._list_segments()

    def _list_segments(self) -> set[int]:
        """Shard indices of the committed segments in the directory."""
        try:
            names = os.listdir(self.root)
        except OSError as exc:
            raise StoreError(f"cannot list store directory {self.root}: {exc}") from exc
        return {int(match.group(1)) for match in map(_SEGMENT_RE.match, names) if match}

    def _decode_record(self, payload: dict, index: int) -> HostRoundResult:
        try:
            return decode_record(payload)
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(
                f"malformed record in segment {_segment_name(index)}: {exc}"
            ) from exc

    def _read_segment(self, index: int) -> tuple[dict, list[dict]]:
        """Read shard ``index``'s segment, validated before any record is used.

        Every line must be a JSON object, the header must claim shard
        ``index``, and it must promise exactly the records that follow it.
        Returns the header and the undecoded record payloads.
        """
        name = _segment_name(index)
        lines: list[dict] = []
        try:
            with open(self.root / name, "r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise StoreError(
                            f"corrupt JSON at {name}:{number}: {exc}"
                        ) from exc
                    require(
                        isinstance(payload, dict),
                        f"non-object line at {name}:{number}",
                    )
                    lines.append(payload)
        except OSError as exc:
            raise StoreError(f"cannot read segment {self.root / name}: {exc}") from exc
        require(bool(lines), f"segment {name} is empty")
        header, payloads = lines[0], lines[1:]
        require(
            header.get("shard") == index,
            f"segment {name} claims shard {header.get('shard')!r}, expected {index}",
        )
        require(
            header.get("records") == len(payloads),
            f"segment {name} is truncated: header promises "
            f"{header.get('records')} record(s), found {len(payloads)}",
        )
        return header, payloads


__all__ = [
    "CampaignPlan",
    "CampaignStore",
    "MANIFEST_NAME",
    "specs_digest",
]
