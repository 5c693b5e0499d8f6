"""JSON codec for campaign records: exact, reversible, stdlib-only.

The durable campaign store persists :class:`~repro.core.campaign.HostRoundResult`
records as JSON objects (one per JSONL line).  The encoding is *lossless*:
``decode_record(json.loads(json.dumps(encode_record(r))))`` reconstructs a
record equal to the original, field for field.  Floats survive because
:mod:`json` serializes them with ``repr`` (the shortest round-tripping form)
and parses them back with ``float``; enums travel as their ``value`` strings;
tuples of packet uids are restored as tuples.

That exactness is what makes resume *bit-identical*: a campaign merged from
stored shards plus freshly executed shards has the same
:func:`~repro.core.runner.result_signature` as an uninterrupted run.
Decoding is also strict: every field must hold the JSON type its encoder
writes (``bool`` is not an ``int``), so a damaged record raises instead of
decoding into a value no run could have produced.

The store's log frames live here too: each shard's JSONL payload is
committed as one ``magic | payload length | payload CRC-32 | payload`` frame
(see :func:`encode_frame` and :func:`read_frame`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, BinaryIO, Mapping, Optional

from repro.core.campaign import HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.net.errors import StoreError

FORMAT_VERSION = 2
"""On-disk format version stamped into every manifest."""

_FRAME_MAGIC = b"RSEG"
_FRAME_HEADER = struct.Struct("!4sII")  # magic, payload length, payload CRC-32
FRAME_HEADER_SIZE = _FRAME_HEADER.size

_NUMBER = (float, int)
_OPTIONAL_TEXT = (str, type(None))
_INT = frozenset({int})

# The exact JSON type each encoded field must have when it is decoded, so a
# bool never passes for an int, nor null for text.  Enum fields are checked
# by their member lookup instead.
_SAMPLE_TYPES = {
    "index": (int,),
    "time": _NUMBER,
    "spacing": _NUMBER,
    "detail": (str,),
    "probe_uids": (list,),
    "response_uids": (list,),
}
_MEASUREMENT_TYPES = {
    "test_name": (str,),
    "host_address": (int,),
    "start_time": _NUMBER,
    "end_time": _NUMBER,
    "spacing": _NUMBER,
    "notes": (str,),
    "samples": (list,),
}
_REPORT_TYPES = {
    "host_address": (int,),
    "result": (dict, type(None)),
    "error": _OPTIONAL_TEXT,
    "ineligible": (bool,),
}
_RECORD_TYPES = {
    "round_index": (int,),
    "host_address": (int,),
    "time": _NUMBER,
    "report": (dict,),
    "scenario": _OPTIONAL_TEXT,
}
_TESTS = {test.value: test for test in TestName}
_OUTCOMES = {outcome.value: outcome for outcome in SampleOutcome}


def check_types(data: Mapping[str, Any], types: Mapping[str, tuple[type, ...]]) -> None:
    """Raise ``TypeError`` unless each ``data[key]``'s exact type is in ``types[key]``."""
    for key, kinds in types.items():
        if type(data[key]) not in kinds:
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise TypeError(f"{key!r} is {type(data[key]).__name__}, expected {expected}")


def int_tuple(values: list) -> tuple[int, ...]:
    """``values`` as a tuple, which must hold only ints."""
    if not _INT.issuperset(map(type, values)):
        raise TypeError(f"expected a list of ints, got {values!r}")
    return tuple(values)


def _member(members: Mapping[str, Any], value: Any) -> Any:
    try:
        return members[value]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not one of {sorted(members)}") from None


def encode_sample(sample: ReorderSample) -> dict:
    """Encode one packet-pair sample."""
    return {
        "index": sample.index,
        "time": sample.time,
        "spacing": sample.spacing,
        "forward": sample.forward.value,
        "reverse": sample.reverse.value,
        "detail": sample.detail,
        "probe_uids": list(sample.probe_uids),
        "response_uids": list(sample.response_uids),
    }


def decode_sample(data: Mapping[str, Any]) -> ReorderSample:
    """Decode one packet-pair sample."""
    check_types(data, _SAMPLE_TYPES)
    return ReorderSample(
        index=data["index"],
        time=data["time"],
        spacing=data["spacing"],
        forward=_member(_OUTCOMES, data["forward"]),
        reverse=_member(_OUTCOMES, data["reverse"]),
        detail=data["detail"],
        probe_uids=int_tuple(data["probe_uids"]),
        response_uids=int_tuple(data["response_uids"]),
    )


def encode_measurement(result: MeasurementResult) -> dict:
    """Encode one technique's batch of samples."""
    return {
        "test_name": result.test_name,
        "host_address": result.host_address,
        "start_time": result.start_time,
        "end_time": result.end_time,
        "spacing": result.spacing,
        "notes": result.notes,
        "samples": [encode_sample(sample) for sample in result.samples],
    }


def decode_measurement(data: Mapping[str, Any]) -> MeasurementResult:
    """Decode one technique's batch of samples."""
    check_types(data, _MEASUREMENT_TYPES)
    return MeasurementResult(
        test_name=data["test_name"],
        host_address=data["host_address"],
        start_time=data["start_time"],
        end_time=data["end_time"],
        spacing=data["spacing"],
        notes=data["notes"],
        samples=[decode_sample(sample) for sample in data["samples"]],
    )


def encode_report(report: ProbeReport) -> dict:
    """Encode one measurement attempt."""
    return {
        "test": report.test.value,
        "host_address": report.host_address,
        "result": None if report.result is None else encode_measurement(report.result),
        "error": report.error,
        "ineligible": report.ineligible,
    }


def decode_report(data: Mapping[str, Any]) -> ProbeReport:
    """Decode one measurement attempt."""
    check_types(data, _REPORT_TYPES)
    result = data["result"]
    return ProbeReport(
        test=_member(_TESTS, data["test"]),
        host_address=data["host_address"],
        result=None if result is None else decode_measurement(result),
        error=data["error"],
        ineligible=data["ineligible"],
    )


def encode_record(record: HostRoundResult) -> dict:
    """Encode one (round, host, test) campaign record."""
    return {
        "round_index": record.round_index,
        "host_address": record.host_address,
        "test": record.test.value,
        "time": record.time,
        "scenario": record.scenario,
        "report": encode_report(record.report),
    }


def decode_record(data: Mapping[str, Any]) -> HostRoundResult:
    """Decode one (round, host, test) campaign record."""
    check_types(data, _RECORD_TYPES)
    return HostRoundResult(
        round_index=data["round_index"],
        host_address=data["host_address"],
        test=_member(_TESTS, data["test"]),
        time=data["time"],
        report=decode_report(data["report"]),
        scenario=data["scenario"],
    )


def encode_frame(payload: bytes) -> bytes:
    """One log frame: the 12-byte header, then ``payload``."""
    return _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def read_frame(handle: BinaryIO, offset: int, size: int) -> Optional[bytes]:
    """The payload of the frame at ``offset`` in a log of ``size`` bytes.

    Returns ``None`` when the frame is a torn tail: its header is
    incomplete, its declared end lies beyond ``size``, or it ends exactly at
    ``size`` and fails its magic or CRC check.  Only the last append can be
    torn, so a bad frame that anything follows raises
    :class:`~repro.net.errors.StoreError`.
    """
    handle.seek(offset)
    header = handle.read(FRAME_HEADER_SIZE)
    if len(header) < FRAME_HEADER_SIZE:
        return None
    magic, length, crc = _FRAME_HEADER.unpack(header)
    end = offset + FRAME_HEADER_SIZE + length
    if end > size:
        return None
    payload = handle.read(length)
    if magic == _FRAME_MAGIC and len(payload) == length and zlib.crc32(payload) == crc:
        return payload
    if end == size:
        return None
    problem = "bad magic" if magic != _FRAME_MAGIC else "CRC mismatch"
    raise StoreError(f"corrupt frame at byte {offset}: {problem}")


def require(condition: bool, message: str, cause: Optional[Exception] = None) -> None:
    """Raise :class:`~repro.net.errors.StoreError` unless ``condition`` holds."""
    if not condition:
        raise StoreError(message) from cause
