"""Byte-mutation fuzzing of the two decoders that read bytes from another process.

``decode_outcomes`` reads the result blobs pool and socket workers send, and
``unpack_shard_errors`` reads a remote worker's failed-shard frames.  Both
must hold one contract on arbitrary input: decode, or raise the module's
typed error (:class:`~repro.net.errors.TransportError`,
:class:`~repro.net.errors.ProtocolError`).  Any other exception, or an input
that makes a decoder spin past the Hypothesis deadline, fails the test.

The seeds are real encodings: the result blobs of golden-config shards of
three scenarios, and shard-error payloads.  Each example applies a few
flips, insertions, deletions and truncations to one seed.
"""

from __future__ import annotations

from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runner import CampaignRunner, run_shard
from repro.core.transport import decode_outcomes, encode_outcomes
from repro.distributed.protocol import pack_shard_errors, unpack_shard_errors
from repro.net.errors import ProtocolError, TransportError
from repro.scenarios import build_scenario_hosts, get_scenario
from test_golden_signatures import GOLDEN_CONFIG, GOLDEN_HOSTS, GOLDEN_SEED

FUZZ = settings(
    max_examples=300,
    deadline=1000,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@cache
def _result_blobs() -> tuple[bytes, ...]:
    blobs = []
    for name in ("imc2002-survey", "icmp-hostile", "syn-filtered"):
        scenario = get_scenario(name).with_population(num_hosts=GOLDEN_HOSTS)
        runner = CampaignRunner(
            build_scenario_hosts(scenario, seed=GOLDEN_SEED),
            GOLDEN_CONFIG,
            seed=GOLDEN_SEED,
            shards=2,
            scenario=name,
        )
        blobs.append(encode_outcomes([run_shard(task) for task in runner.shard_tasks()]))
    return tuple(blobs)


_SHARD_ERROR_PAYLOADS = (
    pack_shard_errors(9, [(0, "boom"), (7, "unicode ✗ failure"), (2**40, "")]),
    pack_shard_errors(0, []),
    pack_shard_errors(3, [(5, "Traceback: shard 5 raised MeasurementError")]),
)


@st.composite
def _mutated(draw, seeds) -> bytes:
    data = bytearray(draw(st.sampled_from(seeds())))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
        at = draw(st.integers(min_value=0, max_value=len(data)))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[at : at + draw(st.integers(min_value=1, max_value=16))]
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


def test_seeds_decode():
    for blob in _result_blobs():
        assert decode_outcomes(blob)
    for payload in _SHARD_ERROR_PAYLOADS:
        unpack_shard_errors(payload)


@FUZZ
@given(_mutated(_result_blobs))
def test_mutated_result_blobs_decode_or_raise_transport_error(blob):
    try:
        decode_outcomes(blob)
    except TransportError:
        pass


@FUZZ
@given(_mutated(lambda: _SHARD_ERROR_PAYLOADS))
def test_mutated_shard_error_payloads_decode_or_raise_protocol_error(payload):
    try:
        unpack_shard_errors(payload)
    except ProtocolError:
        pass
