"""Byte-mutation fuzzing of the decoders that read bytes from another process.

``decode_outcomes`` reads the result blobs pool and socket workers send;
``decode_payload`` (of a ``Hello``, a ``Batch`` or a ``ShardErrors``) and
``unpack_result`` read the remote protocol's payloads, from either end of
the socket.  Each must hold one contract on arbitrary input: decode,
or raise the module's typed error
(:class:`~repro.net.errors.TransportError`,
:class:`~repro.net.errors.ProtocolError`).  Any other exception, or an input
that makes a decoder spin past the Hypothesis deadline, fails the test.

The seeds are real encodings: the result blobs of golden-config shards of
three scenarios, a batch holding a shard task of every registry scenario
(so every spec type and tagged path element), and hello, result and
shard-error payloads.  Each example applies a few flips, insertions,
deletions and truncations to one seed.
"""

from __future__ import annotations

from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runner import CampaignRunner, run_shard
from repro.core.schema import pack
from repro.core.transport import decode_outcomes, encode_outcomes
from repro.distributed.protocol import (
    Batch,
    Hello,
    ShardError,
    ShardErrors,
    decode_payload,
    pack_result,
    unpack_result,
)
from repro.net.errors import ProtocolError, TransportError
from repro.scenarios import build_scenario_hosts, get_scenario, scenario_names
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


@cache
def _batch_payloads() -> tuple[bytes, ...]:
    """A batch of one shard task per registry scenario, and a one-task batch."""
    tasks = []
    for name in scenario_names():
        scenario = get_scenario(name).with_population(num_hosts=GOLDEN_HOSTS)
        runner = CampaignRunner(
            build_scenario_hosts(scenario, seed=GOLDEN_SEED),
            GOLDEN_CONFIG,
            seed=GOLDEN_SEED,
            scenario=name,
        )
        tasks.extend(runner.shard_tasks(first_index=len(tasks)))
    assert len(tasks) == 12
    return pack(Batch(7, tasks)), pack(Batch(2**40, tasks[-1:]))


_HELLO_PAYLOADS = (pack(Hello(0, 4242)), pack(Hello(2**20, 2**31 - 1)))


@cache
def _result_payloads() -> tuple[bytes, ...]:
    return pack_result(5, _result_blobs()[0]), pack_result(2**32 - 1, b"")


_SHARD_ERROR_PAYLOADS = (
    pack(
        ShardErrors(
            9, [ShardError(0, "boom"), ShardError(7, "unicode ✗ failure"), ShardError(2**40, "")]
        )
    ),
    pack(ShardErrors(0, [])),
    pack(ShardErrors(3, [ShardError(5, "Traceback: shard 5 raised MeasurementError")])),
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
        decode_payload(ShardErrors, payload)
    assert [len(decode_payload(Batch, payload).tasks) for payload in _batch_payloads()] == [12, 1]
    assert decode_payload(Hello, _HELLO_PAYLOADS[0]) == Hello(0, 4242)
    assert unpack_result(_result_payloads()[0]) == (5, _result_blobs()[0])


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
        decode_payload(ShardErrors, payload)
    except ProtocolError:
        pass


@FUZZ
@given(_mutated(_batch_payloads))
def test_mutated_batch_payloads_decode_or_raise_protocol_error(payload):
    try:
        decode_payload(Batch, payload)
    except ProtocolError:
        pass


@FUZZ
@given(_mutated(lambda: _HELLO_PAYLOADS))
def test_mutated_hello_payloads_decode_or_raise_protocol_error(payload):
    try:
        decode_payload(Hello, payload)
    except ProtocolError:
        pass


@FUZZ
@given(_mutated(_result_payloads))
def test_mutated_result_payloads_split_or_raise_protocol_error(payload):
    try:
        batch_id, blob = unpack_result(payload)
    except ProtocolError:
        assert len(payload) < 4
        return
    assert payload == batch_id.to_bytes(4, "big") + blob
