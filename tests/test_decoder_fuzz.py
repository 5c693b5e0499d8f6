"""Byte-mutation fuzzing of the decoders that read bytes from outside.

``decode_outcomes`` reads the result blobs pool and socket workers send;
``decode_payload`` (of a ``Hello``, a ``Batch`` or a ``ShardErrors``) and
``unpack_result`` read the remote protocol's payloads, from either end of
the socket; ``parse_packet`` and ``parse_icmp_error`` read wire packets and
ICMP error bodies.  Each must hold one contract on arbitrary input: decode,
or raise the module's typed error
(:class:`~repro.net.errors.TransportError`,
:class:`~repro.net.errors.ProtocolError`,
:class:`~repro.net.errors.ParseError`).  Any other exception, or an input
that makes a decoder spin past the Hypothesis deadline, fails the test.  An
ICMP error that decodes must also describe itself and recover its quoted
flow without raising.

The seeds are real encodings: the result blobs of golden-config shards of
three scenarios, a batch holding a shard task of every registry scenario
(so every spec type and tagged path element), hello, result and
shard-error payloads, and a SYN with an MSS option, a data segment, an echo
request and a TTL-exceeded error quoting a TCP segment.  Each example
applies a few flips, insertions, deletions and truncations to one seed.
"""

from __future__ import annotations

from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runner import CampaignPlan, run_shard
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
from repro.net.errors import ParseError, ProtocolError, TransportError
from repro.net.icmp import ICMP_TTL_EXCEEDED, IcmpError, QuotedFlow, parse_icmp_error, quote_packet
from repro.net.packet import ICMP_ECHO_REQUEST, PROTO_TCP, IcmpEcho, Packet, TcpFlags, TcpHeader, TcpOption
from repro.net.wire import parse_packet, serialize_packet
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
        plan = CampaignPlan.of(
            build_scenario_hosts(scenario, seed=GOLDEN_SEED),
            GOLDEN_CONFIG,
            seed=GOLDEN_SEED,
            shards=2,
            scenario=name,
        )
        blobs.append(encode_outcomes([run_shard(task) for task in plan.shard_tasks()]))
    return tuple(blobs)


@cache
def _batch_payloads() -> tuple[bytes, ...]:
    """A batch of one shard task per registry scenario, and a one-task batch."""
    tasks = []
    for name in scenario_names():
        scenario = get_scenario(name).with_population(num_hosts=GOLDEN_HOSTS)
        plan = CampaignPlan.of(
            build_scenario_hosts(scenario, seed=GOLDEN_SEED),
            GOLDEN_CONFIG,
            seed=GOLDEN_SEED,
            scenario=name,
        )
        tasks.extend(plan.shard_tasks(first_index=len(tasks)))
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


# --------------------------------------------------------------------- #
# Packets and ICMP error bodies
# --------------------------------------------------------------------- #

_PROBE, _HOST, _ROUTER = 0x0A000001, 0x0A000002, 0x0A0000FE


@cache
def _packet_seeds() -> tuple[bytes, ...]:
    """A SYN with an MSS option, a data segment, an echo request, and a
    TTL-exceeded error quoting the data segment."""
    syn = TcpHeader(33001, 80, seq=1000, flags=TcpFlags.SYN, options=(TcpOption.mss(1460),))
    data = Packet.tcp_packet(
        _PROBE, _HOST,
        TcpHeader(33001, 80, seq=1001, ack=5001, flags=TcpFlags.ACK | TcpFlags.PSH),
        payload=b"GET / HTTP/1.0\r\n\r\n", ident=8,
    )
    packets = (
        Packet.tcp_packet(_PROBE, _HOST, syn, ident=7),
        data,
        Packet.icmp_packet(_PROBE, _HOST, IcmpEcho(ICMP_ECHO_REQUEST, 7, 9, b"ping"), ident=9),
        Packet.icmp_error_packet(
            _ROUTER, _PROBE, IcmpError(ICMP_TTL_EXCEEDED, quoted=quote_packet(data)), ident=10
        ),
    )
    return tuple(serialize_packet(packet) for packet in packets)


@cache
def _icmp_error_bodies() -> tuple[bytes, ...]:
    """The TTL-exceeded seed's ICMP body, and a frag-needed one quoting a SYN."""
    syn = parse_packet(_packet_seeds()[0])
    frag = Packet.icmp_error_packet(_ROUTER, _PROBE, IcmpError.frag_needed(syn, 576))
    return _packet_seeds()[3][20:], serialize_packet(frag)[20:]


def _exercise(error: IcmpError) -> None:
    error.quoted_flow()
    error.describe()


def test_packet_seeds_decode():
    packets = [parse_packet(data) for data in _packet_seeds()]
    assert packets[0].tcp.mss() == 1460
    assert packets[1].payload.startswith(b"GET")
    assert packets[2].icmp.sequence == 9
    assert packets[3].icmp.quoted_flow() == QuotedFlow(_PROBE, _HOST, PROTO_TCP, 33001, 80)
    assert [parse_icmp_error(body).describe() for body in _icmp_error_bodies()] == [
        f"ttl-exceeded quoting {_PROBE}:33001>{_HOST}:80",
        f"frag-needed mtu=576 quoting {_PROBE}:33001>{_HOST}:80",
    ]


@FUZZ
@given(_mutated(_packet_seeds))
def test_mutated_packets_decode_or_raise_parse_error(data):
    try:
        packet = parse_packet(data)
    except ParseError:
        return
    if isinstance(packet.icmp, IcmpError):
        _exercise(packet.icmp)


@FUZZ
@given(_mutated(_icmp_error_bodies))
def test_mutated_icmp_error_bodies_decode_or_raise_parse_error(body):
    try:
        error = parse_icmp_error(body)
    except ParseError:
        return
    _exercise(error)


@FUZZ
@given(st.sampled_from((0, 1)), st.binary(max_size=64))
def test_an_icmp_error_with_any_quote_decodes(seed, quote):
    """A valid error header decodes whatever it quotes."""
    error = parse_icmp_error(_icmp_error_bodies()[seed][:8] + quote)
    assert error.quoted == quote
    _exercise(error)
