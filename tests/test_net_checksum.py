"""Tests for the Internet checksum implementation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.checksum import Buffer, internet_checksum, pseudo_header_sum


def reference_checksum(data: Buffer, initial: int = 0) -> int:
    """The original byte-at-a-time RFC 1071 loop, kept as a test oracle.

    Deliberately naive: sums big-endian 16-bit words with Python-level byte
    indexing.  The tests assert :func:`internet_checksum` matches this on
    arbitrary buffers, so the fast path can never silently diverge from the
    specification.
    """
    if initial < 0 or initial > 0xFFFF:
        raise ValueError(f"initial partial sum out of range: {initial}")
    total = initial
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def test_known_rfc1071_example():
    # The classic example from RFC 1071 section 3.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    checksum = internet_checksum(data)
    assert checksum == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)


def test_checksum_of_zeros_is_all_ones():
    assert internet_checksum(b"\x00" * 10) == 0xFFFF


def test_checksum_odd_length_pads_with_zero():
    even = internet_checksum(bytes([0x12, 0x34, 0x56, 0x00]))
    odd = internet_checksum(bytes([0x12, 0x34, 0x56]))
    assert even == odd


def test_checksum_round_trip_sums_to_zero():
    data = bytes(range(20))
    checksum = internet_checksum(data)
    buffer = data + checksum.to_bytes(2, "big")
    assert internet_checksum(buffer) == 0


def test_verify_detects_corruption():
    data = bytes(range(20))
    checksum = internet_checksum(data)
    buffer = bytearray(data + checksum.to_bytes(2, "big"))
    buffer[3] ^= 0xFF
    assert internet_checksum(bytes(buffer)) != 0


def test_initial_partial_sum_out_of_range_rejected():
    with pytest.raises(ValueError):
        internet_checksum(b"\x00", initial=0x10000)


def test_pseudo_header_sum_folds_to_16_bits():
    total = pseudo_header_sum(0xFFFFFFFF, 0xFFFFFFFF, 6, 0xFFFF)
    assert 0 <= total <= 0xFFFF


def test_checksum_range():
    for length in range(0, 64):
        value = internet_checksum(bytes(range(length % 256)) * 1)
        assert 0 <= value <= 0xFFFF


# --------------------------------------------------------------------- #
# Fast word-at-a-time path vs. the byte-at-a-time reference oracle.
# --------------------------------------------------------------------- #


@given(st.binary(max_size=512), st.integers(min_value=0, max_value=0xFFFF))
@settings(max_examples=300, deadline=None)
def test_fast_checksum_matches_reference_oracle(data, initial):
    assert internet_checksum(data, initial=initial) == reference_checksum(data, initial=initial)


def test_fast_checksum_matches_reference_on_edge_lengths():
    for length in (0, 1, 2, 3, 15, 16, 17, 255, 256, 1499, 1500):
        data = bytes((i * 37) & 0xFF for i in range(length))
        assert internet_checksum(data) == reference_checksum(data)


def test_reference_oracle_rejects_bad_initial_sum_too():
    with pytest.raises(ValueError):
        reference_checksum(b"\x00", initial=-1)
