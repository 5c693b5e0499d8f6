"""The Internet checksum (RFC 1071) used by IPv4, TCP, and ICMP.

The simulator does not strictly need checksums to function, but the wire
serialization layer computes them so that traces captured from the simulator
look like real traffic.  A buffer whose embedded checksum is intact sums to
zero: ``internet_checksum(buffer) == 0``.
"""

from __future__ import annotations

import struct
from typing import Union

Buffer = Union[bytes, bytearray, memoryview]
"""Any bytes-like object the checksum routines accept.

Accepting :class:`memoryview` lets the wire layer checksum a window of its
preallocated serialization buffer in place — no slice copy per packet."""


def internet_checksum(data: Buffer, initial: int = 0) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    The sum is taken a 16-bit word at a time with one ``struct.unpack``
    call (format strings are cached by the struct module) and a C-level
    ``sum`` over the resulting tuple, rather than indexing bytes one at a
    time in Python.  The tests keep the original byte-at-a-time loop as the
    correctness oracle this is checked against.

    Parameters
    ----------
    data:
        The buffer (``bytes``, ``bytearray``, or ``memoryview``) to
        checksum.  If its length is odd it is implicitly padded with a
        trailing zero byte, as specified by RFC 1071.
    initial:
        A pre-accumulated 16-bit partial sum (useful for including a
        pseudo-header without concatenating buffers).

    Returns
    -------
    int
        The checksum as an integer in ``[0, 0xFFFF]``.
    """
    if initial < 0 or initial > 0xFFFF:
        raise ValueError(f"initial partial sum out of range: {initial}")
    length = len(data)
    words, odd = divmod(length, 2)
    # Sum 16-bit big-endian (network order) words.
    total = initial + sum(struct.unpack_from(f"!{words}H", data))
    if odd:
        total += data[-1] << 8
    # Fold carries back into the low 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def pseudo_header_sum(src: int, dst: int, protocol: int, length: int) -> int:
    """Compute the partial sum of a TCP/UDP pseudo header.

    Parameters
    ----------
    src, dst:
        Source and destination IPv4 addresses as 32-bit integers.
    protocol:
        IP protocol number (6 for TCP).
    length:
        Length of the transport header plus payload in bytes.

    Returns
    -------
    int
        A folded 16-bit partial sum suitable for the ``initial`` argument of
        :func:`internet_checksum`.
    """
    total = 0
    total += (src >> 16) & 0xFFFF
    total += src & 0xFFFF
    total += (dst >> 16) & 0xFFFF
    total += dst & 0xFFFF
    total += protocol & 0xFF
    total += length & 0xFFFF
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total
