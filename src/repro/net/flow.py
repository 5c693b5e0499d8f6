"""IPv4 addresses in dotted-quad text form.

A flow is a plain ``(src_addr, src_port, dst_addr, dst_port)`` tuple
wherever the simulator keys one, as the paper's tools key acknowledgments
to connections "using the source and destination port numbers as a key".
"""

from __future__ import annotations


def format_address(addr: int) -> str:
    """Render a 32-bit IPv4 address integer in dotted-quad notation."""
    if addr < 0 or addr > 0xFFFFFFFF:
        raise ValueError(f"address out of range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_address(text: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if octet < 0 or octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value
