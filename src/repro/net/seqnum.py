"""32-bit TCP sequence-number arithmetic (RFC 793 / RFC 1982 style).

TCP sequence numbers and IPID counters live in modular spaces.  All
comparisons in the measurement code go through these helpers so that
wraparound (explicitly called out by the paper for IPID: "modulo wraparound,
which is easily detected") is handled uniformly.  The exceptions are three
per-packet hot spots (the data-transfer fold, the endpoint's ACK handling
and its send loop), which spell out the same ``% SEQ_MODULO`` and
``SEQ_HALF`` arithmetic inline to save a call per comparison.
"""

from __future__ import annotations

SEQ_MODULO = 1 << 32
"""Size of the TCP sequence-number space."""

IPID_MODULO = 1 << 16
"""Size of the IP identification-field space."""

SEQ_HALF = SEQ_MODULO // 2
"""``a`` follows ``b`` exactly when ``0 < (a - b) % SEQ_MODULO <= SEQ_HALF``."""


def seq_add(seq: int, delta: int, modulo: int = SEQ_MODULO) -> int:
    """Return ``seq + delta`` wrapped into ``[0, modulo)``."""
    return (seq + delta) % modulo


def seq_diff(a: int, b: int, modulo: int = SEQ_MODULO) -> int:
    """Return the signed modular distance from ``b`` to ``a``.

    The result is in ``(-modulo/2, modulo/2]`` and answers "how far ahead of
    ``b`` is ``a``", treating the shorter way around the circle as the true
    distance.  ``seq_diff(5, 2) == 3`` and ``seq_diff(2, 5) == -3`` even
    across a wrap.
    """
    half = modulo // 2
    diff = (a - b) % modulo
    if diff > half:
        diff -= modulo
    return diff


# The four comparisons below each take ``(a - b) % modulo`` themselves rather
# than calling :func:`seq_diff`: with ``d`` that residue, ``seq_diff`` is
# negative exactly when ``d > modulo // 2`` and positive when
# ``0 < d <= modulo // 2``.


def seq_lt(a: int, b: int, modulo: int = SEQ_MODULO) -> bool:
    """Return True when ``a`` precedes ``b`` in modular order."""
    return (a - b) % modulo > modulo // 2


def seq_le(a: int, b: int, modulo: int = SEQ_MODULO) -> bool:
    """Return True when ``a`` precedes or equals ``b`` in modular order."""
    return not 0 < (a - b) % modulo <= modulo // 2


def seq_gt(a: int, b: int, modulo: int = SEQ_MODULO) -> bool:
    """Return True when ``a`` follows ``b`` in modular order."""
    return 0 < (a - b) % modulo <= modulo // 2


def seq_ge(a: int, b: int, modulo: int = SEQ_MODULO) -> bool:
    """Return True when ``a`` follows or equals ``b`` in modular order."""
    return (a - b) % modulo <= modulo // 2


def ipid_diff(a: int, b: int) -> int:
    """Signed modular distance between two IPID values (16-bit space)."""
    return seq_diff(a, b, IPID_MODULO)
