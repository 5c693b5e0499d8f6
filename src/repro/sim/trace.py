"""Trace capture: the simulator's stand-in for tcpdump.

The controlled-validation experiment (paper §IV-A) compares the reordering
reported by each measurement technique with ground truth extracted from a
packet trace captured on the router.  :class:`TraceCapture` is a transparent
path element that records every packet it forwards along with its arrival
time, and provides the small amount of analysis the validation needs: the
actual arrival order of identified packets and whether a given pair was
exchanged in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.packet import Packet
from repro.sim.path import PathElement


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One captured packet: arrival time, the packet, and the capture point label."""

    time: float
    packet: Packet
    point: str

    def describe(self) -> str:
        """Return a tcpdump-style one-line rendering of this record."""
        return f"{self.time:.9f} [{self.point}] {self.packet.describe()}"


class TraceCapture(PathElement):
    """Records every packet passing through it, then forwards it unchanged.

    The capture hot path appends a plain ``(time, packet)`` tuple;
    :class:`TraceRecord` objects are materialised lazily by the ``records``
    accessor, so forwarding cost stays minimal on paths that are traced but
    whose traces are never analysed (every survey path has a capture point).
    """

    def __init__(self, point: str = "capture") -> None:
        super().__init__()
        self.point = point
        self._entries: list[tuple[float, Packet]] = []
        self._append = self._entries.append

    def handle_packet(self, packet: Packet) -> None:
        sim = self._sim
        self._append((sim.now, packet))
        self._emit(packet)

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """All captured records in arrival order."""
        point = self.point
        return tuple(
            TraceRecord(time=time, packet=packet, point=point)
            for time, packet in self._entries
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Discard all captured records (e.g. between validation runs)."""
        self._entries.clear()

    def arrival_order(self, uids: Iterable[int]) -> list[int]:
        """Return the subset of ``uids`` that were captured, in arrival order."""
        wanted = set(uids)
        ordered: list[int] = []
        seen: set[int] = set()
        for _time, packet in self._entries:
            uid = packet.uid
            if uid in wanted and uid not in seen:
                ordered.append(uid)
                seen.add(uid)
        return ordered

    def was_exchanged(self, first_uid: int, second_uid: int) -> Optional[bool]:
        """Return True when the later-sent packet arrived before the earlier-sent one.

        ``first_uid`` identifies the packet sent first.  Returns None when
        either packet never arrived (lost), so callers can distinguish
        "in order", "exchanged", and "undetermined".
        """
        order = self.arrival_order([first_uid, second_uid])
        if len(order) != 2:
            return None
        return order[0] == second_uid

    def describe(self) -> str:
        """Return the whole trace as a multi-line string (for debugging)."""
        return "\n".join(record.describe() for record in self.records)
