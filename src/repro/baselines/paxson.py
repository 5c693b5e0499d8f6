"""Paxson-style passive measurement baseline (paper §II).

Paxson's 1997 study transferred 100 KB files between measurement hosts,
captured packet traces passively, and analysed TCP sequence numbers to decide
whether segments were delivered out of order.  The study reported two
figures: the fraction of sessions with at least one reordering event, and the
fraction of packets delivered out of order (in each direction).

The simulated analogue drives a bulk transfer from a remote web server to the
probe host (full-sized segments, realistic window) and applies the same
trace analysis to the segments the probe receives.  Because the probe cannot
observe the forward direction of someone else's transfer, only the data
direction is analysed — one of the scaling limitations the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.data_transfer import DataTransferTest
from repro.core.sample import Direction, SampleOutcome
from repro.host.raw_socket import ProbeHost
from repro.net.errors import MeasurementError
from repro.stats.intervals import BinomialEstimate, binomial_estimate


@dataclass(frozen=True, slots=True)
class PaxsonSessionResult:
    """Analysis of one bulk-transfer session."""

    host_address: int
    segments_observed: int
    reordered_segments: int
    had_reordering: bool

    @property
    def packet_reordering_fraction(self) -> float:
        """Fraction of observed data segments that arrived out of order."""
        if self.segments_observed == 0:
            return 0.0
        return self.reordered_segments / self.segments_observed


@dataclass(slots=True)
class PaxsonSummary:
    """Aggregate Paxson-style statistics over many sessions."""

    sessions: list[PaxsonSessionResult] = field(default_factory=list)

    def add(self, session: PaxsonSessionResult) -> None:
        """Append one analysed session."""
        self.sessions.append(session)

    def session_count(self) -> int:
        """Number of sessions analysed."""
        return len(self.sessions)

    def sessions_with_reordering(self) -> BinomialEstimate:
        """Estimate of the fraction of sessions with at least one reordering event."""
        if not self.sessions:
            raise MeasurementError("no sessions analysed")
        reordered = sum(1 for session in self.sessions if session.had_reordering)
        return binomial_estimate(reordered, len(self.sessions))

    def packet_reordering_fraction(self) -> BinomialEstimate:
        """Estimate of the fraction of data packets delivered out of order."""
        segments = sum(session.segments_observed for session in self.sessions)
        reordered = sum(session.reordered_segments for session in self.sessions)
        if segments == 0:
            raise MeasurementError("no segments observed")
        return binomial_estimate(reordered, segments)


class PaxsonStudy:
    """Runs bulk transfers against a set of hosts and analyses them passively."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_port: int = 80,
        mss: int = 1460,
        advertised_window: int = 8 * 1460,
    ) -> None:
        self.probe = probe
        self.remote_port = remote_port
        self.mss = mss
        self.advertised_window = advertised_window

    def measure_session(self, host_address: int) -> PaxsonSessionResult:
        """Transfer the host's root object once and analyse the receive order."""
        transfer = DataTransferTest(
            self.probe,
            host_address,
            self.remote_port,
            mss=self.mss,
            advertised_window=self.advertised_window,
        )
        measurement = transfer.run()
        reordered = measurement.reordered_samples(Direction.REVERSE)
        valid = measurement.valid_samples(Direction.REVERSE)
        segments = valid + 1 if valid else 0
        return PaxsonSessionResult(
            host_address=host_address,
            segments_observed=segments,
            reordered_segments=reordered,
            had_reordering=any(
                sample.reverse is SampleOutcome.REORDERED for sample in measurement.samples
            ),
        )

    def run(self, host_addresses: Sequence[int], sessions_per_host: int = 1) -> PaxsonSummary:
        """Measure every host ``sessions_per_host`` times."""
        if sessions_per_host < 1:
            raise MeasurementError(f"need at least one session per host: {sessions_per_host}")
        summary = PaxsonSummary()
        for _round in range(sessions_per_host):
            for address in host_addresses:
                summary.add(self.measure_session(address))
        return summary
