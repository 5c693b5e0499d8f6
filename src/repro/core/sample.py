"""Sample and result models shared by every measurement technique.

The paper's primitive metric is the packet-pair *exchange*: for each sample,
a pair of test packets is sent and the technique decides — independently for
the forward path and the reverse path — whether the pair was exchanged in
flight, stayed in order, or could not be classified (loss, delayed-ACK
ambiguity, unsupported stack behaviour).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.stats.intervals import BinomialEstimate, binomial_estimate


class Direction(enum.Enum):
    """Which one-way path a classification refers to."""

    FORWARD = "forward"
    """Probe host to remote host (the direction the sample packets travel)."""

    REVERSE = "reverse"
    """Remote host back to the probe host (the direction the responses travel)."""


class SampleOutcome(enum.Enum):
    """Classification of one direction of one packet-pair sample."""

    IN_ORDER = "in-order"
    REORDERED = "reordered"
    AMBIGUOUS = "ambiguous"
    LOST = "lost"

    def is_valid(self) -> bool:
        """True when the outcome contributes to a reordering-rate estimate."""
        return self in (SampleOutcome.IN_ORDER, SampleOutcome.REORDERED)


@dataclass(slots=True)
class ReorderSample:
    """One packet-pair measurement sample.

    ``probe_uids`` carries the simulator-level unique ids of the two sample
    packets (first-sent first) so the controlled-validation harness can
    compare the technique's verdict against trace ground truth.
    """

    index: int
    time: float
    spacing: float
    forward: SampleOutcome
    reverse: SampleOutcome
    detail: str = ""
    probe_uids: tuple[int, ...] = ()
    response_uids: tuple[int, ...] = ()
    """Uids of the response packets used for classification, in the order the
    probe host received them (used by reverse-path ground-truth validation)."""

    def outcome(self, direction: Direction) -> SampleOutcome:
        """Return the outcome for the requested direction."""
        return self.forward if direction is Direction.FORWARD else self.reverse


@dataclass(slots=True)
class MeasurementResult:
    """The outcome of running one technique against one host once.

    A "measurement" in the paper's terminology is a batch of samples (15 in
    the survey); this class aggregates them and exposes per-direction counts
    and rate estimates.
    """

    test_name: str
    host_address: int
    start_time: float
    end_time: float
    spacing: float = 0.0
    samples: list[ReorderSample] = field(default_factory=list)
    notes: str = ""

    def add(self, sample: ReorderSample) -> None:
        """Append a completed sample."""
        self.samples.append(sample)

    def sample_count(self) -> int:
        """Total number of samples attempted."""
        return len(self.samples)

    def valid_samples(self, direction: Direction) -> int:
        """Samples whose outcome in ``direction`` is usable for estimation."""
        return sum(1 for s in self.samples if s.outcome(direction).is_valid())

    def reordered_samples(self, direction: Direction) -> int:
        """Samples classified as reordered in ``direction``."""
        return sum(1 for s in self.samples if s.outcome(direction) is SampleOutcome.REORDERED)

    def reordering_rate(self, direction: Direction) -> Optional[float]:
        """Point estimate of the reordering rate, or None if no valid samples."""
        valid = self.valid_samples(direction)
        if valid == 0:
            return None
        return self.reordered_samples(direction) / valid

    def estimate(self, direction: Direction, confidence: float = 0.95) -> Optional[BinomialEstimate]:
        """Rate estimate with a Wilson confidence interval, or None if no valid samples."""
        valid = self.valid_samples(direction)
        if valid == 0:
            return None
        return binomial_estimate(self.reordered_samples(direction), valid, confidence)

    def has_reordering(self) -> bool:
        """True when any sample in either direction was classified as reordered."""
        return any(
            s.forward is SampleOutcome.REORDERED or s.reverse is SampleOutcome.REORDERED
            for s in self.samples
        )

    def describe(self) -> str:
        """Render a one-line summary of this measurement."""
        forward = self.reordering_rate(Direction.FORWARD)
        reverse = self.reordering_rate(Direction.REVERSE)
        forward_text = "n/a" if forward is None else f"{forward:.3f}"
        reverse_text = "n/a" if reverse is None else f"{reverse:.3f}"
        return (
            f"{self.test_name}: {self.sample_count()} samples, "
            f"forward rate {forward_text}, reverse rate {reverse_text}"
        )
