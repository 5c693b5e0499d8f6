"""The prober: one entry point for running any technique against any host.

The paper's survey machine cycled through all four tests on each host; the
:class:`Prober` provides that uniform interface, normalising the differences
between the techniques (eligibility failures, handshake failures, variable
sample counts) into a single :class:`ProbeReport`.

One prober serves one simulator.  Survey-scale work drives many probers at
once: a :class:`repro.core.runner.CampaignPlan` gives every shard of a host
population its own simulator, probe host, and ``Prober``, and the reports
merge against it — see ``docs/architecture.md`` ("The sharded campaign runner") for
how the pieces fit together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.data_transfer import DataTransferTest
from repro.core.dual_connection import DualConnectionTest
from repro.core.sample import Direction, MeasurementResult
from repro.core.single_connection import SingleConnectionTest
from repro.core.syn_test import SynTest
from repro.host.raw_socket import ProbeHost
from repro.net.errors import HostNotEligibleError, MeasurementError


class TestName(enum.Enum):
    """The four measurement techniques."""

    __test__ = False  # a dunder, so not a member: tells pytest this is no test class

    SINGLE_CONNECTION = "single-connection"
    DUAL_CONNECTION = "dual-connection"
    SYN = "syn"
    DATA_TRANSFER = "data-transfer"

    @classmethod
    def all(cls) -> tuple["TestName", ...]:
        """All techniques, in the order the survey cycles through them."""
        return (cls.SINGLE_CONNECTION, cls.DUAL_CONNECTION, cls.SYN, cls.DATA_TRANSFER)


@dataclass(slots=True)
class ProbeReport:
    """The outcome of one measurement attempt (one test, one host, one round)."""

    test: TestName
    host_address: int
    result: Optional[MeasurementResult]
    error: Optional[str] = None
    ineligible: bool = False
    """True when the host failed a precondition (e.g. IPID validation).

    Set explicitly where :class:`~repro.net.errors.HostNotEligibleError` is
    caught.  The flag is authoritative — the error string is free-form text
    and is never pattern-matched.
    """

    @property
    def succeeded(self) -> bool:
        """True when the measurement produced at least one sample."""
        return self.result is not None and self.result.sample_count() > 0

    def rate(self, direction: Direction) -> Optional[float]:
        """Shortcut for the measured reordering rate, if any."""
        if self.result is None:
            return None
        return self.result.reordering_rate(direction)


class Prober:
    """Runs measurement techniques from a probe host against remote addresses."""

    def __init__(
        self,
        probe: ProbeHost,
        remote_port: int = 80,
        samples_per_measurement: int = 15,
        sample_timeout: float = 1.0,
        data_transfer_mss: int = 256,
        data_transfer_window: int = 1024,
    ) -> None:
        self.probe = probe
        self.remote_port = remote_port
        self.samples_per_measurement = samples_per_measurement
        self.sample_timeout = sample_timeout
        self.data_transfer_mss = data_transfer_mss
        self.data_transfer_window = data_transfer_window

    def build_test(self, test: TestName, address: int):
        """Instantiate the requested technique targeting ``address``."""
        if test is TestName.SINGLE_CONNECTION:
            return SingleConnectionTest(
                self.probe, address, self.remote_port, sample_timeout=self.sample_timeout
            )
        if test is TestName.DUAL_CONNECTION:
            return DualConnectionTest(
                self.probe, address, self.remote_port, sample_timeout=self.sample_timeout
            )
        if test is TestName.SYN:
            return SynTest(self.probe, address, self.remote_port, sample_timeout=self.sample_timeout)
        if test is TestName.DATA_TRANSFER:
            return DataTransferTest(
                self.probe,
                address,
                self.remote_port,
                mss=self.data_transfer_mss,
                advertised_window=self.data_transfer_window,
            )
        raise MeasurementError(f"unknown test: {test}")

    def run(
        self,
        test: TestName,
        address: int,
        num_samples: Optional[int] = None,
        spacing: float = 0.0,
    ) -> ProbeReport:
        """Run one measurement and capture failures as part of the report."""
        technique = self.build_test(test, address)
        samples = num_samples if num_samples is not None else self.samples_per_measurement
        try:
            result = technique.run(samples, spacing=spacing)
        except HostNotEligibleError as exc:
            return ProbeReport(
                test=test,
                host_address=address,
                result=None,
                error=f"not eligible: {exc}",
                ineligible=True,
            )
        except MeasurementError as exc:
            return ProbeReport(test=test, host_address=address, result=None, error=str(exc))
        error = None
        if result.sample_count() == 0:
            error = result.notes or "no samples collected"
        return ProbeReport(test=test, host_address=address, result=result, error=error)
