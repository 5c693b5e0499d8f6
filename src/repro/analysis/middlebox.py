"""Middlebox taxonomy: classify per-host failures by their likely cause.

The paper's E6 reports *that* hosts were ineligible (load balancers,
constant IPIDs); it could not say much about *why* probing failed for the
rest, because a single vantage point sees only the symptom.  The simulator
knows the ground truth, which makes the symptom→cause mapping testable:
each middlebox class leaves a distinct fingerprint across the four
techniques, and this module recovers the cause from the fingerprint alone —
the same inference an operator of the paper's methodology could run.

Fingerprints (see :mod:`repro.sim.middlebox` for the mechanisms):

========================  ====================================================
cause                     symptom across techniques
========================  ====================================================
``nat-timeout``           handshakes fail even for *single* connections —
                          the NAT mapping expires mid-flow and replies drop
``syn-firewall``          single-connection probing is clean, but the
                          dual-connection/SYN tests (which need two quick
                          connection attempts) lose their handshakes
``pmtud-blackhole``       control-packet tests are clean while data transfer
                          starves (big DF segments silently vanish)
``ipid-policy``           the dual-connection test rules the host out during
                          IPID validation (constant/random counters, or a
                          load balancer splitting the two connections)
``other``                 errors that match no known fingerprint
``clean``                 no errors at all
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.report import format_table
from repro.core.prober import TestName

CAUSE_CLEAN = "clean"
CAUSE_NAT = "nat-timeout"
CAUSE_SYN_FIREWALL = "syn-firewall"
CAUSE_PMTUD = "pmtud-blackhole"
CAUSE_IPID_POLICY = "ipid-policy"
CAUSE_OTHER = "other"

ALL_CAUSES = (
    CAUSE_NAT,
    CAUSE_SYN_FIREWALL,
    CAUSE_PMTUD,
    CAUSE_IPID_POLICY,
    CAUSE_OTHER,
    CAUSE_CLEAN,
)

_HANDSHAKE = "handshake"
_DATA_STARVED = ("object too small", "no samples", "stall")


@dataclass(slots=True)
class HostDiagnosis:
    """One host's observed failures and the causes inferred from them."""

    host_address: int
    causes: tuple[str, ...]
    errors: tuple[str, ...] = ()


@dataclass(slots=True)
class MiddleboxTaxonomy:
    """Population-level classification of probing failures by middlebox cause."""

    total_hosts: int
    diagnoses: list[HostDiagnosis] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Hosts per cause (a host with several causes counts under each)."""
        counts = {cause: 0 for cause in ALL_CAUSES}
        for diagnosis in self.diagnoses:
            for cause in diagnosis.causes:
                counts[cause] += 1
        return counts

    def to_table(self) -> str:
        """Render the taxonomy table (extends the E6 eligibility report)."""
        counts = self.counts()
        rows = [
            [cause, counts[cause], f"{counts[cause] / self.total_hosts:.0%}" if self.total_hosts else "-"]
            for cause in ALL_CAUSES
        ]
        return format_table(
            headers=["cause", "hosts", "fraction"],
            rows=rows,
            title=f"Middlebox taxonomy over {self.total_hosts} hosts",
        )


def diagnose(host_address: int, errors_by_test: Mapping[TestName, Sequence[str]]) -> HostDiagnosis:
    """Diagnose one host from its failed attempts' error strings per test."""

    def errors_for(*tests: TestName) -> list[str]:
        return [error for test in tests for error in errors_by_test.get(test, ())]

    all_errors: list[str] = errors_for(*TestName.all())
    if not all_errors:
        return HostDiagnosis(host_address=host_address, causes=(CAUSE_CLEAN,))

    causes: list[str] = []
    explained: set[str] = set()

    if any("IPID validation" in error for error in all_errors):
        causes.append(CAUSE_IPID_POLICY)
        explained.update(e for e in all_errors if "IPID validation" in e)

    single_handshake_failed = any(
        _HANDSHAKE in error for error in errors_for(TestName.SINGLE_CONNECTION)
    )
    pair_handshake_failed = any(
        _HANDSHAKE in error
        for error in errors_for(TestName.DUAL_CONNECTION, TestName.SYN)
    )
    if single_handshake_failed:
        # Only a mapping expiring mid-flow kills an isolated handshake while
        # the host itself stays reachable for other rounds; dual/SYN
        # handshake losses on the same host share that explanation.
        causes.append(CAUSE_NAT)
        explained.update(e for e in all_errors if _HANDSHAKE in e)
    elif pair_handshake_failed:
        causes.append(CAUSE_SYN_FIREWALL)
        explained.update(e for e in all_errors if _HANDSHAKE in e)

    data_errors = errors_for(TestName.DATA_TRANSFER)
    data_starved = [
        error
        for error in data_errors
        if _HANDSHAKE not in error and any(mark in error for mark in _DATA_STARVED)
    ]
    if data_starved and not single_handshake_failed:
        causes.append(CAUSE_PMTUD)
        explained.update(data_starved)

    if any(error not in explained for error in all_errors):
        causes.append(CAUSE_OTHER)

    return HostDiagnosis(
        host_address=host_address,
        causes=tuple(causes),
        errors=tuple(dict.fromkeys(all_errors)),
    )
