"""Versioned result envelopes: every API result, self-describing.

A :class:`ResultEnvelope` is what :class:`repro.api.Session` hands back for
any request: the payload (a :class:`~repro.core.campaign.CampaignResult`, a
:class:`~repro.scenarios.matrix.MatrixResult`, or a probe's report mapping)
wrapped with its identity — the envelope format version, the scenario label,
a digest of the campaign *plan* that produced it, and the
:func:`~repro.core.runner.result_digest` of the dataset itself.  Two
envelopes with equal ``result_digest`` measured the same thing, regardless
of backend, shard count, worker count, or whether either run was resumed
from a store.

The analysis layer accepts envelopes directly:
:func:`repro.analysis.streaming.survey_from_envelope` streams one into the
survey fold, and :func:`unwrap_result` lets a helper such as
:func:`repro.analysis.survey.summarize_eligibility` take either a result or
an envelope.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

from repro.core.schema import pack
from repro.net.errors import MeasurementError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.campaign import CampaignResult, HostRoundResult
    from repro.core.runner import CampaignPlan

ENVELOPE_VERSION = 1
"""Version of the envelope contract.  Bumped only on incompatible change."""

KIND_PROBE = "probe"
KIND_CAMPAIGN = "campaign"
KIND_MATRIX = "matrix"


def plan_digest(plan: "CampaignPlan") -> str:
    """sha256 of a campaign plan's binary encoding (:func:`repro.core.schema.pack`).

    Plans with equal digests were *configured* identically (specs, config,
    seed, shards, tests, port, scenario), so equal ``result_digest`` follows;
    a value outside its field's range raises ``MeasurementError``.
    """
    try:
        return hashlib.sha256(pack(plan)).hexdigest()
    except struct.error as exc:
        raise MeasurementError(f"campaign plan value outside its field range: {exc}") from exc


@dataclass(frozen=True, slots=True)
class ResultEnvelope:
    """One request's result plus everything needed to identify it.

    ``payload`` holds the raw result object for ``kind``:

    ========== =====================================================
    kind       payload
    ========== =====================================================
    probe      ``dict[TestName, ProbeReport]`` (one quick-testbed visit)
    campaign   :class:`~repro.core.campaign.CampaignResult`
    matrix     :class:`~repro.scenarios.matrix.MatrixResult`
    ========== =====================================================

    ``meta`` carries request-shaped context (seed, shards, backend name,
    store path...) so a result can be traced back to what produced it
    without keeping the request object alive.
    """

    kind: str
    payload: Any
    scenario: Optional[str] = None
    plan_digest: Optional[str] = None
    result_digest: Optional[str] = None
    version: int = ENVELOPE_VERSION
    meta: Mapping[str, Any] = field(default_factory=dict)
    children: tuple["ResultEnvelope", ...] = ()
    """Per-cell campaign envelopes, for ``matrix`` results."""

    @property
    def result(self) -> "CampaignResult":
        """The campaign dataset of a ``campaign`` envelope."""
        if self.kind != KIND_CAMPAIGN:
            raise MeasurementError(
                f"envelope of kind {self.kind!r} has no single campaign result"
            )
        return self.payload

    def iter_records(self) -> Iterator["HostRoundResult"]:
        """Every campaign record in the envelope, across matrix cells too."""
        if self.kind == KIND_CAMPAIGN:
            yield from self.payload.records
        elif self.kind == KIND_MATRIX:
            for child in self.children:
                yield from child.iter_records()
        else:
            raise MeasurementError(
                f"envelope of kind {self.kind!r} carries no campaign records"
            )


def unwrap_result(obj: "CampaignResult | ResultEnvelope") -> "CampaignResult":
    """Accept a campaign result or an envelope wrapping one."""
    if isinstance(obj, ResultEnvelope):
        return obj.result
    return obj


__all__ = [
    "ENVELOPE_VERSION",
    "KIND_CAMPAIGN",
    "KIND_MATRIX",
    "KIND_PROBE",
    "ResultEnvelope",
    "plan_digest",
    "unwrap_result",
]
