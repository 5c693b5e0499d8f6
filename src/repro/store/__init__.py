"""Durable, append-only campaign storage with checkpointed, resumable runs.

The multi-day survey the paper describes (§IV-B) cannot afford to lose a
campaign to a crash, a preemption, or a Ctrl-C.  :class:`CampaignStore`
persists a campaign shard by shard as CRC-framed JSONL payloads appended to
one log (one fsync per checkpoint) beside a write-once manifest that holds
its :class:`~repro.core.runner.CampaignPlan`; a :class:`repro.api.Session`
checkpoints into it as each shard completes and resumes from the last
durable shard, reproducing the uninterrupted run's merged
:func:`~repro.core.runner.result_signature` bit for bit.
:func:`migrate_store` converts an older store (one file per shard, or a
manifest without host specs) in place.  ``docs/architecture.md``
("Durability & resume") documents the on-disk format and commit protocol.
"""

from repro.store.codec import FORMAT_VERSION, decode_record, encode_record
from repro.store.store import (
    LOG_NAME,
    MANIFEST_NAME,
    CampaignStore,
    migrate_store,
)

__all__ = [
    "CampaignStore",
    "FORMAT_VERSION",
    "LOG_NAME",
    "MANIFEST_NAME",
    "decode_record",
    "encode_record",
    "migrate_store",
]
