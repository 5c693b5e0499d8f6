"""Shared plumbing for the distributed-backend test suites.

Both ``test_distributed_remote`` and ``test_distributed_chaos`` need the
same three things: golden-parameter campaign requests, a process-wide cache
of serial reference digests (the conformance bar every remote run must hit
bit-for-bit), and a :class:`~repro.distributed.backend.RemoteBackend`
factory tuned for test speed — fast heartbeats and short leases (requeue
backoff is a constant of the lease book) — without changing anything that
is measured.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.api import CampaignRequest, Session
from repro.core.runner import EXECUTOR_SERIAL
from repro.distributed.backend import RemoteBackend
from test_golden_signatures import GOLDEN_CONFIG, GOLDEN_HOSTS, GOLDEN_SEED

#: When set (the CI chaos-matrix job does), every chaos campaign checkpoints
#: into a store under this directory so failures upload a debuggable artifact.
CHAOS_STORE_ENV = "CHAOS_STORE_DIR"

_SERIAL_CACHE: "dict[tuple[str, int], str]" = {}


def request(
    name: str,
    shards: int = 2,
    store=None,
    on_checkpoint=None,
) -> CampaignRequest:
    return CampaignRequest(
        scenario=name,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=shards,
        store=store,
        on_checkpoint=on_checkpoint,
    )


def serial_digest(name: str, shards: int = 2) -> str:
    """The serial reference digest for a scenario, computed once per process."""
    key = (name, shards)
    if key not in _SERIAL_CACHE:
        with Session(backend=EXECUTOR_SERIAL) as session:
            _SERIAL_CACHE[key] = session.run(request(name, shards=shards)).result_digest
    return _SERIAL_CACHE[key]


def make_backend(**overrides) -> RemoteBackend:
    """A remote backend with test-speed timings (overridable per test)."""
    kwargs = dict(
        spawn_workers=2,
        heartbeat_interval=0.15,
        lease_timeout=1.0,
        wait_timeout=30.0,
    )
    kwargs.update(overrides)
    return RemoteBackend(**kwargs)


def chaos_store(label: str, scenario: str) -> Optional[Path]:
    """A per-campaign artifact store dir under ``CHAOS_STORE_DIR``, if set."""
    root = os.environ.get(CHAOS_STORE_ENV, "").strip()
    if not root:
        return None
    path = Path(root) / label / scenario
    path.parent.mkdir(parents=True, exist_ok=True)
    return path
