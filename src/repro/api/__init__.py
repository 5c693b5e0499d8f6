"""The unified session layer: typed requests in, enveloped results out.

This package is the library's one front door.  Build a request
(:class:`ProbeRequest`, :class:`CampaignRequest`, :class:`MatrixRequest`,
or :class:`ResumeRequest`), hand it to :meth:`Session.run`, and get back a
versioned :class:`ResultEnvelope` carrying the dataset plus its identity
(scenario label, plan digest, result digest).  Work executes on an
:class:`ExecutionBackend` (``serial``, ``process`` or ``remote``, or an
instance passed in), and one session shares one warm pool
across every request, shard, and matrix cell it runs.  The session is the
only place shards execute; ``python -m repro`` is a thin veneer over it.

>>> from repro.api import ProbeRequest, Session
>>> with Session(backend="serial") as session:
...     envelope = session.run(ProbeRequest(samples=20, seed=3))
>>> envelope.kind, envelope.version
('probe', 1)
"""

from repro.api.backends import (
    POOL_FAILURES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    backend_names,
    create_backend,
)
from repro.api.envelope import (
    ENVELOPE_VERSION,
    ResultEnvelope,
    plan_digest,
    unwrap_result,
)
from repro.api.requests import (
    CampaignRequest,
    MatrixRequest,
    ProbeRequest,
    Request,
    ResumeRequest,
)
from repro.api.session import Session

__all__ = [
    "CampaignRequest",
    "ENVELOPE_VERSION",
    "ExecutionBackend",
    "MatrixRequest",
    "POOL_FAILURES",
    "ProbeRequest",
    "ProcessBackend",
    "Request",
    "ResultEnvelope",
    "ResumeRequest",
    "SerialBackend",
    "Session",
    "backend_names",
    "create_backend",
    "plan_digest",
    "unwrap_result",
]
