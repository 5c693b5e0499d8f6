"""Job handles: submitted work as a first-class, observable object.

:meth:`repro.api.Session.submit` returns a :class:`JobHandle` immediately;
the work runs on a dedicated worker thread (shard- and cell-level
parallelism still comes from the session's execution backend underneath).
The handle exposes :meth:`~JobHandle.status`, blocking
:meth:`~JobHandle.result`, progress/checkpoint callbacks, and cooperative
:meth:`~JobHandle.cancel`.

Cancellation is honoured at *progress boundaries* — shard checkpoints for
campaigns, cell boundaries for matrix sweeps — because a shard mid-flight is
a pure function that cannot be usefully interrupted.  A job cancelled before
it starts never runs at all.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.net.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.api.envelope import ResultEnvelope


class JobCancelled(ReproError):
    """Raised by :meth:`JobHandle.result` when the job was cancelled."""


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One unit of durable progress: ``completed`` of ``total`` ``kind`` s."""

    kind: str
    """``"shard"`` for campaigns/resumes, ``"cell"`` for matrix sweeps."""
    completed: int
    total: int
    label: Optional[str] = None

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


ProgressCallback = Callable[[ProgressEvent], None]

_JOB_IDS = itertools.count(1)


class JobHandle:
    """A submitted request's observable lifecycle.

    Thread-safe: the session's worker thread drives the state machine while
    any thread may poll :meth:`status`, block in :meth:`result`, or request
    :meth:`cancel`.  Progress callbacks run on the worker thread; exceptions
    they raise fail the job.
    """

    def __init__(self, request: Any, target: Callable[["JobHandle"], "ResultEnvelope"]) -> None:
        self.job_id = f"job-{next(_JOB_IDS):04d}"
        self.request = request
        self._target = target
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._status = JobStatus.PENDING
        self._envelope: Optional["ResultEnvelope"] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[ProgressCallback] = []
        self._progress: Optional[ProgressEvent] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Session-side driving
    # ------------------------------------------------------------------ #

    def _start(self) -> None:
        """Launch the worker thread (called exactly once, by the session)."""
        self._thread = threading.Thread(
            target=self._work, name=f"repro-{self.job_id}", daemon=True
        )
        self._thread.start()

    def _work(self) -> None:
        with self._lock:
            if self._cancel.is_set():
                self._status = JobStatus.CANCELLED
                self._done.set()
                return
            self._status = JobStatus.RUNNING
        try:
            envelope = self._target(self)
        except JobCancelled:
            with self._lock:
                self._status = JobStatus.CANCELLED
        except BaseException as exc:  # noqa: BLE001 - reported via .result()
            with self._lock:
                self._status = JobStatus.FAILED
                self._error = exc
        else:
            with self._lock:
                self._status = JobStatus.SUCCEEDED
                self._envelope = envelope
        finally:
            self._done.set()

    def _report(self, event: ProgressEvent) -> None:
        """Record progress, fan out to callbacks, honour pending cancellation."""
        with self._lock:
            self._progress = event
            callbacks = tuple(self._callbacks)
        for callback in callbacks:
            callback(event)
        if self._cancel.is_set():
            raise JobCancelled(
                f"{self.job_id} cancelled after {event.completed}/{event.total} "
                f"{event.kind}(s)"
            )

    # ------------------------------------------------------------------ #
    # Caller surface
    # ------------------------------------------------------------------ #

    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def done(self) -> bool:
        return self._done.is_set()

    def progress(self) -> Optional[ProgressEvent]:
        """The most recent progress event, if any has fired yet."""
        with self._lock:
            return self._progress

    def add_progress_callback(self, callback: ProgressCallback) -> None:
        """Subscribe to progress events (fires for events after registration)."""
        with self._lock:
            self._callbacks.append(callback)

    def cancel(self) -> bool:
        """Request cancellation; returns True unless the job already finished.

        Takes effect immediately for jobs that have not started, and at the
        next progress boundary for running jobs.
        """
        with self._lock:
            if self._status.finished:
                return False
            self._cancel.set()
            return True

    def error(self) -> Optional[BaseException]:
        """The exception that failed the job, once it is done."""
        with self._lock:
            return self._error

    def result(self, timeout: Optional[float] = None) -> "ResultEnvelope":
        """Block until the job finishes and return its envelope.

        Re-raises the job's exception on failure and :class:`JobCancelled`
        on cancellation; raises :class:`TimeoutError` if ``timeout`` elapses
        first (the job keeps running).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"{self.job_id} still {self.status().value} after {timeout}s")
        with self._lock:
            if self._status is JobStatus.SUCCEEDED:
                assert self._envelope is not None
                return self._envelope
            if self._status is JobStatus.CANCELLED:
                raise JobCancelled(f"{self.job_id} was cancelled")
            assert self._error is not None
            raise self._error

    def __repr__(self) -> str:
        return f"JobHandle({self.job_id}, {type(self.request).__name__}, {self.status().value})"


__all__ = [
    "JobCancelled",
    "JobHandle",
    "JobStatus",
    "ProgressCallback",
    "ProgressEvent",
]
