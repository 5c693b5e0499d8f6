"""``RemoteBackend``: the socket-distributed execution backend.

Registered as ``remote`` in the :mod:`repro.api.backends` registry, so every
front door that accepts an executor name (``Session(backend="remote")``,
``python -m repro run --executor remote``) can use it.

On first use the backend starts a :class:`~repro.distributed.coordinator.
Coordinator` on ``host:port`` (loopback, ephemeral port by default) and —
unless told otherwise — spawns ``spawn_workers`` local worker processes via
``python -m repro workers``, the same entry point an operator uses to join
workers from other machines.  Shard batches then flow over TCP with the
full fault-tolerance discipline of :mod:`repro.distributed.leases`.  The
constructor's keyword arguments are the backend's only settings.

Two degradation paths keep a campaign alive without remote workers, and
both run shards inline, in :meth:`RemoteBackend.iter_shards`:

* **Nobody ever connected** (within ``wait_timeout``): every shard runs
  inline and the :class:`~repro.api.ResultEnvelope` carries a warning.
* **Everyone died mid-job**: the coordinator strands the job; this backend
  atomically takes over the unfinished shards (never a quarantined one) and
  runs them inline.

Either way — and under every chaos fault — the campaign digest is
bit-identical to serial execution, because shard tasks are pure functions
and results merge in canonical order.

After each campaign the :class:`~repro.api.Session` pops a *job report*
(:meth:`RemoteBackend.pop_job_report`) into the envelope's ``meta`` so
requeues, evictions, quarantined shards, and degradation warnings are
visible to the caller instead of buried in logs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from queue import Empty
from typing import Iterator, Optional, Sequence

import repro
from repro.api.backends import ExecutionBackend, _shard_cost
from repro.core.runner import ShardOutcome, ShardTask, run_shard
from repro.distributed.chaos import CHAOS_ENV, ChaosSpec
from repro.distributed.coordinator import (
    DEFAULT_MAX_ATTEMPTS,
    JOB_DONE,
    JOB_STRANDED,
    Coordinator,
)
from repro.distributed.worker import DEFAULT_HEARTBEAT_INTERVAL
from repro.net.errors import MeasurementError

DEFAULT_SPAWN_WORKERS = 2
DEFAULT_WAIT_TIMEOUT = 20.0


class RemoteBackend(ExecutionBackend):
    """Distribute shard batches to TCP workers; survive losing any of them."""

    name = "remote"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        lease_timeout: Optional[float] = None,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        self.max_workers = max_workers
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = (
            lease_timeout if lease_timeout is not None else max(2.0, 4 * heartbeat_interval)
        )
        self.wait_timeout = wait_timeout
        self.max_attempts = max_attempts
        self.chaos = chaos
        self._spawn_count = (
            spawn_workers if spawn_workers is not None else max_workers or DEFAULT_SPAWN_WORKERS
        )
        self._coordinator: Optional[Coordinator] = None
        self._procs: "list[subprocess.Popen]" = []
        self._spawned = False
        self._fleet_assembled = False
        self._report: dict = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Infrastructure
    # ------------------------------------------------------------------ #

    def _ensure_coordinator(self) -> Coordinator:
        if self._closed:
            raise MeasurementError("remote backend is closed")
        if self._coordinator is None:
            self._coordinator = Coordinator(
                self.host,
                self.port,
                lease_timeout=self.lease_timeout,
                max_attempts=self.max_attempts,
            )
        return self._coordinator

    def _ensure_workers(self) -> None:
        """Spawn the local worker fleet once (``spawn_workers=0`` = external
        workers only — e.g. launched by hand with ``python -m repro workers``)."""
        if self._spawned or self._spawn_count <= 0:
            return
        self._spawned = True
        host, port = self._ensure_coordinator().address
        src_root = Path(repro.__file__).resolve().parent.parent
        env = os.environ.copy()
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else str(src_root)
        )
        if self.chaos is not None:
            env[CHAOS_ENV] = self.chaos.to_json()
        else:
            env.pop(CHAOS_ENV, None)
        for index in range(self._spawn_count):
            command = [
                sys.executable,
                "-m",
                "repro",
                "workers",
                "--connect",
                f"{host}:{port}",
                "--index",
                str(index),
                "--heartbeat",
                str(self.heartbeat_interval),
            ]
            self._procs.append(
                subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
            )

    def pop_job_report(self) -> dict:
        """The last finished job's fault and degradation report, once.

        The :class:`~repro.api.Session` calls this after each campaign and
        folds a non-empty report into the envelope's ``meta["remote"]``.
        """
        report, self._report = self._report, {}
        return report

    # ------------------------------------------------------------------ #
    # ExecutionBackend surface
    # ------------------------------------------------------------------ #

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        if not tasks:
            return
        coordinator = self._ensure_coordinator()
        self._ensure_workers()
        # Wait for the whole spawned fleet (not just the first arrival), so
        # the opening dispatch spreads across every worker instead of
        # front-loading whoever won the connect race; shortfalls degrade
        # gracefully to however many made it.  Once the fleet has assembled
        # we never hold a later campaign hostage to full strength again — a
        # worker lost to a fault is an expected operational state, and any
        # survivor can serve the job.
        wanted = 1 if self._fleet_assembled else max(1, self._spawn_count)
        connected = coordinator.wait_for_workers(wanted, timeout=self.wait_timeout)
        if connected >= wanted:
            self._fleet_assembled = True
        if connected == 0:
            warning = (
                f"no remote workers connected within {self.wait_timeout:.1f}s; "
                f"running {len(tasks)} shard(s) inline"
            )
            self._report = {"degraded": True, "warnings": [warning]}
            for task in tasks:
                yield run_shard(task)
            return
        job = coordinator.submit_job(tasks, shard_cost=_shard_cost(tasks[0]))
        # Watchdog floor: even if every liveness mechanism failed at once, a
        # silent queue eventually strands the job onto inline execution
        # instead of hanging the campaign forever.
        stall_timeout = max(30.0, 20 * self.lease_timeout)
        degraded = False
        warnings: "list[str]" = []
        try:
            while True:
                try:
                    item = job.results.get(timeout=stall_timeout)
                except Empty:
                    item = JOB_STRANDED
                    warnings.append(
                        f"no progress from remote workers for {stall_timeout:.0f}s; "
                        "taking remaining shards over inline"
                    )
                if item is JOB_DONE:
                    break
                if item is JOB_STRANDED:
                    leftover = coordinator.takeover_remaining()
                    if leftover:
                        degraded = True
                        warnings.append(
                            f"remote workers lost mid-campaign; running "
                            f"{len(leftover)} shard(s) inline"
                        )
                        for task in leftover:
                            yield run_shard(task)
                    continue
                yield item
        finally:
            report = {"backend": self.name, **coordinator.finish_job(job)}
            quarantined = report.pop("quarantined")
            if quarantined:
                report["quarantined"] = quarantined
                warnings.append(
                    f"{len(quarantined)} shard(s) quarantined after "
                    f"{self.max_attempts} failed attempts: "
                    f"{sorted(entry['shard'] for entry in quarantined)}"
                )
            if degraded:
                report["degraded"] = True
            if warnings:
                report["warnings"] = warnings
            self._report = report

    def map_shards(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        by_index: "dict[int, ShardOutcome]" = {}
        for outcome in self.iter_shards(tasks):
            by_index[outcome.index] = outcome
        # Quarantined shards are reported (envelope meta), not returned —
        # the merge simply lacks their records, mirroring a host that could
        # not be measured.
        return [by_index[task.index] for task in tasks if task.index in by_index]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        coordinator, self._coordinator = self._coordinator, None
        procs, self._procs = self._procs, []
        if coordinator is not None:
            coordinator.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)


__all__ = ["DEFAULT_SPAWN_WORKERS", "DEFAULT_WAIT_TIMEOUT", "RemoteBackend"]
