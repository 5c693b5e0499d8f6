"""The coordinator: the socket and thread adapter around the lease book.

Every decision is made by :class:`~repro.distributed.leases.LeaseBook`, which
does no I/O.  The coordinator owns the listening socket, one reader thread
per worker, a monitor thread that ticks the clock, and one lock: each frame
becomes a book event under the lock, and the grants the book returns are
sent, and evicted workers' sockets shut down, outside it.  It serves one job
at a time (a :class:`~repro.api.Session` serialises campaigns per backend),
but workers outlive jobs: a matrix sweep reuses the same warm fleet.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Optional, Sequence

from repro.core.runner import ShardTask
from repro.core.schema import pack
from repro.core.transport import Batch, decode_outcomes
from repro.distributed.leases import JOB_DONE, JOB_STRANDED, Job, LeaseBook
from repro.distributed.protocol import (
    MSG_BATCH,
    MSG_BYE,
    MSG_DRAIN,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHARD_ERROR,
    Hello,
    ShardErrors,
    decode_payload,
    recv_frame,
    send_frame,
    unpack_result,
)
from repro.net.errors import ProtocolError, TransportError


def _shutdown(sock: socket.socket) -> None:
    """Force-disconnect: shutdown (to unblock any blocked recv) then close."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


DEFAULT_LEASE_TIMEOUT = 2.0
DEFAULT_MAX_ATTEMPTS = 5


class Coordinator:
    """Serve one job at a time to a fleet of socket workers, fault-tolerantly."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self._book = LeaseBook(lease_timeout=lease_timeout, max_attempts=max_attempts)
        self._lock = threading.Lock()
        self._workers_changed = threading.Condition(self._lock)
        self._peers: "dict[int, tuple[socket.socket, threading.Lock]]" = {}
        self._next_worker_uid = 0
        self._closed = False
        self._server = socket.create_server((host, port))
        self.address: "tuple[str, int]" = self._server.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        self._monitor_tick = min(0.05, lease_timeout / 4)
        threading.Thread(target=self._monitor_loop, daemon=True).start()

    def wait_for_workers(self, count: int = 1, timeout: float = 10.0) -> int:
        """Block until ``count`` workers are connected (or timeout); returns
        how many actually are."""
        deadline = time.monotonic() + timeout
        with self._workers_changed:
            while len(self._peers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._workers_changed.wait(remaining)
            return len(self._peers)

    def submit_job(self, tasks: Sequence[ShardTask], *, shard_cost: Optional[int] = None) -> Job:
        """Queue a campaign's shards and start dispatching to idle workers."""
        with self._lock:
            job = self._book.start(tasks, shard_cost)
            grants = self._grants_locked(time.monotonic())
        self._send(grants)
        return job

    def finish_job(self, job: Job) -> dict:
        """Detach the job and return its report; its late batches are dropped."""
        with self._lock:
            return self._book.finish(job)

    def takeover_remaining(self) -> "list[ShardTask]":
        """Atomically claim every unsettled shard for local execution."""
        with self._lock:
            return self._book.takeover()

    def close(self) -> None:
        """Drain workers, close every socket, stop the service threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            peers = list(self._peers.values())
            self._workers_changed.notify_all()
        try:
            self._server.close()
        except OSError:
            pass
        for sock, send_lock in peers:
            try:
                send_frame(sock, MSG_DRAIN, lock=send_lock)
            except OSError:
                pass
            _shutdown(sock)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve_connection, args=(sock,), daemon=True).start()

    def _monitor_loop(self) -> None:
        """Tick: evict busy workers gone silent, grant what backoff released."""
        while True:
            time.sleep(self._monitor_tick)
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                stale = [self._peers[uid][0] for uid in self._book.expire(now)]
                grants = self._grants_locked(now)
            # Shut down (not just close) so the reader's blocked recv sees EOF
            # and its worker leaves the book, which requeues the lease.
            for sock in stale:
                _shutdown(sock)
            self._send(grants)

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(10.0)
            msg_type, payload = recv_frame(sock)
            if msg_type != MSG_HELLO:
                raise ProtocolError(f"expected HELLO, got message type {msg_type}")
            hello = decode_payload(Hello, payload)
            sock.settimeout(None)
        except (ProtocolError, OSError):
            _shutdown(sock)
            return
        with self._workers_changed:
            if self._closed:
                sock.close()
                return
            uid = self._next_worker_uid
            self._next_worker_uid += 1
            self._peers[uid] = (sock, threading.Lock())
            now = time.monotonic()
            self._book.join(uid, f"worker-{hello.index}@pid{hello.pid}", now)
            grants = self._grants_locked(now)
            self._workers_changed.notify_all()
        self._send(grants)
        try:
            while True:
                msg_type, payload = recv_frame(sock)
                if msg_type == MSG_RESULT:
                    batch_id, blob = unpack_result(payload)
                    try:
                        outcomes, error = decode_outcomes(blob), ""
                    except TransportError as exc:
                        outcomes, error = None, f"transport fault: {exc}"
                    self._feed(uid, self._book.result, batch_id, outcomes, error)
                elif msg_type == MSG_SHARD_ERROR:
                    errors = decode_payload(ShardErrors, payload)
                    self._feed(uid, self._book.shard_errors, errors.batch_id, errors.failures)
                elif msg_type == MSG_BYE:
                    break
                else:  # MSG_HEARTBEAT: a sign of life and nothing more
                    self._feed(uid)
        except (ProtocolError, OSError):
            pass
        finally:
            with self._workers_changed:
                del self._peers[uid]
                now = time.monotonic()
                self._book.leave(uid, now)
                grants = [] if self._closed else self._grants_locked(now)
                self._workers_changed.notify_all()
            _shutdown(sock)
            self._send(grants)

    def _feed(self, uid: int, event: Optional[Callable[..., None]] = None, *args: object) -> None:
        """A frame from worker ``uid``: a beat and ``event`` under the lock, then grants."""
        with self._lock:
            if self._closed:
                return
            now = time.monotonic()
            self._book.beat(uid, now)
            if event is not None:
                event(uid, *args, now)
            grants = self._grants_locked(now)
        self._send(grants)

    def _grants_locked(self, now: float) -> "list[tuple[socket.socket, threading.Lock, Batch]]":
        return [(*self._peers[uid], batch) for uid, batch in self._book.grant(now)]

    def _send(self, grants: "list[tuple[socket.socket, threading.Lock, Batch]]") -> None:
        for sock, send_lock, batch in grants:
            try:
                send_frame(sock, MSG_BATCH, pack(batch), lock=send_lock)
            except OSError:
                _shutdown(sock)  # its reader sees EOF, and the worker leaves


__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "JOB_DONE",
    "JOB_STRANDED",
]
