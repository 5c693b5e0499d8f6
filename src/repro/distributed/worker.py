"""The remote worker process: connect, heartbeat, run batches, stream blobs.

A worker is deliberately dumb: it owns no campaign state, just a socket and
:func:`repro.core.runner.run_shard`.  All fault-tolerance policy (leases,
requeue, quarantine) lives in the lease book; the worker's only contract is
that it either returns a batch's results or disappears, and the heartbeat
thread keeps the coordinator able to tell "slow" from "gone".

Per batch the worker sends failures first (:data:`MSG_SHARD_ERROR`) and the
encoded successes second (:data:`MSG_RESULT`) — the RESULT frame is what
closes the lease on the coordinator, so failures must already be in flight
when it lands.

``python -m repro workers`` is the CLI front door (see
:mod:`repro.__main__`); :class:`~repro.distributed.backend.RemoteBackend`
spawns the same entry point for its local worker fleet.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional

from repro.core.runner import run_shard
from repro.core.schema import pack
from repro.core.transport import encode_outcomes
from repro.distributed.chaos import (
    KIND_DROP_CONNECTION,
    KIND_HANG_HEARTBEAT,
    KIND_KILL,
    ChaosEngine,
    ChaosSpec,
)
from repro.distributed.protocol import (
    MSG_BATCH,
    MSG_BYE,
    MSG_DRAIN,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHARD_ERROR,
    Batch,
    Hello,
    ShardError,
    ShardErrors,
    decode_payload,
    pack_result,
    recv_frame,
    send_frame,
)
from repro.net.errors import ProtocolError

DEFAULT_HEARTBEAT_INTERVAL = 0.5


def _heartbeat_loop(
    sock: socket.socket,
    lock: threading.Lock,
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        try:
            send_frame(sock, MSG_HEARTBEAT, lock=lock)
        except OSError:
            return


def run_worker(
    host: str,
    port: int,
    *,
    index: int = 0,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    chaos: Optional[ChaosSpec] = None,
    connect_timeout: float = 30.0,
) -> int:
    """Serve shard batches from the coordinator at ``host:port`` until told
    to drain (or the connection goes away).  Returns a process exit status.
    """
    engine = ChaosEngine(chaos, index) if chaos is not None else None
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    lock = threading.Lock()
    stop_beats = threading.Event()
    try:
        send_frame(sock, MSG_HELLO, pack(Hello(index, os.getpid())), lock=lock)
        threading.Thread(
            target=_heartbeat_loop,
            args=(sock, lock, heartbeat_interval, stop_beats),
            daemon=True,
        ).start()
        while True:
            try:
                msg_type, payload = recv_frame(sock)
            except (ProtocolError, OSError):
                return 1  # coordinator went away (or evicted us)
            if msg_type in (MSG_DRAIN, MSG_BYE):
                send_frame(sock, MSG_BYE, lock=lock)
                return 0
            if msg_type != MSG_BATCH:
                continue
            try:
                batch = decode_payload(Batch, payload)
            except ProtocolError:
                return 1  # a garbled lease: hang up, so the coordinator requeues it
            action = engine.on_batch_start() if engine is not None else None
            if action == KIND_DROP_CONNECTION:
                sock.close()
                return 1
            if action == KIND_HANG_HEARTBEAT:
                # Silence: no beats, no result.  Keep reading so the
                # eviction (the coordinator closing our socket) unparks us.
                stop_beats.set()
                continue
            kill_after = max(1, len(batch.tasks) // 2) if action == KIND_KILL else None
            outcomes = []
            failures: "list[ShardError]" = []
            for position, task in enumerate(batch.tasks):
                if kill_after is not None and position >= kill_after:
                    os._exit(1)
                if engine is not None and engine.should_poison(task.index):
                    failures.append(ShardError(task.index, f"chaos: poisoned shard {task.index}"))
                    continue
                try:
                    outcomes.append(run_shard(task))
                except Exception as exc:  # report, never crash the worker
                    failures.append(ShardError(task.index, f"{type(exc).__name__}: {exc}"))
            if kill_after is not None:
                os._exit(1)  # mid-batch death: the results above are lost
            if failures:
                errors = pack(ShardErrors(batch.batch_id, failures))
                send_frame(sock, MSG_SHARD_ERROR, errors, lock=lock)
            blob = encode_outcomes(outcomes)
            delay = 0.0
            if engine is not None:
                blob, delay = engine.mangle_result(blob)
            if delay:
                time.sleep(delay)
            send_frame(sock, MSG_RESULT, pack_result(batch.batch_id, blob), lock=lock)
    except OSError:
        return 1
    finally:
        stop_beats.set()
        try:
            sock.close()
        except OSError:
            pass


__all__ = ["DEFAULT_HEARTBEAT_INTERVAL", "run_worker"]
