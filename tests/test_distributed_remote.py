"""Remote-backend conformance: socket distribution changes nothing measured.

The acceptance bar mirrors the other backends': for **every** registry
scenario, a campaign on the ``remote`` backend — 2-worker and 4-worker
fleets, self-spawned or externally launched via ``python -m repro workers``
— must produce a ``result_digest`` bit-identical to serial execution, and
the fault-tolerance surfaces (degradation, quarantine, cancellation, the
envelope's remote report) must behave as documented.  The wire protocol and
chaos-spec plumbing get direct unit coverage here too; fault *injection*
lives in ``test_distributed_chaos``.
"""

from __future__ import annotations

import ast
import os
import socket
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import repro

from repro.api import MatrixRequest, Session, create_backend
from repro.api.backends import backend_names
from repro.distributed.backend import RemoteBackend
from repro.distributed.chaos import CHAOS_ENV, ChaosSpec
from repro.distributed.coordinator import JOB_DONE, Coordinator
from repro.core.runner import CampaignPlan, ShardOutcome
from repro.core.schema import pack
from repro.core.transport import encode_outcomes
from repro.distributed.protocol import (
    MSG_BATCH,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    PROTOCOL_VERSION,
    Batch,
    Hello,
    ShardError,
    ShardErrors,
    decode_payload,
    pack_result,
    recv_frame,
    send_frame,
    unpack_result,
)
from repro.net.errors import MeasurementError, ProtocolError
from repro.scenarios import build_scenario_hosts, get_scenario, scenario_names
from test_golden_signatures import GOLDEN_CONFIG, GOLDEN_DIGESTS, GOLDEN_HOSTS, GOLDEN_SEED
from _remote_helpers import make_backend, request, serial_digest

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only these scenarios also pin the golden digest.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #


def test_frame_roundtrip_over_a_socketpair():
    left, right = socket.socketpair()
    try:
        send_frame(left, MSG_BATCH, b"payload bytes")
        assert recv_frame(right) == (MSG_BATCH, b"payload bytes")
        send_frame(left, MSG_HEARTBEAT)  # empty payload
        assert recv_frame(right) == (MSG_HEARTBEAT, b"")
    finally:
        left.close()
        right.close()


def test_frame_rejects_bad_magic():
    left, right = socket.socketpair()
    try:
        left.sendall(b"XX\x01\x01\x00\x00\x00\x00")
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_frame_rejects_version_mismatch_and_unknown_type():
    for header, pattern in (
        (b"RW\xff\x01\x00\x00\x00\x00", "version mismatch"),
        (b"RW" + bytes([PROTOCOL_VERSION]) + b"\xee\x00\x00\x00\x00", "unknown message type"),
    ):
        left, right = socket.socketpair()
        try:
            left.sendall(header)
            with pytest.raises(ProtocolError, match=pattern):
                recv_frame(right)
        finally:
            left.close()
            right.close()


def test_frame_eof_mid_header_raises_protocol_error():
    left, right = socket.socketpair()
    try:
        left.sendall(b"RW")  # two bytes of an eight-byte header, then EOF
        left.close()
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_shard_error_codec_roundtrip():
    failures = [ShardError(0, "boom"), ShardError(7, "unicode ✗ failure"), ShardError(2**40, "")]
    decoded = decode_payload(ShardErrors, pack(ShardErrors(9, failures)))
    assert (decoded.batch_id, decoded.failures) == (9, failures)
    assert decode_payload(ShardErrors, pack(ShardErrors(0, []))) == ShardErrors(0, [])
    with pytest.raises(ProtocolError, match="malformed ShardErrors payload"):
        decode_payload(ShardErrors, b"\x00\x00")


def test_hello_batch_and_result_payloads_roundtrip():
    scenario = get_scenario("nat-timeout").with_population(num_hosts=3)
    plan = CampaignPlan.of(build_scenario_hosts(scenario, seed=5), GOLDEN_CONFIG, shards=2)
    batch = Batch(2**40, plan.shard_tasks())
    assert decode_payload(Batch, pack(batch)) == batch
    assert decode_payload(Hello, pack(Hello(3, 4242))) == Hello(3, 4242)
    assert unpack_result(pack_result(9, b"blob")) == (9, b"blob")


@pytest.mark.parametrize(
    "decode",
    [partial(decode_payload, Hello), partial(decode_payload, Batch), unpack_result,
     partial(decode_payload, ShardErrors)],
    ids=["hello", "batch", "result", "shard-errors"],
)
def test_every_payload_decoder_raises_protocol_error_on_garbage(decode):
    garbage = [b"", b"\x00\x01\x02"]  # too short for any payload
    if decode is not unpack_result:  # a result's blob is checked by the transport
        garbage.append(b"\xff" * 40)
    for payload in garbage:
        with pytest.raises(ProtocolError, match="malformed"):
            decode(payload)


def test_no_module_that_reads_a_socket_or_a_store_imports_pickle():
    """Nothing that arrives over a socket or sits in a store is unpickled."""
    root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted([*root.glob("distributed/*.py"), *root.glob("store/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "pickle" for module in modules):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not offenders, f"pickle imported at {offenders}"


def test_a_short_result_frame_drops_the_worker_without_a_thread_exception(monkeypatch):
    """A RESULT payload too short for its batch id is a protocol error: the
    coordinator hangs up on the peer, and no reader thread dies raising."""
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with Coordinator(lease_timeout=5.0) as coordinator:
        before = set(threading.enumerate())
        peer = socket.create_connection(coordinator.address, timeout=5.0)
        try:
            send_frame(peer, MSG_HELLO, pack(Hello(0, os.getpid())))
            assert coordinator.wait_for_workers(1, timeout=5.0) == 1
            send_frame(peer, MSG_RESULT, b"\x00\x01")
            assert peer.recv(1) == b"", "the coordinator must hang up"
        finally:
            peer.close()
        for thread in set(threading.enumerate()) - before:
            thread.join(5.0)
        assert coordinator.wait_for_workers(1, timeout=0.0) == 0
    assert uncaught == []


def test_a_finished_jobs_result_settles_no_shard_of_the_next_job():
    """A lease belongs to the job that granted it.  A RESULT for a batch of
    a finished job frees its worker and settles nothing, so the next job's
    shard 0 is leased afresh and the stale outcome never reaches its queue.
    Reading that fresh BATCH orders the check after the stale RESULT."""
    scenario = get_scenario("nat-timeout").with_population(num_hosts=1)
    plan = CampaignPlan.of(build_scenario_hosts(scenario, seed=5), GOLDEN_CONFIG, shards=1)
    (task,) = plan.shard_tasks()
    with Coordinator(lease_timeout=5.0) as coordinator:
        peer = socket.create_connection(coordinator.address, timeout=5.0)
        try:
            send_frame(peer, MSG_HELLO, pack(Hello(0, os.getpid())))
            assert coordinator.wait_for_workers(1, timeout=5.0) == 1
            first = coordinator.submit_job([replace(task, seed=111)])
            msg_type, payload = recv_frame(peer)
            assert msg_type == MSG_BATCH
            stale = decode_payload(Batch, payload)
            coordinator.finish_job(first)
            second = coordinator.submit_job([replace(task, seed=222)])
            outcome = ShardOutcome(index=0, host_addresses=(111,), records=[])
            send_frame(peer, MSG_RESULT, pack_result(stale.batch_id, encode_outcomes([outcome])))
            try:
                msg_type, payload = recv_frame(peer)
            except OSError:  # timed out: the worker was never leased again
                msg_type = None
            assert second.results.empty(), f"the next job took {second.results.get_nowait()}"
            assert msg_type == MSG_BATCH, "the stale RESULT must free the worker"
            fresh = decode_payload(Batch, payload)
            assert [(shard.index, shard.seed) for shard in fresh.tasks] == [(0, 222)]
            coordinator.finish_job(second)
        finally:
            peer.close()


# --------------------------------------------------------------------- #
# Chaos specs (the JSON that reaches worker processes)
# --------------------------------------------------------------------- #


def test_chaos_spec_json_roundtrip():
    spec = ChaosSpec(
        kind="poison-shard",
        workers=(0, 3),
        after_batches=2,
        times=4,
        seed=17,
        delay=0.5,
        poison_shards=(1, 2),
    )
    assert ChaosSpec.from_json(spec.to_json()) == spec


def test_chaos_spec_from_env(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    assert ChaosSpec.from_env() is None
    spec = ChaosSpec(kind="kill", workers=(1,))
    monkeypatch.setenv(CHAOS_ENV, spec.to_json())
    assert ChaosSpec.from_env() == spec


def test_chaos_spec_rejects_unknown_kind_and_malformed_json():
    with pytest.raises(MeasurementError, match="unknown chaos kind"):
        ChaosSpec(kind="meteor-strike")
    with pytest.raises(MeasurementError, match="malformed chaos spec"):
        ChaosSpec.from_json("{not json")


# --------------------------------------------------------------------- #
# Registry and coordinator basics
# --------------------------------------------------------------------- #


def test_remote_backend_is_registered():
    assert "remote" in backend_names()
    backend = create_backend("remote")
    assert isinstance(backend, RemoteBackend)
    backend.close()
    backend.close()  # idempotent


def test_coordinator_rejects_bad_config_and_concurrent_jobs():
    with pytest.raises(MeasurementError, match="max_attempts"):
        Coordinator(max_attempts=0)
    with Coordinator(lease_timeout=0.5) as coordinator:
        job = coordinator.submit_job(())
        assert job.results.get(timeout=5) is JOB_DONE
        with pytest.raises(MeasurementError, match="active job"):
            coordinator.submit_job(())
        stats = coordinator.finish_job(job)
        assert stats["requeues"] == 0 and stats["quarantined"] == []


def test_iter_shards_with_no_tasks_yields_nothing():
    backend = make_backend(spawn_workers=0)
    try:
        assert list(backend.iter_shards(())) == []
    finally:
        backend.close()


# --------------------------------------------------------------------- #
# Conformance: every scenario, 2- and 4-worker fleets
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet2():
    backend = make_backend(spawn_workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def fleet4():
    backend = make_backend(spawn_workers=4)
    yield backend
    backend.close()


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_matches_serial_on_two_workers(fleet2, name):
    with Session(backend=fleet2) as session:
        envelope = session.run(request(name))
    assert envelope.result_digest == serial_digest(name), (
        f"scenario {name!r} measured differently on the remote backend"
    )
    remote = envelope.meta["remote"]
    assert remote["backend"] == "remote"
    assert remote["workers"], "the report must name the workers that served"
    assert not remote.get("quarantined")
    assert not remote.get("degraded")
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"scenario {name!r} over sockets no longer matches the golden digest"
        )


@pytest.mark.usefixtures("per_shard_leases")  # so all four workers take part
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_matches_serial_on_four_workers(fleet4, name):
    with Session(backend=fleet4) as session:
        envelope = session.run(request(name, shards=4))
    assert envelope.result_digest == serial_digest(name, shards=4), (
        f"scenario {name!r} measured differently on a four-worker fleet"
    )
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name]


# --------------------------------------------------------------------- #
# Degradation, quarantine, external workers, cancellation
# --------------------------------------------------------------------- #


def test_degrades_to_local_when_no_worker_connects():
    backend = make_backend(spawn_workers=0, wait_timeout=0.3)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey"))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey")
    remote = envelope.meta["remote"]
    assert remote["degraded"] is True
    assert any("no remote workers" in w for w in envelope.meta["warnings"])


@pytest.fixture
def pools_built(monkeypatch):
    """Every ``ProcessPoolExecutor`` constructed while the test runs.

    The constructor is recorded, not failed: a pool failure would only send
    the session to its inline fallback and so hide a pool that was built.
    """
    built: list = []
    real_init = ProcessPoolExecutor.__init__

    def init(self, *args, **kwargs):
        built.append((args, kwargs))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
    return built


@pytest.mark.usefixtures("per_shard_leases")
@pytest.mark.parametrize("case", ("degraded", "stranded"))
def test_a_degraded_or_stranded_campaign_runs_inline_without_a_pool(pools_built, case):
    """No worker ever connects, or every worker dies on its first batch:
    either way the shards run inline, on no second pool."""
    if case == "degraded":
        backend = make_backend(spawn_workers=0, wait_timeout=0.3)
    else:
        backend = make_backend(chaos=ChaosSpec(kind="kill", workers=(0, 1), seed=21))
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey", shards=4))
    finally:
        backend.close()
    assert pools_built == []
    assert envelope.result_digest == serial_digest("imc2002-survey", shards=4)
    assert envelope.meta["remote"]["degraded"] is True
    assert any("inline" in w for w in envelope.meta["warnings"])


@pytest.mark.usefixtures("per_shard_leases")
def test_poison_shard_is_quarantined_and_reported():
    chaos = ChaosSpec(kind="poison-shard", workers=(0, 1), poison_shards=(1,))
    backend = make_backend(chaos=chaos, max_attempts=2)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey", shards=4))
    finally:
        backend.close()
    # The campaign completed — a poison shard is reported, never a crash.
    assert envelope.kind == "campaign"
    remote = envelope.meta["remote"]
    (entry,) = remote["quarantined"]
    assert entry["shard"] == 1
    assert entry["attempts"] == 2
    assert "poisoned" in entry["error"]
    assert remote["shard_errors"] >= 2
    assert remote["requeues"] >= 1, "the first failure must requeue before quarantine"
    assert any("quarantined" in w for w in envelope.meta["warnings"])
    # The merge simply lacks the quarantined shard's records.
    assert envelope.result_digest != serial_digest("imc2002-survey", shards=4)


@pytest.mark.usefixtures("per_shard_leases")
def test_matrix_cell_with_a_quarantined_shard_still_reports_done():
    chaos = ChaosSpec(kind="poison-shard", workers=(0, 1), poison_shards=(1,))
    backend = make_backend(chaos=chaos, max_attempts=2)
    matrix = MatrixRequest(
        scenarios=("imc2002-survey", "bursty-loss"),
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=2,
    )
    try:
        with Session(backend=backend) as session:
            envelope = session.run(matrix)
        report = backend.pop_job_report()
    finally:
        backend.close()
    # Shard 1 belongs to the first cell; it never lands, yet the sweep
    # still finishes every cell once the stream ends.
    (entry,) = report["quarantined"]
    assert entry["shard"] == 1
    assert [child.scenario for child in envelope.children] == [
        "imc2002-survey/mixed",
        "bursty-loss/mixed",
    ]


def test_externally_launched_cli_workers_serve_a_campaign():
    backend = make_backend(spawn_workers=0, wait_timeout=25.0)
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=repo_src)
    env.pop(CHAOS_ENV, None)
    proc = None
    try:
        host, port = backend._ensure_coordinator().address
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "workers",
                "--connect", f"{host}:{port}",
                "--workers", "2", "--heartbeat", "0.15",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey"))
    finally:
        backend.close()  # drains the workers, so the CLI process exits cleanly
        if proc is not None:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
    assert envelope.result_digest == serial_digest("imc2002-survey")
    assert envelope.meta["remote"]["workers"]


class _StopCampaign(Exception):
    pass


@pytest.mark.usefixtures("per_shard_leases")
def test_cancel_mid_campaign_leaves_the_backend_reusable():
    """A hook that raises at the first shard stops the campaign; its
    in-flight batches must not land in the next campaign on the backend."""
    backend = make_backend()

    def stop(outcome, completed, total):
        raise _StopCampaign()

    try:
        with Session(backend=backend) as session:
            with pytest.raises(_StopCampaign):
                session.run(request("imc2002-survey", shards=4, on_checkpoint=stop))
            backend.pop_job_report()  # drop the stopped campaign's partial report
            envelope = session.run(request("imc2002-survey", shards=4))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey", shards=4)


def test_an_inline_campaign_carries_no_other_jobs_report():
    """Only a campaign whose shards ran on the backend pops its job report."""
    backend = make_backend(spawn_workers=2)
    sweep = MatrixRequest(
        scenarios=("imc2002-survey", "bursty-loss"),
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=2,
    )
    try:
        with Session(backend=backend) as session:
            session.run(sweep)  # leaves the sweep's report on the backend
            inline = session.run(request("imc2002-survey", shards=1))
            dispatched = session.run(request("imc2002-survey", shards=2))
    finally:
        backend.close()
    # One shard runs inline: no worker served it, so it has no report.
    assert "remote" not in inline.meta
    assert inline.result_digest == serial_digest("imc2002-survey", shards=1)
    # The two-shard campaign's report is its own job's: at most one entry
    # per shard, each a distinct worker.
    workers = dispatched.meta["remote"]["workers"]
    assert 1 <= len(workers) <= 2
    assert len(set(workers)) == len(workers)
    assert dispatched.result_digest == serial_digest("imc2002-survey", shards=2)
