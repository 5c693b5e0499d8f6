"""Chaos conformance: every injected fault, the exact same bits.

Each test arms one deterministic fault (:class:`~repro.distributed.chaos.
ChaosSpec`) on a fresh worker fleet and replays the **full** scenario
registry through it.  The fault fires during the first campaign — killing a
worker mid-batch, silencing its heartbeats, dropping its connection, or
sabotaging its result blob — and every campaign digest must still match
serial execution bit-for-bit, while the envelope's remote report proves the
fault actually bit (requeues, evictions, disconnects, transport faults).

A second sweep arms the same faults against one scenario matrix whose
batches span two cells each, so a requeue must route every shard back to
its own cell's merge.

Test ids carry the fault name and a ``workersN`` tag so the CI chaos-matrix
job can select one cell with ``-k "kill and workers2"``.  Set
``CHAOS_STORE_DIR`` to checkpoint each campaign into a durable store for
artifact upload on failure.
"""

from __future__ import annotations

import pytest

from repro.api import MatrixRequest, Session
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL, ShardOutcome
from repro.core.transport import decode_outcomes, encode_outcomes
from repro.distributed.chaos import ChaosEngine, ChaosSpec
from repro.net.errors import TransportError
from repro.scenarios import MIXED_OS, scenario_names
from _remote_helpers import chaos_store, make_backend, request, serial_digest
from test_golden_signatures import GOLDEN_CONFIG, GOLDEN_HOSTS, GOLDEN_SEED

SHARDS = 4
SCENARIOS = sorted(scenario_names())

FAULTS = {
    "kill": ChaosSpec(kind="kill", workers=(0,), seed=11),
    "hang": ChaosSpec(kind="hang-heartbeat", workers=(0,), seed=12),
    "drop": ChaosSpec(kind="drop-connection", workers=(0,), seed=13),
    "corrupt": ChaosSpec(kind="corrupt-result", workers=(0,), seed=14),
    "truncate": ChaosSpec(kind="truncate-result", workers=(0,), seed=15),
    "delay": ChaosSpec(kind="delay-result", workers=(0,), seed=16, delay=0.3),
}

#: The remote-report counters that prove each fault class actually fired.
EVIDENCE = {
    "kill": ("disconnects",),
    "hang": ("evictions",),
    "drop": ("disconnects",),
    "corrupt": ("transport_faults",),
    "truncate": ("transport_faults",),
    # A delayed result inside the lease timeout is deliberately traceless.
    "delay": (),
}

REQUEUE_EXPECTED = frozenset(("kill", "hang", "drop", "corrupt", "truncate"))


# --------------------------------------------------------------------- #
# The fault matrix: every fault x fleet size, full scenario registry
# --------------------------------------------------------------------- #


@pytest.mark.usefixtures("per_shard_leases")
@pytest.mark.parametrize("workers", (2, 4), ids=("workers2", "workers4"))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_scenario_digest_survives_the_fault(fault, workers):
    spec = FAULTS[fault]
    # One-shard leases guarantee the chaos-armed worker receives a batch (and
    # therefore fires) instead of one fast worker draining the whole queue.
    backend = make_backend(spawn_workers=workers, chaos=spec)
    totals = {"requeues": 0, "evictions": 0, "disconnects": 0, "transport_faults": 0}
    try:
        with Session(backend=backend) as session:
            for name in SCENARIOS:
                envelope = session.run(
                    request(
                        name,
                        shards=SHARDS,
                        store=chaos_store(f"{fault}-workers{workers}", name),
                    )
                )
                assert envelope.result_digest == serial_digest(name, shards=SHARDS), (
                    f"scenario {name!r} measured differently under the "
                    f"{spec.kind} fault on a {workers}-worker fleet"
                )
                remote = envelope.meta["remote"]
                assert not remote.get("quarantined"), (
                    f"a transient {spec.kind} fault must requeue, not quarantine"
                )
                for key in totals:
                    totals[key] += remote.get(key, 0)
    finally:
        backend.close()
    for counter in EVIDENCE[fault]:
        assert totals[counter] >= 1, (
            f"the {spec.kind} fault left no {counter} trace: {totals}"
        )
    if fault in REQUEUE_EXPECTED:
        assert totals["requeues"] >= 1, (
            f"the {spec.kind} fault never exercised a requeue: {totals}"
        )


#: Four scenarios x two OS columns, four one-host shards per cell.  Two
#: techniques at four samples cost 8 samples a shard, so default batch
#: sizing ships 8-shard batches that each span two cells.  The second OS
#: column makes four such batches, so the opening dispatch hands one to
#: every worker of a 2- or 4-worker fleet, the armed worker included.
MATRIX = MatrixRequest(
    scenarios=tuple(SCENARIOS[:4]),
    os_names=(MIXED_OS, "freebsd-4.4"),
    config=GOLDEN_CONFIG,
    hosts=GOLDEN_HOSTS,
    seed=GOLDEN_SEED,
    shards=SHARDS,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
)

_SERIAL_MATRIX = []


def _cell_digests(envelope) -> dict:
    return {child.scenario: child.result_digest for child in envelope.children}


def _serial_matrix():
    if not _SERIAL_MATRIX:
        with Session(backend=EXECUTOR_SERIAL) as session:
            _SERIAL_MATRIX.append(session.run(MATRIX))
    return _SERIAL_MATRIX[0]


@pytest.mark.parametrize("workers", (2, 4), ids=("workers2", "workers4"))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_matrix_batches_spanning_cells_survive_the_fault(fault, workers):
    spec = FAULTS[fault]
    backend = make_backend(spawn_workers=workers, chaos=spec)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(MATRIX)
        # Matrix envelopes carry no remote report; the sweep ran as one job.
        report = backend.pop_job_report()
    finally:
        backend.close()
    reference = _serial_matrix()
    assert envelope.result_digest == reference.result_digest, (
        f"the matrix measured differently under the {spec.kind} fault on a "
        f"{workers}-worker fleet"
    )
    assert _cell_digests(envelope) == _cell_digests(reference)
    assert not report.get("quarantined"), (
        f"a transient {spec.kind} fault must requeue, not quarantine"
    )
    for counter in EVIDENCE[fault]:
        assert report.get(counter, 0) >= 1, (
            f"the {spec.kind} fault left no {counter} trace: {report}"
        )
    if fault in REQUEUE_EXPECTED:
        assert report.get("requeues", 0) >= 1, (
            f"the {spec.kind} fault never exercised a requeue: {report}"
        )


@pytest.mark.usefixtures("per_shard_leases")
def test_losing_every_worker_strands_the_job_onto_local_execution():
    spec = ChaosSpec(kind="kill", workers=(0, 1), seed=21)
    backend = make_backend(spawn_workers=2, chaos=spec)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey", shards=SHARDS))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey", shards=SHARDS)
    remote = envelope.meta["remote"]
    assert remote["degraded"] is True
    assert remote["disconnects"] >= 2
    assert any("lost mid-campaign" in w for w in envelope.meta["warnings"])


# --------------------------------------------------------------------- #
# ChaosEngine unit semantics
# --------------------------------------------------------------------- #


def test_chaos_engine_counts_batches_and_respects_the_fire_budget():
    spec = ChaosSpec(kind="drop-connection", workers=(1,), after_batches=2, times=1)
    armed = ChaosEngine(spec, worker_index=1)
    unarmed = ChaosEngine(spec, worker_index=0)
    assert armed.on_batch_start() is None  # batch 1 < after_batches
    assert armed.on_batch_start() == "drop-connection"
    assert armed.on_batch_start() is None  # budget spent
    for _ in range(3):
        assert unarmed.on_batch_start() is None


def test_chaos_engine_corruption_always_breaks_decode():
    blob = encode_outcomes([ShardOutcome(index=0, host_addresses=(1,), records=[])])
    for seed in (0, 7, 254, 255):
        spec = ChaosSpec(kind="corrupt-result", workers=(0,), seed=seed)
        engine = ChaosEngine(spec, worker_index=0)
        engine.on_batch_start()
        mangled, delay = engine.mangle_result(blob)
        assert delay == 0.0
        assert mangled != blob
        with pytest.raises(TransportError):
            decode_outcomes(mangled, shard_indexes=(0,))


def test_chaos_engine_truncates_and_delays_as_specified():
    blob = bytes(range(100))
    engine = ChaosEngine(ChaosSpec(kind="truncate-result", workers=(0,)), 0)
    engine.on_batch_start()
    mangled, delay = engine.mangle_result(blob)
    assert mangled == blob[:75] and delay == 0.0
    engine = ChaosEngine(ChaosSpec(kind="delay-result", workers=(0,), delay=0.5), 0)
    engine.on_batch_start()
    mangled, delay = engine.mangle_result(blob)
    assert mangled == blob and delay == 0.5


def test_chaos_engine_poisons_only_the_listed_shards_on_armed_workers():
    spec = ChaosSpec(kind="poison-shard", workers=(0,), poison_shards=(2, 5))
    armed = ChaosEngine(spec, worker_index=0)
    unarmed = ChaosEngine(spec, worker_index=1)
    assert armed.should_poison(2) and armed.should_poison(5)
    assert not armed.should_poison(3)
    assert not unarmed.should_poison(2)
    # Poisoning has no fire budget: it must fail on every attempt to drive
    # the shard through the attempt cap into quarantine.
    assert armed.should_poison(2)
