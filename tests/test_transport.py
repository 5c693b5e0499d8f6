"""Batched binary shard transport: codec exactness and dispatch invariance.

Two guarantees are pinned here.  First, the struct-packed transport codec in
:mod:`repro.core.transport` is *exact*: Hypothesis drives encode → decode over
the full result-type tree and compares against the pickle oracle (the
original transport), so the binary path can never silently diverge from what
pickled objects would have carried.  Second, execution shape is invisible in
the data: a campaign's ``result_digest`` is identical on the serial,
process and remote backends at every batch size, which is the conformance
gate the batched dispatchers must pass.
"""

from __future__ import annotations

import math
import pickle
import re
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.backends as backends
import repro.distributed.leases as leases
from repro.api import CampaignRequest, ProcessBackend, Session, create_backend
from repro.api.backends import _run_task_batch, _shard_cost
from repro.core.campaign import CampaignConfig, HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import ShardOutcome, ShardTask, record_signature, run_shard
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.core.schema import pack
from repro.core.transport import (
    MIN_BATCH_SAMPLES,
    Batch,
    decode_outcomes,
    encode_outcomes,
    next_batch_size,
)
from repro.host.os_profiles import IpidScheme, SecondSynResponse
from repro.net.errors import MeasurementError, TransportError
from repro.workloads.population import (
    PopulationSpec,
    generate_population,
    partition_specs,
)
from _remote_helpers import make_backend

# ------------------------------------------------------------------ #
# Strategies: the same result-type tree the store round-trip tests use,
# bounded to the codec's wire ranges (u32 sample indexes, u8 uid counts).
# ------------------------------------------------------------------ #

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
short_text = st.text(max_size=24)
addresses = st.integers(min_value=0, max_value=2**32 - 1)
uid_tuples = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=3).map(tuple)

samples = st.builds(
    ReorderSample,
    index=st.integers(min_value=0, max_value=10_000),
    time=finite_floats,
    spacing=finite_floats,
    forward=st.sampled_from(SampleOutcome),
    reverse=st.sampled_from(SampleOutcome),
    detail=short_text,
    probe_uids=uid_tuples,
    response_uids=uid_tuples,
)

measurements = st.builds(
    MeasurementResult,
    test_name=short_text,
    host_address=addresses,
    start_time=finite_floats,
    end_time=finite_floats,
    spacing=finite_floats,
    samples=st.lists(samples, max_size=6),
    notes=short_text,
)

reports = st.builds(
    ProbeReport,
    test=st.sampled_from(TestName),
    host_address=addresses,
    result=st.none() | measurements,
    error=st.none() | short_text,
    ineligible=st.booleans(),
)

records = st.builds(
    HostRoundResult,
    round_index=st.integers(min_value=0, max_value=500),
    host_address=addresses,
    test=st.sampled_from(TestName),
    time=finite_floats,
    report=reports,
    scenario=st.none() | short_text,
)

outcomes = st.builds(
    ShardOutcome,
    index=st.integers(min_value=0, max_value=1000),
    host_addresses=st.lists(addresses, max_size=4).map(tuple),
    records=st.lists(records, max_size=5),
)


# ------------------------------------------------------------------ #
# Codec round-trips against the pickle oracle
# ------------------------------------------------------------------ #


@settings(max_examples=60, deadline=None)
@given(st.lists(outcomes, max_size=3))
def test_codec_roundtrip_matches_pickle_oracle(batch):
    """decode(encode(batch)) equals what the pickle transport would carry."""
    oracle = pickle.loads(pickle.dumps(batch))
    decoded = decode_outcomes(encode_outcomes(batch))
    assert decoded == oracle == batch


@settings(max_examples=60, deadline=None)
@given(st.lists(outcomes, max_size=3))
def test_codec_accepts_memoryview_blobs(batch):
    """The parent decodes over a memoryview window without copying first."""
    blob = encode_outcomes(batch)
    assert decode_outcomes(memoryview(blob)) == batch


def test_codec_preserves_nan_spacing():
    """A merged measurement's NaN spacing survives the binary transport."""
    measurement = MeasurementResult(
        test_name="syn", host_address=1, start_time=0.0, end_time=1.0, spacing=math.nan
    )
    report = ProbeReport(test=TestName.SYN, host_address=1, result=measurement)
    record = HostRoundResult(
        round_index=0, host_address=1, test=TestName.SYN, time=0.5, report=report
    )
    outcome = ShardOutcome(index=0, host_addresses=(1,), records=[record])
    (decoded,) = decode_outcomes(encode_outcomes([outcome]))
    assert math.isnan(decoded.records[0].report.result.spacing)


def test_codec_rejects_corruption():
    blob = encode_outcomes([ShardOutcome(index=0, host_addresses=(1,), records=[])])
    with pytest.raises(MeasurementError, match="magic"):
        decode_outcomes(b"XX" + blob[2:])
    with pytest.raises(MeasurementError, match="version"):
        decode_outcomes(blob[:2] + b"\xff" + blob[3:])
    with pytest.raises(MeasurementError, match="trailing"):
        decode_outcomes(blob + b"\x00")
    with pytest.raises(MeasurementError, match="truncated|corrupt"):
        decode_outcomes(blob[: len(blob) - 2])


def test_codec_rejects_out_of_range_fields():
    """Values outside the wire ranges fail loudly at encode time."""
    outcome = ShardOutcome(index=-1, host_addresses=(), records=[])
    with pytest.raises(MeasurementError, match="field range"):
        encode_outcomes([outcome])


# ------------------------------------------------------------------ #
# Batch-size schedule
# ------------------------------------------------------------------ #


@given(
    remaining=st.integers(min_value=1, max_value=10_000),
    workers=st.integers(min_value=1, max_value=64),
    shard_cost=st.none() | st.integers(min_value=1, max_value=100_000),
)
def test_next_batch_size_stays_in_range(remaining, workers, shard_cost):
    size = next_batch_size(remaining, workers, shard_cost=shard_cost)
    assert 1 <= size <= remaining


def test_next_batch_size_guided_schedule_shrinks_toward_tail():
    """Repeatedly taking batches drains the queue with a shrinking tail."""
    remaining, sizes = 100, []
    while remaining:
        size = next_batch_size(remaining, workers=4)
        sizes.append(size)
        remaining -= size
    assert sizes[0] == math.ceil(100 / 8)
    assert sizes[-1] == 1
    assert sorted(sizes, reverse=True) == sizes
    assert sum(sizes) == 100


def test_next_batch_size_single_worker_takes_everything():
    assert next_batch_size(37, workers=1) == 37


def test_next_batch_size_respects_cost_floor():
    """Tiny shards are batched up until a batch carries enough samples."""
    size = next_batch_size(1000, workers=4, shard_cost=2)
    assert size * 2 >= MIN_BATCH_SAMPLES


def test_next_batch_size_rejects_an_empty_remainder():
    with pytest.raises(MeasurementError):
        next_batch_size(0, workers=4)


# ------------------------------------------------------------------ #
# Digest invariance: backend × batch size
# ------------------------------------------------------------------ #

_POPULATION = PopulationSpec(
    num_hosts=6, load_balanced_fraction=0.0, reordering_path_fraction=0.5
)
_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=3,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
)
_SEED = 20260807
_SHARDS = 5


def _envelope(backend):
    specs = tuple(generate_population(_POPULATION, seed=_SEED))
    request = CampaignRequest(specs=specs, config=_CONFIG, seed=_SEED, shards=_SHARDS)
    with Session(backend=backend) as session:
        return session.run(request)


def _digest(backend) -> str:
    return _envelope(backend).result_digest


def _pin_batch_size(monkeypatch, size: int) -> None:
    """Pin the shards-per-batch where each dispatcher looks its rule up: the
    process pool's dispatch loop and the remote lease book (which runs in
    this process, beside the coordinator)."""

    def pinned(remaining: int, workers: int, shard_cost=None) -> int:
        return min(size, remaining)

    monkeypatch.setattr(backends, "next_batch_size", pinned)
    monkeypatch.setattr(leases, "next_batch_size", pinned)


@pytest.fixture(scope="module")
def serial_digest():
    return _digest("serial")


@pytest.fixture(scope="module")
def remote_fleet():
    backend = make_backend(spawn_workers=2)
    yield backend
    backend.close()


@pytest.mark.parametrize("backend", ["process", "remote"])
@pytest.mark.parametrize("batch_size", [1, 2, 7, _SHARDS])
def test_digest_invariant_across_batch_sizes(
    request, monkeypatch, serial_digest, backend, batch_size
):
    _pin_batch_size(monkeypatch, batch_size)
    if backend == "remote":
        # One warm fleet serves every batch size; the lease book looks the
        # rule up per grant, so each campaign leases batches of the size
        # under test.
        envelope = _envelope(request.getfixturevalue("remote_fleet"))
        assert envelope.meta["remote"]["workers"], "the fleet must serve the shards"
        assert not envelope.meta["remote"].get("degraded")
    else:
        envelope = _envelope(backend)
    assert envelope.result_digest == serial_digest


def test_pool_task_returns_one_encoded_blob():
    """A pool worker ships a batch back as one binary blob, never as live
    objects, and the blob decodes to exactly what running the batch inline
    returns."""
    tasks = tuple(_shard_tasks()[:2])
    blob = _run_task_batch(pack(Batch(0, list(tasks))))
    assert isinstance(blob, bytes)
    decoded = decode_outcomes(blob, shard_indexes=tuple(task.index for task in tasks))
    inline = [run_shard(task) for task in tasks]
    assert [outcome.index for outcome in decoded] == [task.index for task in tasks]
    for got, want in zip(decoded, inline):
        assert got.host_addresses == want.host_addresses
        assert [record_signature(r) for r in got.records] == [
            record_signature(r) for r in want.records
        ]


def test_the_pool_only_ever_receives_bytes(monkeypatch, serial_digest):
    """Shard tasks cross the pool's pipes as a packed ``Batch``, never as a
    pickled object."""
    calls = []
    real_submit = ProcessPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        calls.append((fn, args, kwargs))
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    _pin_batch_size(monkeypatch, 2)
    assert _digest("process") == serial_digest
    assert len(calls) == math.ceil(_SHARDS / 2)
    for fn, args, kwargs in calls:
        assert fn is _run_task_batch
        assert [type(arg) for arg in args] == [bytes] and not kwargs


def test_map_shards_returns_outcomes_in_task_order(monkeypatch):
    """Completion order may interleave; the barrier map must not."""
    _pin_batch_size(monkeypatch, 2)
    specs = generate_population(_POPULATION, seed=_SEED)
    shard_tasks = [
        ShardTask(
            index=index,
            specs=tuple(shard),
            config=_CONFIG,
            tests=_CONFIG.tests,
            seed=_SEED,
            remote_port=80,
        )
        for index, shard in enumerate(partition_specs(specs, _SHARDS))
    ]
    with create_backend("process") as backend:
        ordered = backend.map_shards(shard_tasks)
    assert [outcome.index for outcome in ordered] == [task.index for task in shard_tasks]


# ------------------------------------------------------------------ #
# Typed transport faults carry batch context
# ------------------------------------------------------------------ #


def _two_outcome_blob() -> bytes:
    return encode_outcomes(
        [
            ShardOutcome(index=3, host_addresses=(1,), records=[]),
            ShardOutcome(index=9, host_addresses=(2,), records=[]),
        ]
    )


def test_transport_error_carries_offset_and_shard_context():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob[:-3], shard_indexes=(3, 9))
    error = excinfo.value
    assert isinstance(error, MeasurementError), "must stay catchable as before"
    assert error.shard_indexes == (3, 9)
    assert error.offset is not None and 0 <= error.offset <= len(blob)
    assert set(error.decoded_indexes) < {3, 9}, "a truncated blob must lose at least one shard"


def test_transport_error_at_the_magic_has_nothing_decoded():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(b"XX" + blob[2:], shard_indexes=(3, 9))
    error = excinfo.value
    assert error.offset == 0
    assert error.shard_indexes == (3, 9)
    assert error.decoded_indexes == ()


def test_transport_error_after_trailing_bytes_lost_nothing():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob + b"\x00", shard_indexes=(3, 9))
    error = excinfo.value
    assert error.offset == len(blob)
    assert error.decoded_indexes == (3, 9)


def test_transport_error_without_batch_context_defaults_empty():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob[: len(blob) - 2])
    error = excinfo.value
    assert error.shard_indexes == ()


# ------------------------------------------------------------------ #
# Dispatch: every batch is queued before the first result is decoded
# ------------------------------------------------------------------ #


class _QueueingProcessBackend(ProcessBackend):
    """Records the size of every batch it submits.  The first ``real``
    batches go to the pool; later ones get a future that never starts."""

    def __init__(self, real: int) -> None:
        super().__init__(max_workers=2)
        self.real = real
        self.sizes: list[int] = []
        self.placeholders: list[Future] = []

    def _shard_submitter(self):
        submit = super()._shard_submitter()

        def record(batch):
            self.sizes.append(len(batch))
            if len(self.sizes) <= self.real:
                return submit(batch)
            self.placeholders.append(Future())
            return self.placeholders[-1]

        return record


def _one_host_shard_tasks() -> list[ShardTask]:
    """Twelve one-host shards of 64 samples each, so the guided schedule
    cuts them into seven batches of shrinking size."""
    config = CampaignConfig(
        rounds=1,
        samples_per_measurement=32,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    )
    specs = generate_population(replace(_POPULATION, num_hosts=12), seed=_SEED)
    return [
        ShardTask(index, (spec,), config, config.tests, _SEED, remote_port=80)
        for index, spec in enumerate(specs)
    ]


def _guided_sizes(tasks: list[ShardTask], workers: int) -> list[int]:
    sizes, remaining = [], len(tasks)
    while remaining:
        sizes.append(next_batch_size(remaining, workers, shard_cost=_shard_cost(tasks[0])))
        remaining -= sizes[-1]
    return sizes


def test_every_batch_is_submitted_before_the_first_result_is_decoded(monkeypatch):
    """The executor's call queue, not a refill after each result, hands a
    worker its next batch, so the whole guided schedule is submitted up
    front."""
    tasks = _one_host_shard_tasks()
    backend = _QueueingProcessBackend(real=len(tasks))
    submitted_at_decode: list[int] = []

    def decode(blob, **kwargs):
        submitted_at_decode.append(len(backend.sizes))
        return decode_outcomes(blob, **kwargs)

    monkeypatch.setattr(backends, "decode_outcomes", decode)
    with backend:
        indexes = sorted(outcome.index for outcome in backend.iter_shards(tasks))
    assert indexes == [task.index for task in tasks]
    assert backend.sizes == _guided_sizes(tasks, workers=2) == [3, 3, 2, 1, 1, 1, 1]
    assert submitted_at_decode[0] == len(backend.sizes)


def test_closing_the_stream_cancels_every_batch_that_has_not_started():
    tasks = _one_host_shard_tasks()
    with _QueueingProcessBackend(real=1) as backend:
        stream = backend.iter_shards(tasks)
        first = next(stream)
        stream.close()
    assert first.index in {task.index for task in tasks[: backend.sizes[0]]}
    assert len(backend.placeholders) == len(backend.sizes) - 1 == 6
    assert all(future.cancelled() for future in backend.placeholders)


def test_an_environment_variable_does_not_pin_the_batch_size(monkeypatch):
    """The guided schedule is the only batch-size rule: no environment
    variable pins the size."""
    monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
    tasks = _one_host_shard_tasks()
    with _QueueingProcessBackend(real=len(tasks)) as backend:
        assert len(list(backend.iter_shards(tasks))) == len(tasks)
    assert backend.sizes == [3, 3, 2, 1, 1, 1, 1]


# ------------------------------------------------------------------ #
# A broken pool: discarded, and the session runs the rest inline
# ------------------------------------------------------------------ #


class _FlakyProcessBackend(ProcessBackend):
    """The first ``breaks`` batch submissions come back as broken futures."""

    def __init__(self, breaks: int) -> None:
        super().__init__(max_workers=2)
        self.breaks = breaks

    def _shard_submitter(self):
        real = super()._shard_submitter()

        def submit(batch):
            if self.breaks > 0:
                self.breaks -= 1
                broken: Future = Future()
                broken.set_exception(BrokenExecutor("injected worker death"))
                return broken
            return real(batch)

        return submit


def _shard_tasks() -> list[ShardTask]:
    specs = generate_population(_POPULATION, seed=_SEED)
    return [
        ShardTask(
            index=index,
            specs=tuple(shard),
            config=_CONFIG,
            tests=_CONFIG.tests,
            seed=_SEED,
            remote_port=80,
        )
        for index, shard in enumerate(partition_specs(specs, _SHARDS))
    ]


def test_a_broken_pool_is_discarded_and_the_rest_runs_inline(monkeypatch, serial_digest):
    """One pool death: the pool is discarded, the session warns once and runs
    the unfinished shards inline, and the digest equals serial.

    Outcomes are compared by digest, not object equality — probe uids come
    from a process-global allocator, so re-running a shard in the same
    process yields equal measurements under different uids.
    """
    _pin_batch_size(monkeypatch, 1)
    with _FlakyProcessBackend(breaks=1) as backend:
        with pytest.warns(RuntimeWarning) as caught:
            digest = _digest(backend)
        assert backend._pool is None, "a broken pool must not be kept"
    assert backend.breaks == 0, "the injected break must actually have fired"
    (warning,) = [w for w in caught if w.category is RuntimeWarning]
    assert re.fullmatch(
        r"process backend failed \(BrokenExecutor\('injected worker death'\)\); "
        r"running [1-5] shard\(s\) inline",
        str(warning.message),
    ), warning.message
    assert digest == serial_digest


def test_map_shards_raises_on_the_first_break(monkeypatch):
    _pin_batch_size(monkeypatch, 1)
    with _FlakyProcessBackend(breaks=1) as backend:
        with pytest.raises(BrokenExecutor):
            backend.map_shards(_shard_tasks())
        assert backend._pool is None


def test_enum_wire_tables_pin_definition_order():
    """Definition order IS the wire protocol for enum fields.

    The transport ships ``TestName`` and ``SampleOutcome`` members, and the
    remote protocol and the plan digest the host specs' ``SecondSynResponse``
    and ``IpidScheme``, as their index in the definition-order tuple, so
    reordering, inserting, or removing a member silently changes every id on
    the wire.  Pinning the member order here turns that into a loud failure
    instead.
    """
    assert list(TestName) == [
        TestName.SINGLE_CONNECTION,
        TestName.DUAL_CONNECTION,
        TestName.SYN,
        TestName.DATA_TRANSFER,
    ]
    assert list(SampleOutcome) == [
        SampleOutcome.IN_ORDER,
        SampleOutcome.REORDERED,
        SampleOutcome.AMBIGUOUS,
        SampleOutcome.LOST,
    ]
    assert list(SecondSynResponse) == [
        SecondSynResponse.ALWAYS_RST,
        SecondSynResponse.SPEC_COMPLIANT,
        SecondSynResponse.DUAL_RST,
        SecondSynResponse.IGNORE,
    ]
    assert list(IpidScheme) == [
        IpidScheme.GLOBAL_COUNTER,
        IpidScheme.PER_DESTINATION,
        IpidScheme.RANDOM,
        IpidScheme.RANDOM_INCREMENT,
        IpidScheme.ZERO,
    ]
