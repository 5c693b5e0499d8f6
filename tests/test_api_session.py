"""Session-layer acceptance: the API front door changes nothing measured.

The hard bar from the redesign: for **every** registry scenario, a campaign
run through :class:`repro.api.Session` on the serial and process
backends must produce a ``result_digest`` bit-identical to the
pre-redesign golden digests — and the envelope, checkpoint-hook, and
backend surfaces must behave as documented.
"""

from __future__ import annotations

import dataclasses
import gc
import re
import threading

import pytest

import repro.api.session as session_module
from repro.api import (
    CampaignRequest,
    MatrixRequest,
    ProbeRequest,
    ProcessBackend,
    SerialBackend,
    Session,
    create_backend,
    unwrap_result,
)
from repro.analysis.streaming import survey_from_envelope
from repro.analysis.survey import summarize_eligibility
from repro.api.backends import POOL_FAILURES
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import (
    EXECUTOR_SERIAL,
    CampaignPlan,
    merge_records,
    result_digest,
    run_shard,
)
from repro.net.errors import MeasurementError, SimulationError
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.scenarios import scenario_names
from repro.scenarios.matrix import MIXED_OS, ScenarioMatrix, derive_cell_seed
from repro.workloads.testbed import PROBE_ADDRESS
from _remote_helpers import make_backend
from test_golden_signatures import (
    GOLDEN_CONFIG,
    GOLDEN_DIGESTS,
    GOLDEN_HOSTS,
    GOLDEN_SEED,
)

BACKENDS = (EXECUTOR_SERIAL, "process")

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only the other scenarios pin the shards=1 golden
# digest at shards=2 as well.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})

_REFERENCE_CACHE: dict[str, str] = {}


def _request(name: str, shards: int = 2) -> CampaignRequest:
    return CampaignRequest(
        scenario=name,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=shards,
    )


def _reference_digest(name: str) -> str:
    """The serial shards=2 digest, computed once per scenario."""
    if name not in _REFERENCE_CACHE:
        with Session(backend=EXECUTOR_SERIAL) as session:
            _REFERENCE_CACHE[name] = session.run(_request(name)).result_digest
    return _REFERENCE_CACHE[name]


# --------------------------------------------------------------------- #
# The acceptance matrix: every scenario x every built-in backend
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_is_backend_invariant(name, backend):
    with Session(backend=backend) as session:
        envelope = session.run(_request(name))
    assert envelope.kind == "campaign"
    assert envelope.version == 1
    assert envelope.scenario == name
    assert envelope.plan_digest
    assert envelope.result_digest == _reference_digest(name), (
        f"scenario {name!r} measured differently on the {backend} backend"
    )
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"scenario {name!r} via the session layer no longer matches the "
            "pre-redesign golden digest"
        )


def test_single_shard_session_matches_golden_digests_exactly():
    """shards=1 is the exact configuration the golden digests were pinned at."""
    for name in sorted(GOLDEN_DIGESTS):
        with Session(backend=EXECUTOR_SERIAL) as session:
            envelope = session.run(_request(name, shards=1))
        assert envelope.result_digest == GOLDEN_DIGESTS[name]


# --------------------------------------------------------------------- #
# Envelopes
# --------------------------------------------------------------------- #


def test_campaign_envelope_carries_identity_and_feeds_analysis():
    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(_request("imc2002-survey"))
    assert envelope.meta["seed"] == GOLDEN_SEED
    assert envelope.meta["shards"] == 2
    assert envelope.meta["backend"] == EXECUTOR_SERIAL
    assert envelope.result_digest == result_digest(envelope.result)
    # The batch helper and the streaming survey both take the envelope as is.
    summary = summarize_eligibility(envelope)
    assert summary.total_hosts == GOLDEN_HOSTS
    survey = survey_from_envelope(envelope)
    assert survey.eligibility().to_table() == summary.to_table()
    assert unwrap_result(envelope) is envelope.payload


def test_probe_request_runs_requested_techniques():
    request = ProbeRequest(
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        samples=20,
        seed=3,
        forward_swap_probability=0.2,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        first = session.run(request)
        second = session.run(request)
    assert first.kind == "probe"
    assert set(first.payload) == {TestName.SINGLE_CONNECTION, TestName.SYN}
    assert all(report.succeeded for report in first.payload.values())
    # Determinism: the digest is a pure function of the request.
    assert first.result_digest == second.result_digest


@pytest.mark.parametrize("samples", (0, -3))
def test_probe_request_rejects_fewer_than_one_sample(samples):
    """Rejected up front, as ``CampaignConfig`` rejects it, not per technique."""
    with pytest.raises(MeasurementError, match="at least one sample"):
        with Session(backend=EXECUTOR_SERIAL) as session:
            session.run(
                ProbeRequest(
                    tests=(TestName.SINGLE_CONNECTION, TestName.DATA_TRANSFER), samples=samples
                )
            )


@pytest.mark.parametrize("port", (0, 65536, 70000))
def test_probe_request_rejects_a_remote_port_outside_1_to_65535(port):
    """Port 0 used to run to completion and 70000 to fail in the first TCP header."""
    with pytest.raises(MeasurementError, match=f"remote port must be in \\[1, 65535\\]: {port}"):
        ProbeRequest(samples=2, remote_port=port)


def test_probe_request_frees_its_captured_and_traced_packets():
    """The probe testbed is a reference cycle; the packets its capture buffer
    and traces hold must not wait for the cyclic collector.  Only the last
    technique's closing resets, still in flight in a pending event, may."""
    request = ProbeRequest(tests=TestName.all(), samples=5, seed=3)
    base = Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid
    gc.collect()
    gc.disable()
    try:
        with Session(backend=EXECUTOR_SERIAL) as session:
            envelope = session.run(request)
        left = [obj for obj in gc.get_objects() if isinstance(obj, Packet) and obj.uid > base]
    finally:
        gc.enable()
    assert all(report.succeeded for report in envelope.payload.values())
    assert len(left) <= 2
    assert all(packet.ip.src == PROBE_ADDRESS and packet.tcp.has(TcpFlags.RST) for packet in left)


def test_matrix_request_measures_identically_on_serial_and_process():
    scenarios = ("imc2002-survey", "bursty-loss")
    base = dict(
        scenarios=scenarios, config=GOLDEN_CONFIG, hosts=3, seed=11, shards=2
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        sequential = session.run(MatrixRequest(**base))
    with Session(backend="process") as session:
        parallel = session.run(MatrixRequest(**base))
    assert sequential.kind == parallel.kind == "matrix"
    assert sequential.result_digest == parallel.result_digest
    assert {child.scenario for child in sequential.children} == {
        "imc2002-survey/mixed",
        "bursty-loss/mixed",
    }
    # Cell seeds derive from the cell key, independent of execution order.
    for child in sequential.children:
        scenario = child.scenario.split("/")[0]
        assert child.meta["seed"] == derive_cell_seed(11, scenario)
    # Matrix envelopes stream into per-cell scenario slices.
    survey = survey_from_envelope(sequential)
    assert set(survey.scenario_slices()) == set(child.scenario for child in sequential.children)


# --------------------------------------------------------------------- #
# Matrix dispatch: one shard stream per sweep
# --------------------------------------------------------------------- #


def _matrix_request(scenarios, shards, os_names=(MIXED_OS,)) -> MatrixRequest:
    return MatrixRequest(
        scenarios=tuple(scenarios),
        os_names=os_names,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=shards,
    )


#: Three scenarios x two OS columns: six cells.
SMALL_MATRIX = _matrix_request(
    ("imc2002-survey", "bursty-loss", "route-flap"), 2, (MIXED_OS, "freebsd-4.4")
)


class _LoggingBackend(ProcessBackend):
    """A process backend that records every shard dispatch it is asked for."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.calls: list[tuple[str, tuple]] = []

    def map_shards(self, tasks):
        self.calls.append(("map_shards", tuple(tasks)))
        return super().map_shards(tasks)

    def iter_shards(self, tasks):
        self.calls.append(("iter_shards", tuple(tasks)))
        return super().iter_shards(tasks)


def test_matrix_dispatches_every_cell_in_one_call():
    backend = _LoggingBackend()
    try:
        with Session(backend=backend) as session:
            session.run(SMALL_MATRIX)
    finally:
        backend.close()
    assert len(backend.calls) == 1, [(name, len(tasks)) for name, tasks in backend.calls]
    ((_, tasks),) = backend.calls
    assert len(tasks) == 12
    assert len({task.index for task in tasks}) == 12


def _standalone_cell_digest(scenario: str, shards: int) -> str:
    """The digest of one matrix cell, run as its own serial campaign."""
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(
            CampaignRequest(
                scenario=scenario,
                config=GOLDEN_CONFIG,
                hosts=GOLDEN_HOSTS,
                seed=derive_cell_seed(GOLDEN_SEED, scenario),
                shards=shards,
                scenario_label=f"{scenario}/{MIXED_OS}",
            )
        ).result_digest


@pytest.mark.parametrize("shards", (1, 4))
def test_matrix_digests_are_backend_invariant_and_match_standalone_cells(shards):
    request = _matrix_request(sorted(scenario_names()), shards)
    envelopes = {}
    for name in BACKENDS:
        with Session(backend=name, max_workers=2) as session:
            envelopes[name] = session.run(request)
    remote = make_backend(spawn_workers=2)
    try:
        with Session(backend=remote) as session:
            envelopes["remote"] = session.run(request)
    finally:
        remote.close()
    reference = envelopes[EXECUTOR_SERIAL]
    cells = {child.scenario: child.result_digest for child in reference.children}
    assert len(cells) == len(scenario_names())
    for name, envelope in envelopes.items():
        assert envelope.result_digest == reference.result_digest, name
        assert {
            child.scenario: child.result_digest for child in envelope.children
        } == cells, name
    for scenario in scenario_names():
        assert cells[f"{scenario}/{MIXED_OS}"] == _standalone_cell_digest(scenario, shards), (
            f"cell {scenario!r} measured differently inside the matrix"
        )


class _Stop(Exception):
    """Raised by a test to stop a run at a shard or cell boundary."""


def test_an_error_at_a_cell_boundary_closes_the_stream(monkeypatch):
    """An exception while the first finished cell is folded propagates from
    ``run``; the stream is closed, so the sweep's unstarted batches never
    land in the next sweep on the same warm pool."""
    with Session(backend=EXECUTOR_SERIAL) as session:
        reference = session.run(SMALL_MATRIX).result_digest
    folded: list = []

    def fail_at_first_cell(plan, digest, outcomes, meta):
        folded.append(plan.scenario)
        raise _Stop(plan.scenario)

    backend = ProcessBackend(max_workers=2)
    try:
        with Session(backend=backend) as session:
            with monkeypatch.context() as patch:
                patch.setattr(session_module, "_campaign_envelope", fail_at_first_cell)
                with pytest.raises(_Stop):
                    session.run(SMALL_MATRIX)
            again = session.run(SMALL_MATRIX)
    finally:
        backend.close()
    assert len(folded) == 1
    assert again.result_digest == reference


class _CountingStreamBackend(SerialBackend):
    """Runs shards inline but streams them as a pool backend does, noting
    before each shard how many cell digests the session has computed."""

    name = "counting-stream"

    def __init__(self, digests: list) -> None:
        super().__init__()
        self.digests = digests
        self.digested_before: list[int] = []

    def iter_shards(self, tasks):
        for task in tasks:
            self.digested_before.append(len(self.digests))
            yield run_shard(task)


def test_matrix_folds_each_cell_as_its_last_shard_lands(monkeypatch):
    """A cell is merged and digested before the stream's next outcome, so
    that work overlaps the shards still running instead of trailing them."""
    digests: list[str] = []

    def counted_digest(result):
        digests.append(result_digest(result))
        return digests[-1]

    monkeypatch.setattr(session_module, "result_digest", counted_digest)
    backend = _CountingStreamBackend(digests)
    with Session(backend=backend) as session:
        envelope = session.run(SMALL_MATRIX)
    # Six cells of two shards each, streamed cell by cell.
    assert backend.digested_before == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert digests == [child.result_digest for child in envelope.children]
    with Session(backend=EXECUTOR_SERIAL) as session:
        assert envelope.result_digest == session.run(SMALL_MATRIX).result_digest


# --------------------------------------------------------------------- #
# Running a request: the caller's thread and the checkpoint hook
# --------------------------------------------------------------------- #


def test_run_calls_the_hook_on_the_callers_thread_and_starts_no_thread():
    seen = []
    before = set(threading.enumerate())

    def hook(outcome, completed, total):
        started = set(threading.enumerate()) - before
        seen.append((threading.current_thread(), started, completed))

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(dataclasses.replace(_request("imc2002-survey"), on_checkpoint=hook))
    caller = threading.current_thread()
    assert seen == [(caller, set(), 1), (caller, set(), 2)]
    assert envelope.result_digest == _reference_digest("imc2002-survey")


def test_a_failing_request_raises_from_run_and_the_session_stays_usable():
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(SimulationError, match="no-such-scenario"):
            session.run(CampaignRequest(scenario="no-such-scenario"))
        envelope = session.run(_request("imc2002-survey"))
    assert envelope.result_digest == _reference_digest("imc2002-survey")


def test_a_hook_that_raises_stops_the_campaign_at_that_shard(monkeypatch):
    """The hook's exception propagates from ``run`` at shard 1 of 2, and
    shard 2 never runs."""
    inline = _count_inline_shards(monkeypatch)

    def stop(outcome, completed, total):
        raise _Stop(f"stopped after {completed}/{total}")

    request = dataclasses.replace(_request("imc2002-survey", shards=2), on_checkpoint=stop)
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(_Stop, match="stopped after 1/2"):
            session.run(request)
    assert inline == [0]


# --------------------------------------------------------------------- #
# Session and backend plumbing
# --------------------------------------------------------------------- #


def test_session_rejects_unknown_backend_and_a_run_after_close():
    with pytest.raises(MeasurementError, match="unknown execution backend"):
        Session(backend="gpu")
    session = Session(backend=EXECUTOR_SERIAL)
    session.close()
    with pytest.raises(MeasurementError, match="session is closed"):
        session.run(ProbeRequest())


def test_borrowed_backend_is_not_closed_by_the_session():
    backend = ProcessBackend(max_workers=2)
    try:
        with Session(backend=backend) as session:
            digest = session.run(_request("imc2002-survey")).result_digest
        # The pool survives the session and still executes work.
        with Session(backend=backend) as session:
            again = session.run(_request("imc2002-survey")).result_digest
        assert digest == again == _reference_digest("imc2002-survey")
    finally:
        backend.close()


# --------------------------------------------------------------------- #
# The shard stream: inline paths and the pool-failure fallback
# --------------------------------------------------------------------- #


def test_one_shard_campaign_never_spins_up_a_pool():
    backend = ProcessBackend(max_workers=2)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(_request("imc2002-survey", shards=1))
        assert backend._pool is None, "a one-shard campaign must run inline"
        assert envelope.result_digest == GOLDEN_DIGESTS["imc2002-survey"]
    finally:
        backend.close()


class _StreamFailsAfterOneShard(SerialBackend):
    """Yields the first shard's outcome, then fails the way a pool can.

    Its non-``serial`` name sends a session's shards through the pool path.
    """

    name = "fails-after-one-shard"

    def __init__(self, failure: BaseException) -> None:
        super().__init__()
        self.failure = failure

    def iter_shards(self, tasks):
        yield run_shard(tasks[0])
        raise self.failure


@pytest.fixture(scope="module")
def three_shard_digest():
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(_request("imc2002-survey", shards=3)).result_digest


def _count_inline_shards(monkeypatch) -> list[int]:
    """Record the index of every shard the session runs inline."""
    inline: list[int] = []

    def counting(task):
        inline.append(task.index)
        return run_shard(task)

    monkeypatch.setattr(session_module, "run_shard", counting)
    return inline


@pytest.mark.parametrize("failure", POOL_FAILURES, ids=lambda cls: cls.__name__)
def test_pool_failure_runs_only_the_unyielded_shards_inline(
    monkeypatch, three_shard_digest, failure
):
    """A pool failure mid-stream reruns nothing already yielded; the rest
    run inline, through the session module's ``run_shard``, in task order,
    after one warning that names the backend, the failure and the count."""
    inline = _count_inline_shards(monkeypatch)
    backend = _StreamFailsAfterOneShard(failure("injected pool failure"))
    expected = (
        f"fails-after-one-shard backend failed "
        f"({failure('injected pool failure')!r}); running 2 shard(s) inline"
    )
    with Session(backend=backend) as session:
        with pytest.warns(RuntimeWarning, match=re.escape(expected)):
            envelope = session.run(_request("imc2002-survey", shards=3))
    assert inline == [1, 2]
    assert envelope.result_digest == three_shard_digest


def test_a_failure_that_is_not_a_pool_failure_propagates(monkeypatch):
    inline = _count_inline_shards(monkeypatch)
    backend = _StreamFailsAfterOneShard(ValueError("not a pool failure"))
    with Session(backend=backend) as session:
        with pytest.raises(ValueError, match="not a pool failure"):
            session.run(_request("imc2002-survey", shards=3))
    assert inline == [], "only pool failures may fall back to inline execution"


def test_create_backend_resolves_names_and_instances():
    serial = create_backend(EXECUTOR_SERIAL)
    assert isinstance(serial, SerialBackend)
    process = ProcessBackend(max_workers=1)
    assert create_backend(process) is process
    process.close()
    with pytest.raises(MeasurementError, match="unknown execution backend"):
        create_backend("gpu")


def test_campaign_request_validates_population_source():
    with pytest.raises(MeasurementError, match="exactly one population source"):
        CampaignRequest().normalized()
    with pytest.raises(MeasurementError, match="exactly one population source"):
        CampaignRequest(scenario="imc2002-survey", specs=()).normalized()


def _no_shard(task):
    raise AssertionError(f"shard {task.index} ran")


@pytest.mark.parametrize(
    "sweep, label",
    [
        (MatrixRequest(scenarios=("imc2002-survey", "imc2002-survey"), hosts=2),
         "imc2002-survey/mixed"),
        (MatrixRequest(scenarios=("syn-filtered",), os_names=("linux-2.4", "linux-2.4"), hosts=2),
         "syn-filtered/linux-2.4"),
    ],
    ids=["scenario", "os-name"],
)
def test_a_sweep_refuses_a_repeated_cell_before_any_shard_runs(monkeypatch, sweep, label):
    """A repeated cell derives the same seed, so it would run the same
    campaign twice and collide with it under one ``runs`` label."""
    monkeypatch.setattr(session_module, "run_shard", _no_shard)
    with Session(backend="serial") as session:
        with pytest.raises(MeasurementError, match=f"repeats the cell\\(s\\) {label}$"):
            session.run(sweep)


@pytest.mark.parametrize(
    "sweep",
    [
        MatrixRequest(),
        MatrixRequest(scenarios=("imc2002-survey",), os_names=()),
        MatrixRequest(matrix=ScenarioMatrix(scenarios=())),
    ],
    ids=["no-scenarios", "no-os-names", "empty-matrix"],
)
def test_a_sweep_without_cells_is_refused_before_any_shard_runs(monkeypatch, sweep):
    """An empty sweep used to return the digest of no cells."""
    monkeypatch.setattr(session_module, "run_shard", _no_shard)
    with Session(backend="serial") as session:
        with pytest.raises(MeasurementError, match="at least one scenario and one OS name"):
            session.run(sweep)


@pytest.mark.parametrize("backend", (EXECUTOR_SERIAL, "process", "remote"))
def test_a_spec_value_no_codec_carries_fails_before_any_shard_runs(tmp_path, backend):
    """The plan digest packs the host specs first, so a value outside its
    field's range (here a negative count) runs nothing and writes no store."""
    from dataclasses import replace

    from repro.workloads.population import PopulationSpec, generate_population

    first, *rest = generate_population(PopulationSpec(num_hosts=2), seed=5)
    checkpoints: list = []
    request = CampaignRequest(
        specs=(replace(first, load_balancer_backends=-1), *rest),
        config=CampaignConfig(rounds=1, samples_per_measurement=2),
        shards=2,
        store=tmp_path / "store",
        on_checkpoint=lambda *args: checkpoints.append(args),
    )
    with Session(backend=backend) as session:
        with pytest.raises(MeasurementError, match="outside its field range"):
            session.run(request)
    assert checkpoints == []
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("port", (0, 70000))
def test_a_remote_port_outside_1_to_65535_fails_before_any_shard_runs(monkeypatch, tmp_path, port):
    """The plan refuses the port, so no shard runs and no manifest is written
    (a serial run used to write the manifest and then die in the first TCP
    header)."""
    monkeypatch.setattr(session_module, "run_shard", _no_shard)
    request = CampaignRequest(
        scenario="imc2002-survey", hosts=2, remote_port=port, store=tmp_path / "store"
    )
    with Session(backend="serial") as session:
        with pytest.raises(MeasurementError, match=f"remote port must be in \\[1, 65535\\]: {port}"):
            session.run(request)
    assert not (tmp_path / "store" / "manifest.json").exists()


def test_explicit_spec_campaign_matches_runner_output():
    """An explicit-spec request measures exactly its plan: the plan's shard
    tasks run by hand and merged give the session's digest."""
    from repro.workloads.population import PopulationSpec, generate_population

    specs = tuple(generate_population(PopulationSpec(num_hosts=3), seed=5))
    config = CampaignConfig(rounds=1, samples_per_measurement=3)
    plan = CampaignPlan.of(specs, config, seed=5, shards=2)
    records = (record for task in plan.shard_tasks() for record in run_shard(task).records)
    by_hand = merge_records(records, plan)
    for backend in BACKENDS:
        with Session(backend=backend) as session:
            envelope = session.run(
                CampaignRequest(specs=specs, config=config, seed=5, shards=2)
            )
        assert envelope.result_digest == result_digest(by_hand), backend
