"""Tests for the sharded campaign runner and the indexed campaign result."""

from __future__ import annotations

import gc

import pytest

from repro.analysis.streaming import stream_survey
from repro.api import CampaignRequest, Session
from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import (
    EXECUTOR_PROCESS,
    EXECUTOR_SERIAL,
    CampaignPlan,
    ShardTask,
    record_signature,
    result_signature,
    run_shard,
)
from repro.core.sample import Direction
from repro.net.errors import MeasurementError
from repro.net.packet import Packet, TcpHeader
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario
from repro.workloads.population import (
    PopulationSpec,
    generate_population,
    partition_specs,
)
from repro.workloads.testbed import build_testbed
import _analysis_oracle as oracle

POPULATION = PopulationSpec(num_hosts=6, load_balanced_fraction=0.0, reordering_path_fraction=0.5)
CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=5,
    tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)
SEED = 20260730


def _run(specs, shards: int, config=CONFIG, backend: str = EXECUTOR_SERIAL) -> CampaignResult:
    """One explicit-spec campaign through a session, as its merged dataset."""
    request = CampaignRequest(specs=tuple(specs), config=config, seed=SEED, shards=shards)
    with Session(backend=backend, max_workers=2) as session:
        return session.run(request).result


@pytest.fixture(scope="module")
def specs():
    return generate_population(POPULATION, seed=SEED)


@pytest.fixture(scope="module")
def serial_reference(specs):
    """The plain single-simulator Campaign over a stable-seeded testbed."""
    testbed = build_testbed(specs, seed=SEED, stable_site_seeds=True)
    return Campaign(testbed.probe, testbed.addresses(), CONFIG).run()


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #


def test_partition_single_item():
    assert partition_specs(["a"], 1) == [["a"]]
    assert partition_specs(["a"], 5) == [["a"]]


def test_partition_fewer_items_than_shards():
    assert partition_specs([1, 2, 3], 8) == [[1], [2], [3]]


def test_partition_uneven_split_is_balanced_and_ordered():
    parts = partition_specs(list(range(10)), 4)
    assert parts == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    assert max(map(len, parts)) - min(map(len, parts)) <= 1


def test_partition_empty_and_invalid():
    assert partition_specs([], 3) == []
    with pytest.raises(Exception):
        partition_specs([1], 0)


def test_runner_shard_plan_covers_population(specs):
    tasks = CampaignPlan.of(specs, CONFIG, seed=SEED, shards=4).shard_tasks()
    assert len(tasks) == 4
    assert [spec for task in tasks for spec in task.specs] == list(specs)


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #


def test_single_shard_matches_serial_campaign_exactly(specs, serial_reference):
    """One shard is literally the serial campaign: same records, same times."""
    result = _run(specs, shards=1)
    assert [record.time for record in result.records] == [
        record.time for record in serial_reference.records
    ]
    assert result_signature(result) == result_signature(serial_reference)


def test_sharded_matches_serial_campaign_modulo_ordering(specs, serial_reference):
    """shards=N reproduces the serial records (content, modulo ordering)."""
    for shards in (2, 3, 6):
        result = _run(specs, shards=shards)
        assert len(result.records) == len(serial_reference.records)
        assert result_signature(result) == result_signature(serial_reference)


def test_parallel_executors_match_serial_fallback(specs):
    """A process pool returns the same dataset as inline execution."""
    serial = _run(specs, shards=3)
    processed = _run(specs, shards=3, backend=EXECUTOR_PROCESS)
    assert result_signature(processed) == result_signature(serial)


def test_merged_record_order_is_canonical(specs):
    """Merged records follow (round, host-in-spec-order, test-in-cycle-order)."""
    result = _run(specs, shards=3)
    host_order = {spec.address: index for index, spec in enumerate(specs)}
    test_order = {test: index for index, test in enumerate(CONFIG.tests)}
    keys = [
        (record.round_index, host_order[record.host_address], test_order[record.test])
        for record in result.records
    ]
    assert keys == sorted(keys)


def test_sharded_analysis_views_match_serial(specs, serial_reference):
    result = _run(specs, shards=3)
    survey = stream_survey(result.records, result.host_addresses)
    for test in CONFIG.tests:
        assert survey.ineligible_hosts(test) == oracle.ineligible_hosts(serial_reference, test)
        for direction in Direction:
            assert survey.path_rates(test, direction) == pytest.approx(
                oracle.path_rates(serial_reference, test, direction)
            )
    assert survey.measurements_total == oracle.total_measurements(serial_reference)
    assert survey.measurements_with_reordering == oracle.measurements_with_reordering(
        serial_reference
    )


def test_fixed_shard_layout_reproducible_with_load_balancers():
    """LB sites hash ephemeral ports, so shard *count* may change their
    records — but a fixed layout must reproduce exactly, LB hosts included."""
    lb_specs = generate_population(
        PopulationSpec(num_hosts=8, load_balanced_fraction=0.5), seed=SEED
    )
    config = CampaignConfig(
        rounds=1, samples_per_measurement=4, tests=(TestName.DUAL_CONNECTION,)
    )
    first = _run(lb_specs, shards=3, config=config)
    again = _run(lb_specs, shards=3, config=config)
    assert result_signature(first) == result_signature(again)
    processed = _run(lb_specs, shards=3, config=config, backend=EXECUTOR_PROCESS)
    assert result_signature(processed) == result_signature(first)


def test_run_shard_frees_every_packet_it_simulated():
    """A shard's testbed is a reference cycle, so its packets would otherwise
    wait for the cyclic collector; with the collector off, none may remain."""
    scenario = get_scenario(LEGACY_SCENARIO).with_population(num_hosts=2)
    task = ShardTask(
        index=0,
        specs=tuple(build_scenario_hosts(scenario, seed=SEED)),
        config=CampaignConfig(rounds=1, samples_per_measurement=5),
        tests=TestName.all(),
        seed=SEED,
        remote_port=80,
    )
    base = Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid
    gc.collect()
    gc.disable()
    try:
        outcome = run_shard(task)
        left = sum(1 for obj in gc.get_objects() if isinstance(obj, Packet) and obj.uid > base)
    finally:
        gc.enable()
    assert len(outcome.records) == 2 * len(TestName.all())
    assert any(record.report.succeeded for record in outcome.records)
    assert left == 0


def test_runner_validation(specs):
    with pytest.raises(MeasurementError):
        CampaignPlan.of([], CONFIG)
    with pytest.raises(MeasurementError):
        CampaignPlan.of(specs, CONFIG, shards=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_runner_refuses_a_seed_no_codec_can_send(specs, seed):
    """Every backend refuses it alike, not only the one whose wire is a u64."""
    with pytest.raises(MeasurementError, match="seed"):
        CampaignPlan.of(specs, CONFIG, seed=seed)
    CampaignPlan.of(specs, CONFIG, seed=2**64 - 1)


# --------------------------------------------------------------------- #
# CampaignResult merge and indexing
# --------------------------------------------------------------------- #


def _record(round_index: int, host: int, test: TestName, time: float) -> HostRoundResult:
    report = ProbeReport(test=test, host_address=host, result=None, error="no samples collected")
    return HostRoundResult(
        round_index=round_index, host_address=host, test=test, time=time, report=report
    )


def test_campaign_result_add_and_extend_append_in_order():
    config = CampaignConfig(rounds=1, samples_per_measurement=1)
    first = _record(0, 2, TestName.SYN, 0.0)
    result = CampaignResult(config=config, host_addresses=(1, 2), records=[first])
    shard_a = [_record(0, 1, TestName.SYN, 0.0), _record(1, 1, TestName.SYN, 5.0)]
    shard_b = _record(0, 2, TestName.SINGLE_CONNECTION, 0.0)
    result.extend(shard_a)
    result.add(shard_b)
    assert result.records == [first, *shard_a, shard_b]


def test_record_signature_ignores_bookkeeping_but_not_content():
    a = _record(0, 1, TestName.SYN, 0.0)
    b = _record(0, 1, TestName.SYN, 123.0)  # same measurement, different clock
    assert record_signature(a) == record_signature(b)
    c = _record(1, 1, TestName.SYN, 0.0)
    assert record_signature(a) != record_signature(c)


def test_ineligible_flag_is_explicit_only():
    """The bool field is authoritative; the error text is never pattern-matched."""
    explicit = ProbeReport(
        test=TestName.DUAL_CONNECTION, host_address=1, result=None,
        error="not eligible: ipid validation failed", ineligible=True,
    )
    assert explicit.ineligible
    string_only = ProbeReport(
        test=TestName.DUAL_CONNECTION, host_address=1, result=None,
        error="not eligible: ipid validation failed",
    )
    assert not string_only.ineligible  # no string sniffing any more
    plain_failure = ProbeReport(
        test=TestName.SYN, host_address=1, result=None, error="handshake timed out"
    )
    assert not plain_failure.ineligible
