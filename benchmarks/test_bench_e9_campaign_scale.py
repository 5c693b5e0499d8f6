"""E9 — Campaign throughput: serial engine vs. sharded campaign.

The paper's survey (§IV-B) is embarrassingly parallel across hosts: every
probe-to-host path is independent, so the only thing serialising the campaign
is the single event loop.  This benchmark runs the same campaign twice — once
on the single-simulator :class:`Campaign`, once as a sharded
:class:`~repro.api.CampaignRequest` through a :class:`~repro.api.Session` on
a warm backend — records the throughput of each in measurements per second,
and verifies the two datasets are identical modulo ordering.
"""

from __future__ import annotations

import os
import time

from bench_helpers import record_bench, run_once

from repro.api import CampaignRequest, Session, create_backend
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_PROCESS, result_signature
from repro.distributed import RemoteBackend
from repro.workloads.population import PopulationSpec, generate_population
from repro.workloads.testbed import build_testbed

NUM_HOSTS = 12
SHARDS = 4
SEED = 97
REMOTE_WORKERS = 2
TIMING_REPEATS = 5
"""Both engines are timed best-of-N: the simulation is deterministic, so
repeats only reject scheduler noise, and the recorded rates feed the CI
regression gate, which wants a stable statistic.  Timing the sharded campaign
once while the serial engine got best-of-five (the pre-PR 7 shape) skewed
the speedup ratio against it; now the comparison is symmetric, and
warm-pool repeats are also the realistic shape — a session reuses one pool
across campaigns."""

CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=10,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)


def _run():
    # No load balancers: LB backend selection hashes ephemeral ports, which
    # depend on shard layout, so the serial-vs-sharded identity assert below
    # is only guaranteed for LB-free populations (see repro.core.runner).
    spec = PopulationSpec(
        num_hosts=NUM_HOSTS, reordering_path_fraction=0.5, load_balanced_fraction=0.0
    )
    specs = generate_population(spec, seed=SEED)

    serial = None
    serial_elapsed = float("inf")
    events_processed = 0
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        testbed = build_testbed(specs, seed=SEED, stable_site_seeds=True)
        result = Campaign(testbed.probe, testbed.addresses(), CONFIG).run()
        elapsed = time.perf_counter() - start
        if elapsed < serial_elapsed:
            serial, serial_elapsed = result, elapsed
            events_processed = testbed.probe.sim.processed_events

    sharded = None
    sharded_elapsed = float("inf")
    request = CampaignRequest(specs=tuple(specs), config=CONFIG, seed=SEED, shards=SHARDS)
    with create_backend(EXECUTOR_PROCESS) as backend, Session(backend=backend) as session:
        # One warm pool across the repeats, exactly as a session shares it
        # across campaigns; best-of-N therefore measures steady-state
        # dispatch + transport, with pool spin-up amortised away like any
        # other first-iteration cache effect.
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            result = session.run(request).result
            elapsed = time.perf_counter() - start
            if elapsed < sharded_elapsed:
                sharded, sharded_elapsed = result, elapsed

    return serial, serial_elapsed, events_processed, sharded, sharded_elapsed


def test_bench_campaign_scale(benchmark):
    serial, serial_elapsed, events, sharded, sharded_elapsed = run_once(benchmark, _run)

    measurements = len(serial.records)
    serial_rate = measurements / serial_elapsed
    sharded_rate = measurements / sharded_elapsed
    events_rate = events / serial_elapsed
    print()
    print(f"campaign: {NUM_HOSTS} hosts x {CONFIG.rounds} rounds x "
          f"{len(CONFIG.tests)} tests = {measurements} measurements, {events} events")
    print(f"serial engine:  {serial_elapsed:8.3f} s  {serial_rate:8.1f} measurements/s "
          f"{events_rate:10.0f} events/s")
    print(f"sharded runner: {sharded_elapsed:8.3f} s  {sharded_rate:8.1f} measurements/s "
          f"({SHARDS} shards, {os.cpu_count()} cores, speedup x{serial_elapsed / sharded_elapsed:.2f})")
    out = record_bench(
        "e9_campaign_scale",
        {
            "events_per_sec": events_rate,
            "hosts_per_sec": NUM_HOSTS / serial_elapsed,
            "measurements_per_sec_serial": serial_rate,
            "measurements_per_sec_sharded": sharded_rate,
            "speedup_sharded_vs_serial": serial_elapsed / sharded_elapsed,
        },
    )
    print(f"recorded -> {out}")

    # Sharding must never change what was measured.
    assert len(sharded.records) == measurements
    assert result_signature(sharded) == result_signature(serial)


def _run_remote():
    spec = PopulationSpec(
        num_hosts=NUM_HOSTS, reordering_path_fraction=0.5, load_balanced_fraction=0.0
    )
    specs = generate_population(spec, seed=SEED)

    serial = None
    serial_elapsed = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        testbed = build_testbed(specs, seed=SEED, stable_site_seeds=True)
        result = Campaign(testbed.probe, testbed.addresses(), CONFIG).run()
        elapsed = time.perf_counter() - start
        if elapsed < serial_elapsed:
            serial, serial_elapsed = result, elapsed

    remote = None
    remote_elapsed = float("inf")
    reports = []
    request = CampaignRequest(specs=tuple(specs), config=CONFIG, seed=SEED, shards=SHARDS)
    with RemoteBackend(spawn_workers=REMOTE_WORKERS) as backend, Session(backend=backend) as session:
        # One warm fleet across the repeats: the first iteration pays worker
        # spin-up + TCP connect, later ones measure steady-state lease /
        # dispatch / result-stream cost, which is what a long-lived session
        # actually sees.
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            envelope = session.run(request)
            elapsed = time.perf_counter() - start
            # The session pops each campaign's job report into its envelope.
            reports.append(envelope.meta.get("remote", {}))
            if elapsed < remote_elapsed:
                remote, remote_elapsed = envelope.result, elapsed

    return serial, serial_elapsed, remote, remote_elapsed, reports


def test_bench_campaign_remote(benchmark):
    """E9 over the ``remote`` backend: localhost TCP workers vs. serial.

    On localhost the wire layer adds framing + socket hops on top of the
    process backend's costs, so this records how much fault tolerance
    costs when nothing fails — the chaos suite covers what it buys when
    something does.
    """
    serial, serial_elapsed, remote, remote_elapsed, reports = run_once(
        benchmark, _run_remote
    )

    measurements = len(serial.records)
    serial_rate = measurements / serial_elapsed
    remote_rate = measurements / remote_elapsed
    print()
    print(f"campaign: {NUM_HOSTS} hosts x {CONFIG.rounds} rounds x "
          f"{len(CONFIG.tests)} tests = {measurements} measurements")
    print(f"serial engine:  {serial_elapsed:8.3f} s  {serial_rate:8.1f} measurements/s")
    print(f"remote workers: {remote_elapsed:8.3f} s  {remote_rate:8.1f} measurements/s "
          f"({SHARDS} shards, {REMOTE_WORKERS} workers, {os.cpu_count()} cores, "
          f"speedup x{serial_elapsed / remote_elapsed:.2f})")
    out = record_bench(
        "e9_remote_campaign",
        {
            "workers": REMOTE_WORKERS,
            "measurements_per_sec_serial": serial_rate,
            "measurements_per_sec_remote": remote_rate,
            "speedup_remote_vs_serial": serial_elapsed / remote_elapsed,
        },
    )
    print(f"recorded -> {out}")

    # The wire layer must never change what was measured — and the whole
    # campaign must actually have been served by the remote fleet.
    assert len(remote.records) == measurements
    assert result_signature(remote) == result_signature(serial)
    assert not any(report.get("degraded") for report in reports), (
        "bench fleet must serve, not degrade"
    )
    assert not any(report.get("quarantined") for report in reports)
