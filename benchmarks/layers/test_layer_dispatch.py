"""Layer microbenchmark for the process backend's shard dispatch.

One fixed task list, built once per module like ``test_layer_codecs.py``'s
batch: the 48 shard tasks of one ``sweep-process`` op (all 12 scenarios on
mixed host OSes, 4 hosts and 4 shards per cell, 10 samples, the
single-connection and SYN tests).  Each round drains all of them through
``iter_shards`` of one warm ``ProcessBackend(max_workers=2)``; an untimed
warm-up round spawns the workers first.  A round crosses batch sizing,
submission, the pool's pipes, both workers' shard runs, the result blobs'
encode and decode, and the parent's waits.

The case reports ``extra_info["parallel_efficiency"]``: the same tasks'
inline ``run_shard`` seconds (the median of ``INLINE_RUNS`` runs in this
process) divided by 2 × the median round.  It reads 1.0 when both workers
run shards for the whole drain with no dispatch cost; the shortfall is the
time a worker idles or the dispatch adds.

The case claims nothing by itself.  Compare medians and IQRs of two commits
measured on one machine in one session::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.api import MatrixRequest, ProcessBackend
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import run_shard
from repro.scenarios.registry import scenario_names

SEED = 1
WORKERS = 2
ROUNDS = 40
INLINE_RUNS = 3
REQUEST = MatrixRequest(
    scenarios=scenario_names(),
    config=CampaignConfig(
        rounds=1,
        samples_per_measurement=10,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    ),
    hosts=4,
    seed=SEED,
    shards=4,
)


@pytest.fixture(scope="module")
def sweep_tasks():
    tasks = []
    for plan in REQUEST.normalized():
        tasks.extend(plan.shard_tasks(first_index=len(tasks)))
    assert len(tasks) == 48
    return tasks


@pytest.fixture(scope="module")
def inline_seconds(sweep_tasks):
    runs = []
    for _ in range(INLINE_RUNS):
        start = time.perf_counter()
        for task in sweep_tasks:
            run_shard(task)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def test_drain_one_sweep_through_a_warm_pool(benchmark, sweep_tasks, inline_seconds):
    with ProcessBackend(max_workers=WORKERS) as backend:

        def drain() -> list[int]:
            return sorted(outcome.index for outcome in backend.iter_shards(sweep_tasks))

        indexes = benchmark.pedantic(drain, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert indexes == [task.index for task in sweep_tasks]
    benchmark.extra_info["shards"] = len(sweep_tasks)
    benchmark.extra_info["inline_s"] = inline_seconds
    benchmark.extra_info["parallel_efficiency"] = inline_seconds / (
        WORKERS * benchmark.stats.stats.median
    )
