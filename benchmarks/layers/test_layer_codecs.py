"""Layer microbenchmarks for the two record codecs.

One fixed batch, built once per session: every shard of the ``sweep``
workload's matrix (all 12 scenarios on mixed host OSes, 4 hosts and 4
shards per cell, 10 samples, the single-connection and SYN tests), run
inline with ``run_shard``.  That is 48 shard outcomes holding 96 records and
960 samples, the batch a ``sweep-process`` op moves.  Four cases time it:

* ``encode_outcomes`` and ``decode_outcomes``, the binary shard transport
  the process and remote backends use;
* ``encode_record`` plus ``json.dumps`` and ``json.loads`` plus
  ``decode_record``, the record lines the campaign store writes and reads.

Each case reports microseconds per record in ``extra_info["us_per_record"]``
(the median round over the batch's record count).  The cases claim nothing by
themselves.  Compare medians and IQRs of two commits measured on one machine
in one session::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json

import pytest

from repro.api import MatrixRequest
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import run_shard
from repro.core.transport import decode_outcomes, encode_outcomes
from repro.scenarios.registry import scenario_names
from repro.store.codec import decode_record, encode_record

SEED = 1
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


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="session")
def sweep_batch():
    tasks = []
    for plan in REQUEST.normalized():
        tasks.extend(plan.shard_tasks(first_index=len(tasks)))
    return [run_shard(task) for task in tasks]


@pytest.fixture(scope="session")
def sweep_records(sweep_batch):
    return [record for outcome in sweep_batch for record in outcome.records]


def _per_record(benchmark, count: int) -> None:
    benchmark.extra_info["records"] = count
    benchmark.extra_info["us_per_record"] = benchmark.stats.stats.median * 1e6 / count


def test_encode_outcomes(benchmark, sweep_batch, sweep_records):
    blob = benchmark(encode_outcomes, sweep_batch)
    assert decode_outcomes(blob) == sweep_batch
    _per_record(benchmark, len(sweep_records))


def test_decode_outcomes(benchmark, sweep_batch, sweep_records):
    blob = encode_outcomes(sweep_batch)
    assert benchmark(decode_outcomes, blob) == sweep_batch
    _per_record(benchmark, len(sweep_records))


def test_encode_record_through_json(benchmark, sweep_records):
    def encode() -> list[str]:
        return [_dumps(encode_record(record)) for record in sweep_records]

    lines = benchmark(encode)
    assert len(lines) == len(sweep_records)
    _per_record(benchmark, len(sweep_records))


def test_decode_record_through_json(benchmark, sweep_records):
    lines = [_dumps(encode_record(record)) for record in sweep_records]

    def decode() -> list:
        return [decode_record(json.loads(line)) for line in lines]

    assert benchmark(decode) == sweep_records
    _per_record(benchmark, len(sweep_records))
