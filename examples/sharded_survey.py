#!/usr/bin/env python3
"""The paper's Internet survey (§IV-B), scaled out across shards.

Generates a synthetic host population and runs the same campaign twice
through a :class:`repro.api.Session`: once as a single shard on the serial
backend, once as four shards on the process backend, where every shard's
round-robin campaign runs on its own simulator in a worker process (inline
when the platform has no process pool).  The two result digests match, so
the merged datasets are identical; the survey eligibility table follows.
"""

from __future__ import annotations

import time

from repro import (
    CampaignConfig,
    CampaignRequest,
    PopulationSpec,
    Session,
    TestName,
    generate_population,
)
from repro.analysis.survey import summarize_eligibility

NUM_HOSTS = 16
SHARDS = 4
SEED = 2026


def main() -> None:
    # load_balanced_fraction=0.0 keeps the serial-vs-sharded identity check
    # below exact: load-balanced sites pick backends by hashing ephemeral
    # ports, which depend on shard layout (see repro.core.runner's notes).
    population = PopulationSpec(
        num_hosts=NUM_HOSTS, reordering_path_fraction=0.5, load_balanced_fraction=0.0
    )
    specs = generate_population(population, seed=SEED)
    config = CampaignConfig(
        rounds=2,
        samples_per_measurement=10,
        tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.5,
        inter_round_gap=5.0,
    )

    envelopes = []
    for label, shards, backend in (
        ("serial (1 shard)", 1, "serial"),
        (f"sharded ({SHARDS} shards)", SHARDS, "process"),
    ):
        request = CampaignRequest(specs=tuple(specs), config=config, seed=SEED, shards=shards)
        start = time.perf_counter()
        with Session(backend=backend) as session:
            envelope = session.run(request)
        elapsed = time.perf_counter() - start
        records = len(envelope.result.records)
        print(f"{label:20s} {records} measurements in {elapsed:6.2f} s "
              f"({records / elapsed:7.1f} measurements/s)")
        envelopes.append(envelope)

    serial, sharded = envelopes
    same = serial.result_digest == sharded.result_digest
    print(f"\nsharded dataset identical to serial dataset (modulo ordering): {same}")

    print()
    print(summarize_eligibility(sharded).to_table())


if __name__ == "__main__":
    main()
