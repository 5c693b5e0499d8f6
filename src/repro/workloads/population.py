"""Synthetic Internet host populations for the survey experiments (§IV-B).

The population machinery itself lives in the scenario layer
(:mod:`repro.scenarios`): a :class:`~repro.scenarios.spec.NetworkScenario`
describes path conditions declaratively and
:func:`~repro.scenarios.population.build_scenario_hosts` materialises it into
host specs.  This module is the thin, stable workload-level surface over it:
:func:`generate_population` is exactly the ``imc2002-survey`` named scenario
(the paper's static survey population — OS mix, load-balanced clusters, ICMP
filtering, heavy-at-zero long-tailed per-path rates) and is bit-for-bit
reproducible for a fixed ``(spec, seed)``, just as it was before scenarios
existed.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, TypeVar

T = TypeVar("T")

from repro.host.os_profiles import FREEBSD_44
from repro.net.errors import SimulationError
from repro.net.flow import parse_address
from repro.scenarios.population import build_scenario_hosts
from repro.scenarios.registry import LEGACY_SCENARIO, get_scenario
from repro.scenarios.spec import PopulationSpec
from repro.sim.random import SeededRandom
from repro.workloads.testbed import HostSpec, PathSpec

__all__ = [
    "PopulationSpec",
    "generate_population",
    "partition_specs",
    "popular_site_specs",
]


def generate_population(spec: PopulationSpec, seed: int = 7) -> list[HostSpec]:
    """Generate ``spec.num_hosts`` host specs with deterministic randomness.

    Equivalent to materialising the ``imc2002-survey`` scenario with
    ``spec`` as its population — the legacy hard-wired population is just
    that named scenario.
    """
    scenario = dataclasses.replace(get_scenario(LEGACY_SCENARIO), population=spec)
    return build_scenario_hosts(scenario, seed=seed)


def popular_site_specs(seed: int = 11) -> list[HostSpec]:
    """A handful of hand-picked, heavily load-balanced 'popular site' analogues.

    These play the role of www.apple.com / yahoo.com / hotmail.com in the
    paper: high-traffic consumer sites behind transparent load balancers,
    where the dual-connection test is unusable but the SYN test still works.
    """
    rng = SeededRandom(seed)
    base = parse_address("192.0.2.10")
    names = ("popular-apple", "popular-yahoo", "popular-hotmail")
    specs = []
    for index, name in enumerate(names):
        host_rng = rng.fork(name)
        specs.append(
            HostSpec(
                name=name,
                address=base + index,
                profile=FREEBSD_44,
                path=PathSpec(
                    forward_swap_probability=host_rng.uniform(0.03, 0.12),
                    reverse_swap_probability=host_rng.uniform(0.01, 0.04),
                    propagation_delay=host_rng.uniform(0.01, 0.03),
                ),
                web_object_size=32 * 1024,
                load_balancer_backends=4,
            )
        )
    return specs


def partition_specs(items: Sequence[T], shards: int) -> list[list[T]]:
    """Split ``items`` into at most ``shards`` contiguous, balanced partitions.

    Partition sizes differ by at most one, original order is preserved, and no
    empty partitions are produced: asking for more shards than there are items
    yields one singleton partition per item.  This is the partitioning rule
    the sharded campaign runner applies to host spec lists.
    """
    if shards < 1:
        raise SimulationError(f"partitioning needs at least one shard: {shards}")
    if not items:
        return []
    effective = min(shards, len(items))
    base, remainder = divmod(len(items), effective)
    partitions: list[list[T]] = []
    start = 0
    for index in range(effective):
        size = base + (1 if index < remainder else 0)
        partitions.append(list(items[start : start + size]))
        start += size
    return partitions
