"""Typed requests: every option normalized once, at the front door.

Each request dataclass captures one kind of work the library can do —
:class:`ProbeRequest` (one quick-testbed visit), :class:`CampaignRequest`
(a sharded survey over a scenario or an explicit population),
:class:`MatrixRequest` (a scenario × host-OS sweep), and
:class:`ResumeRequest` (continue an interrupted campaign from its durable
store) — and owns the normalization that used to be re-implemented by every
entry point: scenario names resolve to specs, population sizes and OS mixes
apply and per-cell seeds derive, all in one place.  A campaign normalizes to
one :class:`~repro.core.runner.CampaignPlan` and a sweep to one per cell; a
resume's plan is the one its store holds.

Requests are frozen and carry no execution state; the same request can be
submitted to any :class:`repro.api.Session` (any backend) and, by the
runner's determinism guarantees, produce a result with the identical
:func:`~repro.core.runner.result_digest`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import CampaignPlan, CheckpointHook
from repro.net.errors import MeasurementError
from repro.scenarios.matrix import (
    MIXED_OS,
    ScenarioLike,
    ScenarioMatrix,
    derive_cell_seed,
    resolve_scenario,
)
from repro.scenarios.population import build_scenario_hosts
from repro.store.store import CampaignStore
from repro.workloads.testbed import HostSpec, PathSpec

StoreLike = Union[CampaignStore, os.PathLike, str]


def as_store(store: StoreLike, *, create: bool) -> CampaignStore:
    """Accept a store object or a directory path (created lazily on run)."""
    if isinstance(store, CampaignStore):
        return store
    if create:
        return CampaignStore(store)  # begin() writes the manifest on first use
    return CampaignStore.open(store)


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProbeRequest:
    """One visit to a single simulated host: the library's "hello world".

    Builds the quick testbed (a lone web server behind an adjacent-swap
    path) — or deploys ``host`` verbatim when given — and runs each
    requested technique once.  The result envelope's payload is a
    ``dict[TestName, ProbeReport]``.
    """

    tests: tuple[TestName, ...] = (TestName.SINGLE_CONNECTION,)
    samples: int = 50
    seed: int = 1
    spacing: float = 0.0
    forward_swap_probability: float = 0.05
    reverse_swap_probability: float = 0.02
    remote_port: int = 80
    host: Optional[HostSpec] = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise MeasurementError(
                f"probe request needs at least one sample per measurement: {self.samples}"
            )
        if not 1 <= self.remote_port <= 65535:
            raise MeasurementError(f"probe remote port must be in [1, 65535]: {self.remote_port}")

    def host_spec(self) -> HostSpec:
        """The host to visit: the explicit spec, or the quick-testbed target."""
        if self.host is not None:
            return self.host
        from repro.net.flow import parse_address

        return HostSpec(
            name="target",
            address=parse_address("10.1.0.2"),
            path=PathSpec(
                forward_swap_probability=self.forward_swap_probability,
                reverse_swap_probability=self.reverse_swap_probability,
            ),
        )


@dataclass(frozen=True)
class CampaignRequest:
    """A sharded survey over a scenario population or explicit host specs.

    Exactly one of ``scenario`` / ``specs`` selects the population.  With a
    ``store`` the run checkpoints every completed shard durably (its
    manifest holds the host specs, so :class:`ResumeRequest` can continue it
    from the store alone); ``resume=True`` continues an interrupted run in
    place.
    """

    scenario: Optional[ScenarioLike] = None
    specs: Optional[tuple[HostSpec, ...]] = None
    config: Optional[CampaignConfig] = None
    hosts: Optional[int] = None
    os_name: Optional[str] = None
    seed: int = 7
    shards: int = 1
    remote_port: int = 80
    tests: Optional[tuple[TestName, ...]] = None
    scenario_label: Optional[str] = None
    store: Optional[StoreLike] = None
    resume: bool = False
    on_checkpoint: Optional[CheckpointHook] = None

    def normalized(self) -> CampaignPlan:
        """The campaign's plan; the store options stay on the request."""
        if (self.scenario is None) == (self.specs is None):
            raise MeasurementError(
                "CampaignRequest needs exactly one population source: "
                "a scenario (name or spec) or explicit host specs"
            )
        label = self.scenario_label
        if self.scenario is not None:
            scenario = resolve_scenario(self.scenario)
            if self.hosts is not None:
                scenario = scenario.with_population(num_hosts=self.hosts)
            if self.os_name is not None and self.os_name != MIXED_OS:
                scenario = scenario.with_os(self.os_name)
            specs = tuple(build_scenario_hosts(scenario, seed=self.seed))
            label = label or scenario.name
        else:
            if self.hosts is not None or self.os_name is not None:
                raise MeasurementError(
                    "hosts/os_name overrides apply to scenario populations, "
                    "not explicit host specs"
                )
            specs = tuple(self.specs or ())
        return CampaignPlan.of(
            specs,
            self.config,
            seed=self.seed,
            remote_port=self.remote_port,
            shards=self.shards,
            scenario=label,
            tests=self.tests,
        )


@dataclass(frozen=True)
class MatrixRequest:
    """A scenario × host-OS sweep, each cell a sharded campaign.

    Accepts either a prebuilt :class:`~repro.scenarios.matrix.ScenarioMatrix`
    or ``scenarios`` + ``os_names`` to build one.  Every cell's seed derives
    stably from ``(seed, scenario name, OS name)``, so adding or removing
    cells never changes the other cells' datasets.  The session dispatches
    every cell's shards as one stream, so the backend's workers stay busy
    across cell boundaries.
    """

    scenarios: tuple[ScenarioLike, ...] = ()
    os_names: tuple[str, ...] = (MIXED_OS,)
    matrix: Optional[ScenarioMatrix] = None
    config: Optional[CampaignConfig] = None
    hosts: Optional[int] = None
    seed: int = 7
    shards: int = 1
    remote_port: int = 80
    tests: Optional[tuple[TestName, ...]] = None

    def normalized(self) -> tuple[CampaignPlan, ...]:
        """One plan per cell, in row-major order, each stamped with its label.

        A sweep without cells is refused, and so is a label that appears
        twice: a cell's seed derives from its names, so a repeat would run
        the same campaign again and collide with it in the payload.
        """
        matrix = self.matrix
        if matrix is None:
            matrix = ScenarioMatrix.of(self.scenarios, self.os_names)
        cells = matrix.cells()
        if not cells:
            raise MeasurementError("MatrixRequest needs at least one scenario and one OS name")
        labels = [cell.label for cell in cells]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise MeasurementError(f"MatrixRequest repeats the cell(s) {', '.join(repeated)}")
        plans = []
        for cell in cells:
            scenario = cell.materialized_scenario()
            if self.hosts is not None:
                scenario = scenario.with_population(num_hosts=self.hosts)
            seed = derive_cell_seed(self.seed, cell.scenario.name, cell.os_name)
            plans.append(CampaignPlan.of(
                build_scenario_hosts(scenario, seed=seed),
                self.config,
                seed=seed,
                remote_port=self.remote_port,
                shards=self.shards,
                scenario=cell.label,
                tests=self.tests,
            ))
        return tuple(plans)


@dataclass(frozen=True)
class ResumeRequest:
    """Continue an interrupted campaign from its durable store alone.

    The store's manifest holds the plan and the host specs themselves, so
    any store resumes, whatever built its population: already-durable
    shards load back and only the missing shards execute.  The merged
    result is bit-identical — same :func:`~repro.core.runner.result_digest`
    — to an uninterrupted run.
    """

    store: StoreLike
    on_checkpoint: Optional[CheckpointHook] = None


Request = Union[ProbeRequest, CampaignRequest, MatrixRequest, ResumeRequest]


__all__ = [
    "CampaignRequest",
    "MatrixRequest",
    "ProbeRequest",
    "Request",
    "ResumeRequest",
    "StoreLike",
    "as_store",
]
