"""Scenario execution and scenario × host-OS sweep matrices.

:class:`ScenarioMatrix` crosses scenarios with host operating systems,
deriving every cell's seed stably from ``(base seed, scenario name, OS
name)`` so a sweep is reproducible cell by cell regardless of execution
order or shard count.

:func:`run_scenario`, :func:`resume_scenario`, and :func:`run_matrix` are
**legacy shims**: they delegate to the unified :class:`repro.api.Session`
layer (emitting a :class:`DeprecationWarning` that points at the typed
request to use instead) and keep their historical signatures and return
types working unchanged.  New code should submit
:class:`~repro.api.requests.CampaignRequest` /
:class:`~repro.api.requests.ResumeRequest` /
:class:`~repro.api.requests.MatrixRequest` objects directly — which also
unlocks what the shims cannot offer: job handles, result envelopes, shared
warm pools, and parallel matrix cells.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import NetworkScenario
from repro.sim.random import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.campaign import CampaignConfig, CampaignResult
    from repro.core.runner import CheckpointHook
    from repro.core.prober import TestName
    from repro.store.store import CampaignStore

EXECUTOR_PROCESS = "process"
"""Default executor name, mirrored from :mod:`repro.core.runner`.

The session layer is imported lazily inside the shim functions: ``api``
(and ``core`` beneath it) sits *above* ``scenarios`` in the layering
(``core.runner`` consumes scenario-built populations), so a module-level
import here would be a cycle.
"""

ScenarioLike = Union[str, NetworkScenario]

MIXED_OS = "mixed"
"""Placeholder OS label for a matrix column using each scenario's own mix."""


def resolve_scenario(scenario: ScenarioLike) -> NetworkScenario:
    """Accept a scenario spec or a registered name."""
    if isinstance(scenario, NetworkScenario):
        return scenario
    return get_scenario(scenario)


def derive_cell_seed(seed: int, scenario_name: str, os_name: str = MIXED_OS) -> int:
    """A stable per-cell seed: a pure function of the base seed and cell key.

    Delegates to :meth:`SeededRandom.derive`, whose cryptographic digest
    keeps the derivation identical across processes and Python invocations.
    """
    return SeededRandom(seed).derive(f"scenario::{scenario_name}::os::{os_name}").seed


@dataclass(slots=True)
class ScenarioRun:
    """One executed scenario: its spec, the seed used, and the records."""

    scenario: NetworkScenario
    seed: int
    result: "CampaignResult"


def run_scenario(
    scenario: ScenarioLike,
    config: Optional["CampaignConfig"] = None,
    *,
    hosts: Optional[int] = None,
    seed: int = 7,
    shards: int = 1,
    executor: str = EXECUTOR_PROCESS,
    max_workers: Optional[int] = None,
    tests: Optional[Iterable["TestName"]] = None,
    scenario_label: Optional[str] = None,
    store: Optional[Union["CampaignStore", os.PathLike, str]] = None,
    resume: bool = False,
    on_checkpoint: Optional["CheckpointHook"] = None,
) -> ScenarioRun:
    """Legacy shim: run one scenario campaign through the session layer.

    Equivalent to submitting a :class:`repro.api.CampaignRequest` to a
    :class:`repro.api.Session` — which is what new code should do instead
    (same dataset, same ``result_digest``, plus a job handle and a result
    envelope).  The returned records are stamped with the scenario's name
    (or ``scenario_label``), and the dataset is a pure function of
    ``(scenario, config, hosts, seed, tests, shards)`` — executor choice and
    worker count never change it (see :mod:`repro.core.runner`).

    With ``store`` the run checkpoints each completed shard durably so an
    interrupted run can later be continued by :func:`resume_scenario` (or a
    :class:`repro.api.ResumeRequest`) from the store alone.
    """
    warnings.warn(
        "run_scenario() is a legacy entry point; submit a "
        "repro.api.CampaignRequest to a repro.api.Session instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api.requests import CampaignRequest
    from repro.api.session import Session

    request = CampaignRequest(
        scenario=scenario,
        config=config,
        hosts=hosts,
        seed=seed,
        shards=shards,
        tests=tuple(tests) if tests is not None else None,
        scenario_label=scenario_label,
        store=store,
        resume=resume,
        on_checkpoint=on_checkpoint,
    )
    with Session(backend=executor, max_workers=max_workers) as session:
        envelope = session.run(request)
    return ScenarioRun(
        scenario=envelope.meta["scenario_spec"], seed=seed, result=envelope.result
    )


def resume_scenario(
    store: Union["CampaignStore", os.PathLike, str],
    *,
    executor: str = EXECUTOR_PROCESS,
    max_workers: Optional[int] = None,
    on_checkpoint: Optional["CheckpointHook"] = None,
) -> ScenarioRun:
    """Legacy shim: continue an interrupted scenario run from its store.

    Equivalent to submitting a :class:`repro.api.ResumeRequest` — the
    preferred spelling.  The manifest's ``origin`` records the registry
    scenario, population size, and seed the run was started with; the
    population is rebuilt from those (a pure function, so the specs are
    identical), already-durable shards are loaded back, and only the missing
    shards execute.  The merged result is bit-identical — same
    :func:`~repro.core.runner.result_signature` — to the uninterrupted run.
    Executor choice is free: it never affects records.
    """
    warnings.warn(
        "resume_scenario() is a legacy entry point; submit a "
        "repro.api.ResumeRequest to a repro.api.Session instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api.requests import ResumeRequest
    from repro.api.session import Session

    with Session(backend=executor, max_workers=max_workers) as session:
        envelope = session.run(ResumeRequest(store=store, on_checkpoint=on_checkpoint))
    return ScenarioRun(
        scenario=envelope.meta["scenario_spec"],
        seed=envelope.meta["seed"],
        result=envelope.result,
    )


@dataclass(frozen=True, slots=True)
class MatrixCell:
    """One (scenario, OS) combination of a sweep."""

    scenario: NetworkScenario
    os_name: str = MIXED_OS

    @property
    def label(self) -> str:
        return f"{self.scenario.name}/{self.os_name}"

    def materialized_scenario(self) -> NetworkScenario:
        if self.os_name == MIXED_OS:
            return self.scenario
        return self.scenario.with_os(self.os_name)


@dataclass(frozen=True, slots=True)
class ScenarioMatrix:
    """A sweep grid: scenarios × host operating systems.

    ``os_names`` may include :data:`MIXED_OS` to keep a column with each
    scenario's own OS mix alongside homogeneous-OS columns.
    """

    scenarios: tuple[NetworkScenario, ...]
    os_names: tuple[str, ...] = (MIXED_OS,)

    @classmethod
    def of(
        cls,
        scenarios: Sequence[ScenarioLike],
        os_names: Sequence[str] = (MIXED_OS,),
    ) -> "ScenarioMatrix":
        """Build a matrix from scenario names/specs and OS profile names."""
        return cls(
            scenarios=tuple(resolve_scenario(s) for s in scenarios),
            os_names=tuple(os_names),
        )

    def cells(self) -> list[MatrixCell]:
        """All cells in row-major (scenario-major) order."""
        return [
            MatrixCell(scenario=scenario, os_name=os_name)
            for scenario in self.scenarios
            for os_name in self.os_names
        ]

    def __len__(self) -> int:
        return len(self.scenarios) * len(self.os_names)


@dataclass(slots=True)
class MatrixResult:
    """Every cell's run, keyed by its ``scenario/os`` label."""

    runs: dict[str, ScenarioRun]

    def results(self) -> dict[str, CampaignResult]:
        """The per-cell campaign datasets (the shape analysis slicing takes)."""
        return {label: run.result for label, run in self.runs.items()}

    def total_measurements(self) -> int:
        return sum(len(run.result.records) for run in self.runs.values())


def run_matrix(
    matrix: ScenarioMatrix,
    config: Optional[CampaignConfig] = None,
    *,
    hosts: Optional[int] = None,
    seed: int = 7,
    shards: int = 1,
    executor: str = EXECUTOR_PROCESS,
    max_workers: Optional[int] = None,
    tests: Optional[Iterable[TestName]] = None,
) -> MatrixResult:
    """Legacy shim: run every cell of the matrix through the session layer.

    Equivalent to submitting a :class:`repro.api.MatrixRequest`, the
    preferred spelling.  Each cell's seed is :func:`derive_cell_seed` of the
    base seed and the cell key, so adding or removing cells never changes
    the other cells' datasets.  Unlike the pre-session implementation, every
    cell's shards run as one stream on one warm worker pool.
    """
    warnings.warn(
        "run_matrix() is a legacy entry point; submit a "
        "repro.api.MatrixRequest to a repro.api.Session instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api.requests import MatrixRequest
    from repro.api.session import Session

    request = MatrixRequest(
        matrix=matrix,
        config=config,
        hosts=hosts,
        seed=seed,
        shards=shards,
        tests=tuple(tests) if tests is not None else None,
    )
    with Session(backend=executor, max_workers=max_workers) as session:
        envelope = session.run(request)
    return envelope.payload
