"""Workload construction: simulated testbeds, host populations, and the
controlled-validation sweep.

The paper's experiments need three kinds of environment:

* a controlled testbed — one remote host behind a router that swaps adjacent
  packets with a configured probability in each direction (§IV-A);
* an "Internet" — a population of hosts with diverse operating systems,
  middleboxes, and path reordering processes (§IV-B);
* a path whose reordering probability depends on inter-packet spacing, for
  the time-domain study (§IV-C).

This package builds all three from declarative specs.
"""

from repro.workloads.population import (
    PopulationSpec,
    generate_population,
    partition_specs,
)
from repro.workloads.testbed import HostSpec, PathSpec, StripingSpec, Testbed, build_testbed
from repro.workloads.validation import (
    ValidationCell,
    ValidationRunResult,
    ValidationSummary,
    paper_rate_grid,
    run_validation_cell,
    run_validation_sweep,
)

__all__ = [
    "HostSpec",
    "PathSpec",
    "PopulationSpec",
    "StripingSpec",
    "Testbed",
    "ValidationCell",
    "ValidationRunResult",
    "ValidationSummary",
    "build_testbed",
    "generate_population",
    "paper_rate_grid",
    "partition_specs",
    "run_validation_cell",
    "run_validation_sweep",
]
