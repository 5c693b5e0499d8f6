"""The named-scenario registry.

Scenarios are registered under their ``name`` and looked up by it from the
CLI (``python -m repro run --scenario <name>``), the sweep matrix, tests,
and benchmarks.  The built-in catalogue covers the paper's survey population
(``imc2002-survey`` — the legacy ``generate_population`` conditions, bit for
bit) plus the path pathologies the survey's methodology is meant to be
robust against.  User code can register additional scenarios at import time
with :func:`register_scenario`.
"""

from __future__ import annotations

from repro.net.errors import SimulationError
from repro.scenarios.spec import (
    FORWARD,
    REVERSE,
    BurstyLossCondition,
    DiurnalCongestionCondition,
    EcnBleachCondition,
    EcnMarkCondition,
    IcmpPolicerCondition,
    NatTimeoutCondition,
    NetworkScenario,
    PmtudBlackHoleCondition,
    PopulationSpec,
    RouteFlapCondition,
    SynFirewallCondition,
)

LEGACY_SCENARIO = "imc2002-survey"

_REGISTRY: dict[str, NetworkScenario] = {}


def register_scenario(scenario: NetworkScenario, replace: bool = False) -> NetworkScenario:
    """Register ``scenario`` under its name; returns it for chaining."""
    if scenario.name in _REGISTRY and not replace:
        raise SimulationError(f"scenario already registered: {scenario.name!r}")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> NetworkScenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimulationError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> tuple[str, ...]:
    """Names of all registered scenarios, in registration order."""
    return tuple(_REGISTRY)


def list_scenarios() -> tuple[NetworkScenario, ...]:
    """All registered scenarios, in registration order."""
    return tuple(_REGISTRY.values())


# --------------------------------------------------------------------- #
# Built-in catalogue
# --------------------------------------------------------------------- #

register_scenario(
    NetworkScenario(
        name=LEGACY_SCENARIO,
        description=(
            "The paper's §IV-B survey population: static per-path adjacent-swap "
            "and striping processes, the 2002 OS mix, 16% load-balanced sites. "
            "Reproduces the historical generate_population output exactly."
        ),
    )
)

register_scenario(
    NetworkScenario(
        name="bursty-loss",
        description=(
            "Loss arrives in Gilbert-Elliott episodes on ~70% of paths instead "
            "of the survey's thin independent loss, stressing sample-loss "
            "handling in every technique."
        ),
        population=PopulationSpec(loss_probability=0.0005),
        conditions=(
            BurstyLossCondition(fraction=0.7, directions=(FORWARD, REVERSE)),
        ),
    )
)

register_scenario(
    NetworkScenario(
        name="route-flap",
        description=(
            "Mostly quiet paths whose reordering spikes during randomly timed "
            "route-flap episodes; per-measurement rates swing between near "
            "zero and flap-level."
        ),
        population=PopulationSpec(
            reordering_path_fraction=0.2, mean_swap_probability=0.02
        ),
        conditions=(RouteFlapCondition(fraction=0.6),),
    )
)

register_scenario(
    NetworkScenario(
        name="diurnal-congestion",
        description=(
            "Queue-contention jitter follows a compressed daily cycle, so "
            "reordering waxes and wanes with simulated time of day on most "
            "paths."
        ),
        conditions=(
            DiurnalCongestionCondition(fraction=0.8, directions=(FORWARD, REVERSE)),
        ),
    )
)

register_scenario(
    NetworkScenario(
        name="asymmetric-paths",
        description=(
            "Strongly asymmetric severity: forward-path reordering ~8x the "
            "reverse path, on a larger fraction of paths than the survey saw."
        ),
        population=PopulationSpec(
            reordering_path_fraction=0.6,
            mean_swap_probability=0.06,
            forward_bias=8.0,
        ),
    )
)

register_scenario(
    NetworkScenario(
        name="icmp-hostile",
        description=(
            "Most of the population filters ICMP (the environment that defeats "
            "Bennett-style ping measurement while the paper's TCP-based "
            "techniques keep working)."
        ),
        population=PopulationSpec(icmp_filtered_fraction=0.85),
    )
)

register_scenario(
    NetworkScenario(
        name="load-balanced-heavy",
        description=(
            "A majority of sites sit behind transparent port-hashing load "
            "balancers, shrinking the dual-connection-eligible population the "
            "way the paper's popular sites did."
        ),
        population=PopulationSpec(load_balanced_fraction=0.6),
    )
)

# ------------------------------------------------------------------ #
# The hostile-internet middlebox taxonomy (PR 6): each scenario puts a
# majority of the population behind one middlebox class so its probe
# breakage is visible in eligibility/error rates, not lost in noise.
# ------------------------------------------------------------------ #

register_scenario(
    NetworkScenario(
        name="nat-timeout",
        description=(
            "Most hosts sit behind a port-rewriting NAT whose idle timeout "
            "is short relative to connection lifetimes: slow paths lose "
            "their mapping mid-connection and replies are silently dropped."
        ),
        conditions=(NatTimeoutCondition(fraction=0.7),),
    )
)

register_scenario(
    NetworkScenario(
        name="syn-filtered",
        description=(
            "A stateful SYN-rate-limiting firewall guards most sites: the "
            "SYN test's paired probes and the dual-connection test's second "
            "handshake get eaten while single-connection probing survives."
        ),
        conditions=(SynFirewallCondition(fraction=0.7),),
    )
)

register_scenario(
    NetworkScenario(
        name="pmtud-blackhole",
        description=(
            "Reverse paths cross a silent small-MTU hop that swallows DF "
            "data segments without emitting fragmentation-needed: bulk "
            "transfer starves while handshakes complete normally."
        ),
        conditions=(PmtudBlackHoleCondition(fraction=0.6, directions=(REVERSE,)),),
    )
)

register_scenario(
    NetworkScenario(
        name="icmp-policed",
        description=(
            "Token-bucket ICMP policing on most reverse paths: TCP-based "
            "probing is untouched but ping-style (Bennett et al.) baselines "
            "silently lose the bulk of their samples."
        ),
        conditions=(IcmpPolicerCondition(fraction=0.8, directions=(REVERSE,)),),
    )
)

register_scenario(
    NetworkScenario(
        name="ecn-bleached",
        description=(
            "Traffic is ECN-marked at the probe edge and bleached mid-path "
            "on most routes, erasing the codepoint end hosts would need to "
            "negotiate ECN (measurable via path element counters)."
        ),
        conditions=(
            EcnMarkCondition(fraction=0.9, directions=(FORWARD, REVERSE)),
            EcnBleachCondition(fraction=0.75, directions=(FORWARD, REVERSE)),
        ),
    )
)
