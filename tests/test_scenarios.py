"""Tests for the declarative scenario subsystem: specs, registry, population
materialisation, matrix sweeps, and per-scenario analysis slicing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import stream_survey
from repro.api import CampaignRequest, MatrixRequest, Session
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL, result_signature
from repro.net.errors import SimulationError
from repro.scenarios import (
    LEGACY_SCENARIO,
    MIXED_OS,
    BurstyLossCondition,
    DiurnalCongestionCondition,
    NetworkScenario,
    PopulationSpec,
    RouteFlapCondition,
    ScenarioMatrix,
    build_scenario_hosts,
    derive_cell_seed,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sim.build import DiurnalJitterSpec, GilbertLossSpec, RouteFlapSpec
from repro.workloads.population import generate_population
from repro.workloads.testbed import build_testbed
import _analysis_oracle as oracle

SEED = 20260730

SMALL_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=4,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)


def _run(request):
    """Run one request on a serial session and return its envelope."""
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(request)


def _scenario_result(scenario, config=SMALL_CONFIG, *, hosts, shards):
    """One scenario campaign at the module seed, as its merged dataset."""
    return _run(
        CampaignRequest(scenario=scenario, config=config, hosts=hosts, seed=SEED, shards=shards)
    ).result


REQUIRED_SCENARIOS = (
    LEGACY_SCENARIO,
    "bursty-loss",
    "route-flap",
    "diurnal-congestion",
    "asymmetric-paths",
    "icmp-hostile",
    "load-balanced-heavy",
    "nat-timeout",
    "syn-filtered",
    "pmtud-blackhole",
    "icmp-policed",
    "ecn-bleached",
)

MIDDLEBOX_SCENARIOS = (
    "nat-timeout",
    "syn-filtered",
    "pmtud-blackhole",
    "icmp-policed",
    "ecn-bleached",
)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


def test_registry_contains_required_catalogue():
    names = scenario_names()
    for required in REQUIRED_SCENARIOS:
        assert required in names
    assert len(names) >= 7
    for name in names:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description


def test_registry_rejects_unknown_and_duplicate():
    with pytest.raises(SimulationError):
        get_scenario("no-such-scenario")
    with pytest.raises(SimulationError):
        register_scenario(NetworkScenario(name=LEGACY_SCENARIO))


def test_register_replace_allows_override():
    original = get_scenario(LEGACY_SCENARIO)
    try:
        replacement = original.renamed(LEGACY_SCENARIO, "override")
        register_scenario(replacement, replace=True)
        assert get_scenario(LEGACY_SCENARIO).description == "override"
    finally:
        register_scenario(original, replace=True)


# --------------------------------------------------------------------- #
# Spec composition
# --------------------------------------------------------------------- #


def test_scenario_composition_is_pure():
    base = get_scenario("bursty-loss")
    bigger = base.with_population(num_hosts=3)
    assert bigger.population.num_hosts == 3
    assert base.population.num_hosts == 50  # original untouched
    extended = base.with_conditions(RouteFlapCondition(fraction=0.5))
    assert len(extended.conditions) == len(base.conditions) + 1
    pinned = base.with_os("linux-2.4")
    assert pinned.population.os_mix == (("linux-2.4", 1.0),)
    renamed = base.renamed("bursty-loss-v2")
    assert renamed.name == "bursty-loss-v2"
    assert renamed.description == base.description


def test_scenario_validation():
    with pytest.raises(SimulationError):
        NetworkScenario(name="")
    with pytest.raises(SimulationError):
        NetworkScenario(name="bad", conditions=(BurstyLossCondition(fraction=1.5),))
    with pytest.raises(SimulationError):
        NetworkScenario(name="bad", conditions=(RouteFlapCondition(directions=("sideways",)),))


# --------------------------------------------------------------------- #
# Population materialisation
# --------------------------------------------------------------------- #


def test_legacy_scenario_reproduces_generate_population_exactly():
    """The acceptance criterion: imc2002-survey IS the legacy population."""
    scenario = get_scenario(LEGACY_SCENARIO)
    for seed in (7, SEED):
        assert build_scenario_hosts(scenario, seed=seed) == generate_population(
            PopulationSpec(), seed=seed
        )


def _population_digest(seed: int) -> str:
    """A canonical digest of the default population (repr of IEEE doubles is
    exact and platform-stable, so the digest pins every draw)."""
    import hashlib

    rows = []
    for spec in generate_population(PopulationSpec(), seed=seed):
        path = spec.path
        stripe = None
        if path.forward_striping is not None:
            s = path.forward_striping
            stripe = (
                s.num_links, s.link_rate_bps, s.queue_imbalance_scale,
                s.switch_probability, s.imbalance_probability,
            )
        rows.append(
            (
                spec.name, spec.address, spec.profile.name, spec.web_object_size,
                spec.icmp_enabled, spec.load_balancer_backends,
                path.forward_swap_probability, path.reverse_swap_probability,
                path.forward_loss, path.reverse_loss, path.propagation_delay, stripe,
            )
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_legacy_population_matches_golden_snapshot():
    """Pinned digests of the *pre-scenario* generator's output.

    ``generate_population`` now delegates to the scenario layer, so the
    spec-equality test above cannot catch a drift in the ported draw
    sequence.  These digests were computed from the pre-refactor generator;
    any change to the legacy draw order or values breaks them.
    """
    assert _population_digest(7) == (
        "f14a7d33dc6c47705b4be3b6aa92755c0e3fafcdcf1e77c773b00256de1edc4b"
    )
    assert _population_digest(2002) == (
        "470638120fb7fbfb30b6f8c9b6fc9e0abf37866beba1047f202d0e532c5c711a"
    )


def test_legacy_scenario_campaign_matches_generate_population_campaign():
    population = PopulationSpec(num_hosts=5, load_balanced_fraction=0.0)
    scenario = dataclasses.replace(get_scenario(LEGACY_SCENARIO), population=population)

    def campaign(specs):
        request = CampaignRequest(specs=tuple(specs), config=SMALL_CONFIG, seed=SEED, shards=2)
        return _run(request).result

    legacy = campaign(generate_population(population, seed=SEED))
    via_scenario = campaign(build_scenario_hosts(scenario, seed=SEED))
    assert result_signature(via_scenario) == result_signature(legacy)


def test_build_hosts_is_a_pure_function_of_spec_and_seed():
    scenario = get_scenario("route-flap").with_population(num_hosts=6)
    assert build_scenario_hosts(scenario, seed=3) == build_scenario_hosts(scenario, seed=3)
    assert build_scenario_hosts(scenario, seed=3) != build_scenario_hosts(scenario, seed=4)


def test_conditions_attach_expected_element_specs():
    hosts = build_scenario_hosts(
        NetworkScenario(
            name="all-conditions",
            conditions=(
                BurstyLossCondition(fraction=1.0, directions=("forward", "reverse")),
                RouteFlapCondition(fraction=1.0),
                DiurnalCongestionCondition(fraction=1.0, directions=("reverse",)),
            ),
            population=PopulationSpec(num_hosts=4),
        ),
        seed=1,
    )
    for host in hosts:
        forward = [type(c) for c in host.path.forward_conditions]
        reverse = [type(c) for c in host.path.reverse_conditions]
        assert forward == [GilbertLossSpec, RouteFlapSpec]
        assert reverse == [GilbertLossSpec, DiurnalJitterSpec]
    # Per-host parameters vary (each host draws from its own stream).
    flap_rates = {host.path.forward_conditions[1].flap_swap_probability for host in hosts}
    assert len(flap_rates) > 1


def test_conditions_do_not_perturb_legacy_draws():
    """Adding conditions must leave the static population untouched."""
    population = PopulationSpec(num_hosts=6)
    bare = build_scenario_hosts(NetworkScenario(name="bare", population=population), seed=9)
    dressed = build_scenario_hosts(
        NetworkScenario(
            name="dressed",
            population=population,
            conditions=(RouteFlapCondition(fraction=1.0),),
        ),
        seed=9,
    )
    for before, after in zip(bare, dressed):
        stripped = dataclasses.replace(after.path, forward_conditions=(), reverse_conditions=())
        assert dataclasses.replace(after, path=stripped) == before


def test_with_os_pins_every_host_profile():
    scenario = get_scenario("icmp-hostile").with_os("windows-2000").with_population(num_hosts=5)
    hosts = build_scenario_hosts(scenario, seed=2)
    assert {host.profile.name for host in hosts} == {"windows-2000"}


def test_fraction_zero_condition_touches_no_host():
    hosts = build_scenario_hosts(
        NetworkScenario(
            name="untouched",
            population=PopulationSpec(num_hosts=5),
            conditions=(BurstyLossCondition(fraction=0.0),),
        ),
        seed=5,
    )
    assert all(not host.path.forward_conditions for host in hosts)


def test_scenario_hosts_build_into_working_testbeds():
    for name in ("bursty-loss", "route-flap", "diurnal-congestion"):
        scenario = get_scenario(name).with_population(num_hosts=2)
        testbed = build_testbed(build_scenario_hosts(scenario, seed=4), seed=4)
        assert len(testbed.addresses()) == 2


# --------------------------------------------------------------------- #
# End-to-end runs and determinism
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", REQUIRED_SCENARIOS)
def test_every_named_scenario_runs_end_to_end(name):
    result = _scenario_result(name, hosts=4, shards=2)
    assert result.scenario == name
    assert len(result.records) == 4 * len(SMALL_CONFIG.tests)
    assert all(record.scenario == name for record in result.records)
    comparison = stream_survey(result.records, result.host_addresses).comparison()
    assert [item.scenario for item in comparison.slices] == [name]
    assert name in comparison.to_table()


def test_scenario_campaign_is_deterministic_across_shard_counts():
    scenario = get_scenario("asymmetric-paths").with_population(load_balanced_fraction=0.0)
    signatures = {
        result_signature(_scenario_result(scenario, hosts=6, shards=shards))
        for shards in (1, 2, 5)
    }
    assert len(signatures) == 1


@pytest.mark.parametrize("name", MIDDLEBOX_SCENARIOS)
def test_middlebox_scenarios_are_shard_invariant(name):
    """The stateful middleboxes (NAT tables, token buckets) keep their timing
    relative to per-host packet arrivals, so regrouping hosts into shards must
    not change a single measurement."""
    signatures = {
        result_signature(_scenario_result(name, hosts=4, shards=shards)) for shards in (1, 2, 3)
    }
    assert len(signatures) == 1


def test_matrix_cells_cross_scenarios_and_os():
    matrix = ScenarioMatrix.of(["route-flap", LEGACY_SCENARIO], [MIXED_OS, "freebsd-4.4"])
    assert len(matrix) == 4
    labels = [cell.label for cell in matrix.cells()]
    assert labels == [
        "route-flap/mixed",
        "route-flap/freebsd-4.4",
        f"{LEGACY_SCENARIO}/mixed",
        f"{LEGACY_SCENARIO}/freebsd-4.4",
    ]
    pinned = matrix.cells()[1].materialized_scenario()
    assert pinned.population.os_mix == (("freebsd-4.4", 1.0),)


def test_cell_seed_depends_only_on_cell_key():
    assert derive_cell_seed(7, "a", "x") == derive_cell_seed(7, "a", "x")
    assert derive_cell_seed(7, "a", "x") != derive_cell_seed(7, "a", "y")
    assert derive_cell_seed(7, "a", "x") != derive_cell_seed(8, "a", "x")


def test_matrix_request_is_reproducible_and_stamped():
    request = MatrixRequest(
        matrix=ScenarioMatrix.of(["bursty-loss", "icmp-hostile"], [MIXED_OS]),
        config=SMALL_CONFIG,
        hosts=3,
        seed=SEED,
        shards=2,
    )
    first, second = _run(request).payload, _run(request).payload
    assert set(first.runs) == {"bursty-loss/mixed", "icmp-hostile/mixed"}
    for label, result in first.runs.items():
        assert result.scenario == label
        assert result_signature(result) == result_signature(second.runs[label])
    assert first.total_measurements() == 2 * 3 * len(SMALL_CONFIG.tests)


# --------------------------------------------------------------------- #
# Analysis slicing
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sweep_results():
    config = CampaignConfig(
        rounds=3,
        samples_per_measurement=5,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    return {
        name: _scenario_result(name, config, hosts=4, shards=2)
        for name in (LEGACY_SCENARIO, "diurnal-congestion")
    }


@pytest.fixture(scope="module")
def sweep_survey(sweep_results):
    return stream_survey(
        record for result in sweep_results.values() for record in result.records
    )


def test_scenario_slices_key_each_dataset_by_its_stamp(sweep_results, sweep_survey):
    slices = sweep_survey.scenario_slices()
    assert list(slices) == list(sweep_results)
    for name, slice_ in slices.items():
        assert slice_.records_observed == len(sweep_results[name].records)
        assert slice_.hosts == sweep_results[name].host_addresses


def test_compare_scenarios_table_lists_each_slice(sweep_results, sweep_survey):
    comparison = sweep_survey.comparison()
    table = comparison.to_table()
    for name in sweep_results:
        assert name in table
    assert table == oracle.compare_scenarios(sweep_results).to_table()
    # Neither campaign ran the dual-connection test, so no slice claims
    # any host eligible for it.
    assert [item.dual_connection_eligible for item in comparison.slices] == [None, None]


def test_fig5_and_agreement_slicing(sweep_results, sweep_survey):
    for name, slice_ in sweep_survey.scenario_slices().items():
        fig5 = slice_.fig5()
        assert 0.0 <= fig5.fraction_with_reordering <= 1.0
        assert fig5.per_path_rates == oracle.build_fig5_cdf(sweep_results[name]).per_path_rates
        assert slice_.agreement(min_pairs=2) == oracle.compute_agreement(
            sweep_results[name], min_pairs=2
        )
