"""Tests for testbed construction, population generation, and validation harness."""

from __future__ import annotations

import pytest

from repro.core.prober import TestName
from repro.host.os_profiles import OS_PROFILES
from repro.net.errors import SimulationError, TopologyError
from repro.net.flow import parse_address
from repro.workloads.population import PopulationSpec, generate_population, popular_site_specs
from repro.workloads.testbed import HostSpec, PathSpec, StripingSpec, Testbed, build_testbed
from repro.workloads.validation import ValidationCell, paper_rate_grid, run_validation_cell


def test_testbed_rejects_duplicate_sites():
    testbed = Testbed(seed=1)
    spec = HostSpec(name="a", address=parse_address("10.1.0.2"))
    testbed.add_site(spec)
    with pytest.raises(TopologyError):
        testbed.add_site(spec)
    with pytest.raises(TopologyError):
        testbed.site("missing")


def test_testbed_site_handles_expose_traces_and_hosts(reordering_testbed):
    handle = reordering_testbed.site("target")
    assert handle.hosts[0].address == reordering_testbed.address_of("target")
    assert handle.forward_trace.point.endswith("forward-arrival")
    assert handle.reverse_trace.point.endswith("reverse-egress")
    assert reordering_testbed.addresses() == [reordering_testbed.address_of("target")]


def test_build_testbed_with_load_balancer_and_striping():
    specs = [
        HostSpec(
            name="balanced",
            address=parse_address("10.8.0.2"),
            load_balancer_backends=3,
            path=PathSpec(forward_striping=StripingSpec(), reverse_striping=StripingSpec()),
        )
    ]
    testbed = build_testbed(specs, seed=9)
    handle = testbed.site("balanced")
    assert handle.load_balancer is not None
    assert len(handle.hosts) == 3
    assert all(host.address == specs[0].address for host in handle.hosts)


def test_generate_population_is_deterministic_and_diverse():
    spec = PopulationSpec(num_hosts=50)
    first = generate_population(spec, seed=7)
    second = generate_population(spec, seed=7)
    assert [h.address for h in first] == [h.address for h in second]
    assert [h.profile.name for h in first] == [h.profile.name for h in second]

    assert len(first) == 50
    assert len({h.address for h in first}) == 50
    profiles = {h.profile.name for h in first}
    assert len(profiles) >= 4
    assert all(h.profile.name in OS_PROFILES for h in first)

    balanced = sum(1 for h in first if h.load_balancer_backends >= 2)
    assert 1 <= balanced <= 20
    reordering = sum(1 for h in first if h.path.forward_swap_probability > 0 or h.path.forward_striping)
    assert reordering >= 10


def test_generate_population_validates_size():
    with pytest.raises(SimulationError):
        generate_population(PopulationSpec(num_hosts=0))


def test_popular_sites_are_load_balanced():
    sites = popular_site_specs()
    assert len(sites) == 3
    assert all(site.load_balancer_backends >= 2 for site in sites)
    assert all(site.path.forward_swap_probability > 0 for site in sites)


def test_paper_rate_grid_matches_paper():
    assert paper_rate_grid() == (0.01, 0.03, 0.05, 0.10, 0.15, 0.40)


@pytest.mark.parametrize(
    "test",
    [TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN, TestName.DATA_TRANSFER],
)
def test_validation_cell_accuracy_for_every_technique(test):
    cell = ValidationCell(test=test, forward_rate=0.10, reverse_rate=0.10, samples=60)
    run = run_validation_cell(cell, seed=17)
    assert run.measurement is not None, run.error
    assert run.forward.accuracy == 1.0
    assert run.reverse.accuracy == 1.0
    assert run.compared_samples > 0
    if test is not TestName.DATA_TRANSFER:
        assert run.forward.compared > 0


def test_validation_cell_describe():
    cell = ValidationCell(test=TestName.SYN, forward_rate=0.05, reverse_rate=0.4)
    assert "syn" in cell.describe()
    assert "5%" in cell.describe()
