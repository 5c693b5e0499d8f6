"""Layer microbenchmarks for the four measurement techniques.

One case per technique, run with pytest-benchmark: one measurement of
``SAMPLES`` samples (the data-transfer test reports at most ``SAMPLES`` pairs
of one whole transfer) through ``Prober.run`` against the one host of an
``imc2002-survey`` population.  Each round gets a fresh testbed from
``benchmark.pedantic(setup=...)``, so every round measures the same
simulation from the same state and the testbed's construction is not timed.
A round crosses the technique's own logic, the probe's capture waits, the
host TCP stack, the path elements and the event loop.

The middlebox cases price the two techniques a sweep runs, single-connection
and SYN, on one host of each middlebox scenario: the first host of the
scenario's 4-host population (seed 2002) that carries its element, a NAT, a
SYN firewall, ECN marking with bleaching, or a load balancer.  Against the
survey host's cases they price the path elements and middleboxes.

The cases claim nothing by themselves.  Compare medians and IQRs of two
commits measured on one machine in one session::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import pytest

from repro.core.prober import Prober, TestName
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario
from repro.sim.build import EcnBleachSpec, EcnMarkSpec, NatSpec, SynFirewallSpec
from repro.workloads.testbed import build_testbed

SEED = 1
SAMPLES = 10
ROUNDS = 200
POPULATION_SEED = 2002

MIDDLEBOX_HOSTS = {
    "nat-timeout": lambda spec: any(isinstance(box, NatSpec) for box in spec.path.middleboxes),
    "syn-filtered": lambda spec: any(
        isinstance(element, SynFirewallSpec) for element in spec.path.forward_conditions
    ),
    "ecn-bleached": lambda spec: {EcnMarkSpec, EcnBleachSpec}
    <= {type(element) for element in spec.path.forward_conditions},
    "load-balanced-heavy": lambda spec: spec.load_balancer_backends >= 2,
}
"""Each middlebox scenario and the test of whether a host carries its element."""


@pytest.fixture(scope="module")
def survey_host():
    scenario = get_scenario(LEGACY_SCENARIO).with_population(num_hosts=1)
    return build_scenario_hosts(scenario, seed=SEED)


def _measure_one(benchmark, specs, test):
    def fresh_testbed():
        testbed = build_testbed(specs, seed=SEED)
        return (Prober(testbed.probe, samples_per_measurement=SAMPLES), testbed.addresses()[0]), {}

    def measure(prober, address):
        return prober.run(test, address)

    report = benchmark.pedantic(measure, setup=fresh_testbed, rounds=ROUNDS, iterations=1)
    assert report.succeeded
    assert report.result.sample_count() == SAMPLES


@pytest.mark.parametrize("test", TestName.all(), ids=lambda test: test.value)
def test_one_measurement_on_survey_host(benchmark, survey_host, test):
    _measure_one(benchmark, survey_host, test)


@pytest.mark.parametrize("scenario", sorted(MIDDLEBOX_HOSTS))
@pytest.mark.parametrize("test", (TestName.SINGLE_CONNECTION, TestName.SYN), ids=lambda test: test.value)
def test_one_measurement_behind_a_middlebox(benchmark, scenario, test):
    population = build_scenario_hosts(
        get_scenario(scenario).with_population(num_hosts=4), seed=POPULATION_SEED
    )
    host = next(spec for spec in population if MIDDLEBOX_HOSTS[scenario](spec))
    _measure_one(benchmark, [host], test)
