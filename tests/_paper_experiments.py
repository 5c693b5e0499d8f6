"""The paper's experiments E1–E8, each defined once.

Every function runs one experiment of the paper's evaluation and returns its
raw results.  ``tests/test_paper_experiments.py`` asserts the paper's shape
on them inside tier-1; ``benchmarks/test_bench_e*.py`` time the same runs and
print the tables for side-by-side comparison with the paper.  Each run is a
pure function of its seeds.
"""

from __future__ import annotations

from repro.analysis.agreement import AgreementMatrix
from repro.analysis.streaming import stream_survey
from repro.baselines.bennett import BennettProbe
from repro.baselines.paxson import PaxsonStudy
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dual_connection import DualConnectionTest
from repro.core.prober import Prober, TestName
from repro.core.sample import Direction, SampleOutcome
from repro.core.single_connection import SingleConnectionTest
from repro.core.timeseries import SpacingSweep
from repro.host.os_profiles import LEGACY_DELAYED_ACK, OPENBSD_30
from repro.net.flow import parse_address
from repro.workloads.population import PopulationSpec, generate_population, popular_site_specs
from repro.workloads.testbed import HostSpec, PathSpec, StripingSpec, Testbed, build_testbed
from repro.workloads.validation import run_validation_sweep

# --------------------------------------------------------------------- #
# E1 — controlled validation table (paper §IV-A)
# --------------------------------------------------------------------- #

E1_RATES = (0.01, 0.02, 0.05, 0.10, 0.20, 0.40)
E1_SAMPLES_PER_CELL = 100


def e1_controlled_validation():
    """The paper-size §IV-A grid: a 6x6 grid of forward/reverse swap rates
    for each packet-pair test plus the data-transfer test's reverse rates,
    100 samples per cell, 114 runs checked against trace ground truth."""
    return run_validation_sweep(
        tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
        rates=E1_RATES,
        samples_per_cell=E1_SAMPLES_PER_CELL,
        seed=11,
        include_data_transfer=True,
    )


# --------------------------------------------------------------------- #
# E2 — Figure 5: CDF of per-path reordering rates
# --------------------------------------------------------------------- #

E2_NUM_HOSTS = 14


def e2_fig5_campaign():
    """A 14-host synthetic population and a short single-connection + SYN
    campaign (the paper: 50 hosts probed for 20 days)."""
    population = PopulationSpec(
        num_hosts=E2_NUM_HOSTS,
        reordering_path_fraction=0.55,
        mean_swap_probability=0.06,
    )
    specs = generate_population(population, seed=23)
    testbed = build_testbed(specs, seed=23)
    config = CampaignConfig(
        rounds=3,
        samples_per_measurement=10,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    return Campaign(testbed.probe, testbed.addresses(), config).run()


# --------------------------------------------------------------------- #
# E3 — Figure 6: single-connection vs. SYN test on a load-balanced site
# --------------------------------------------------------------------- #

E3_ROUNDS = 6


def e3_load_balanced_site():
    """A campaign of single-connection and SYN tests against one
    load-balanced popular site, plus four dual-connection attempts.

    Returns ``(campaign, dual_reports, address)``.
    """
    specs = popular_site_specs(seed=31)[:1]
    testbed = build_testbed(specs, seed=31)
    address = specs[0].address
    config = CampaignConfig(
        rounds=E3_ROUNDS,
        samples_per_measurement=15,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.5,
        inter_round_gap=5.0,
    )
    campaign = Campaign(testbed.probe, [address], config).run()
    prober = Prober(testbed.probe, samples_per_measurement=8)
    dual_reports = [prober.run(TestName.DUAL_CONNECTION, address) for _ in range(4)]
    return campaign, dual_reports, address


# --------------------------------------------------------------------- #
# E4 — Figure 7: reordering probability vs. inter-packet spacing
# --------------------------------------------------------------------- #

E4_SPACINGS = [0.0, 10e-6, 25e-6, 50e-6, 100e-6, 150e-6, 200e-6, 250e-6, 300e-6]


def e4_spacing_sweep():
    """A dual-connection spacing sweep over a striped path, 250 samples per
    point (the paper: 1000 samples per point, 1 us steps below 200 us)."""
    testbed = Testbed(seed=41)
    address = parse_address("10.30.0.2")
    testbed.add_site(
        HostSpec(
            name="striped-path",
            address=address,
            path=PathSpec(
                propagation_delay=0.002,
                access_bandwidth_bps=None,
                forward_striping=StripingSpec(queue_imbalance_scale=30e-6, switch_probability=0.5),
            ),
        )
    )
    sweep = SpacingSweep(
        test_factory=lambda: DualConnectionTest(testbed.probe, address),
        direction=Direction.FORWARD,
        samples_per_point=250,
    )
    return sweep.run(E4_SPACINGS)


# --------------------------------------------------------------------- #
# E5 — pairwise agreement between techniques (paper §IV-B)
# --------------------------------------------------------------------- #

E5_NUM_HOSTS = 8


def e5_pairwise_agreement() -> AgreementMatrix:
    """Single-connection, SYN and data-transfer tests over 8 hosts for 5
    rounds, compared pairwise at 99.9% confidence."""
    spec = PopulationSpec(
        num_hosts=E5_NUM_HOSTS, reordering_path_fraction=0.7, load_balanced_fraction=0.0
    )
    specs = generate_population(spec, seed=53)
    testbed = build_testbed(specs, seed=53)
    config = CampaignConfig(
        rounds=5,
        samples_per_measurement=12,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN, TestName.DATA_TRANSFER),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    campaign = Campaign(testbed.probe, testbed.addresses(), config).run()
    return stream_survey(campaign.records, campaign.host_addresses).agreement(
        pairs=[
            (TestName.SINGLE_CONNECTION, TestName.SYN),
            (TestName.SINGLE_CONNECTION, TestName.DATA_TRANSFER),
            (TestName.SYN, TestName.DATA_TRANSFER),
        ],
        confidence=0.999,
        min_pairs=3,
    )


# --------------------------------------------------------------------- #
# E6 — host eligibility and reordering prevalence (paper §IV-B)
# --------------------------------------------------------------------- #

E6_NUM_HOSTS = 20


def e6_host_eligibility():
    """A 20-host population with load balancers and zero/random-IPID stacks,
    probed by the three packet-pair tests.  Returns ``(specs, campaign)``."""
    spec = PopulationSpec(
        num_hosts=E6_NUM_HOSTS,
        load_balanced_fraction=0.16,
        reordering_path_fraction=0.5,
        mean_swap_probability=0.06,
    )
    specs = generate_population(spec, seed=61)
    testbed = build_testbed(specs, seed=61)
    config = CampaignConfig(
        rounds=2,
        samples_per_measurement=12,
        tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    campaign = Campaign(testbed.probe, testbed.addresses(), config).run()
    return specs, campaign


# --------------------------------------------------------------------- #
# E7 — prior-work baselines on the same simulated path (paper §II)
# --------------------------------------------------------------------- #

E7_FORWARD_RATE = 0.12
E7_REVERSE_RATE = 0.04


def e7_baselines():
    """The dual-connection test, a Paxson-style passive transfer study and
    Bennett-style ICMP bursts of 5 and 20 packets, all on one path.

    Returns ``(dual, paxson, bennett_small, bennett_large)``.
    """
    testbed = Testbed(seed=71)
    address = parse_address("10.40.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            path=PathSpec(
                forward_swap_probability=E7_FORWARD_RATE,
                reverse_swap_probability=E7_REVERSE_RATE,
                propagation_delay=0.002,
            ),
            web_object_size=64 * 1024,
        )
    )
    dual = DualConnectionTest(testbed.probe, address).run(num_samples=120)
    paxson = PaxsonStudy(testbed.probe).run([address], sessions_per_host=4)
    bennett_small = BennettProbe(testbed.probe, burst_size=5).run(address, bursts=40)
    bennett_large = BennettProbe(testbed.probe, burst_size=20, payload_size=512).run(address, bursts=20)
    return dual, paxson, bennett_small, bennett_large


# --------------------------------------------------------------------- #
# E8 — ablations of the design decisions D1, D2 and D4
# --------------------------------------------------------------------- #


def _single_connection_order_ablation() -> dict[bool, float]:
    """D1: fraction of usable samples with each send order on a legacy stack."""
    results = {}
    for reversed_order in (True, False):
        testbed = Testbed(seed=81)
        address = parse_address("10.50.0.2")
        testbed.add_site(
            HostSpec(
                name="legacy",
                address=address,
                profile=LEGACY_DELAYED_ACK,
                path=PathSpec(forward_swap_probability=0.15, propagation_delay=0.002),
            )
        )
        test = SingleConnectionTest(
            testbed.probe, address, reversed_order=reversed_order, sample_timeout=0.4
        )
        measurement = test.run(num_samples=40)
        results[reversed_order] = (
            measurement.valid_samples(Direction.FORWARD) / measurement.sample_count()
        )
    return results


def _ipid_validation_ablation() -> tuple[int, int]:
    """D2: spurious samples accepted from a random-IPID host without validation."""
    testbed = Testbed(seed=82)
    address = parse_address("10.50.0.3")
    testbed.add_site(
        HostSpec(
            name="openbsd",
            address=address,
            profile=OPENBSD_30,
            path=PathSpec(propagation_delay=0.002),
        )
    )
    unvalidated = DualConnectionTest(testbed.probe, address, validate_ipid=False).run(num_samples=60)
    spurious = sum(
        1 for sample in unvalidated.samples if sample.forward is SampleOutcome.REORDERED
    )
    return spurious, unvalidated.sample_count()


def _packet_size_ablation() -> dict[str, float]:
    """D4: forward pair-exchange rate for minimum-sized back-to-back pairs,
    and for pairs spaced by the gap a 1400-byte payload's serialization adds
    on the 100 Mb/s access link (the probes themselves are fixed-size)."""
    rates = {}
    for label, payload in (("minimum-sized", 1), ("full-sized", 1400)):
        testbed = Testbed(seed=83)
        address = parse_address("10.50.0.4")
        testbed.add_site(
            HostSpec(
                name="striped",
                address=address,
                path=PathSpec(
                    propagation_delay=0.001,
                    access_bandwidth_bps=100e6,
                    forward_striping=StripingSpec(queue_imbalance_scale=40e-6),
                ),
            )
        )
        measurement = DualConnectionTest(testbed.probe, address).run(num_samples=150)
        if label == "minimum-sized":
            rates[label] = measurement.reordering_rate(Direction.FORWARD) or 0.0
        else:
            gap = (payload + 40) * 8 / 100e6
            spaced = DualConnectionTest(testbed.probe, address).run(num_samples=150, spacing=gap)
            rates[label] = spaced.reordering_rate(Direction.FORWARD) or 0.0
    return rates


def e8_ablations():
    """Returns ``(order_results, (spurious, total), size_rates)``."""
    return (
        _single_connection_order_ablation(),
        _ipid_validation_ablation(),
        _packet_size_ablation(),
    )
