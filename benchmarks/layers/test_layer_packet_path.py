"""Layer microbenchmarks for the packet model and the simulated packet path.

Two cases, run with pytest-benchmark:

* building a bare ACK with ``Packet.tcp_packet`` plus its first
  ``total_length()``, the construction cost every simulated segment pays;
* one probe round trip on a one-host ``imc2002-survey`` testbed:
  ``send_data_at_offset(1)``, then ``wait_for_packets`` for the duplicate
  ACK.  This crosses packet construction, the path elements, the event
  loop, the host TCP stack and the probe's capture.

The cases claim nothing by themselves.  Compare medians and IQRs of two
commits measured on one machine in one session::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import pytest

from repro.core.probe_connection import ProbeConnection
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario
from repro.workloads.testbed import build_testbed

SEED = 1
REPLY_TIMEOUT = 1.0
PROBE = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")
ACK = TcpFlags.ACK


def test_build_bare_ack_with_total_length(benchmark):
    def build() -> int:
        header = TcpHeader(40000, 80, 1000, 2000, ACK, 65535)
        return Packet.tcp_packet(PROBE, SERVER, header).total_length()

    assert benchmark(build) == 40


@pytest.fixture
def established():
    scenario = get_scenario(LEGACY_SCENARIO).with_population(num_hosts=1)
    testbed = build_testbed(build_scenario_hosts(scenario, seed=SEED), seed=SEED)
    connection = ProbeConnection(testbed.probe, testbed.addresses()[0])
    connection.establish()
    return testbed.probe, connection


def test_probe_round_trip_on_survey_host(benchmark, established):
    probe, connection = established

    def round_trip():
        cursor = probe.capture_cursor()
        connection.send_data_at_offset(1)
        return probe.wait_for_packets(
            cursor, 1, REPLY_TIMEOUT, connection.local_port, connection.remote_addr
        )

    replies = benchmark(round_trip)
    assert replies[0].packet.tcp.ack == connection.state.remote_expected_seq
