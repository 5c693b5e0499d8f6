"""Stop-event equivalence of the data-transfer receive loop against its oracle.

``RescanningDataTransferTest`` keeps the original receive loop verbatim: every
ACK round re-filters every packet captured since the transfer began (before
the wait, on each capture wake, and after it), so a transfer costs time
quadratic in its length.  The library's loop folds each round's wait matches.
Both must see the same segments, stop the simulator on the same event and run
the same number of events, on every path the grid below builds and on the
striped, swapping, lossy paths of the ``imc2002-survey`` population.  A capped
measurement must report the oracle's full sample list cut to the cap, after
the same simulation.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.data_transfer import DataTransferTest, ReceivedSegment
from repro.core.probe_connection import ProbeConnection
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.net.seqnum import seq_add, seq_gt
from repro.scenarios import LEGACY_SCENARIO, build_scenario_hosts, get_scenario
from repro.workloads.testbed import HostSpec, PathSpec, Testbed

ADDRESS = parse_address("10.5.0.2")


class RescanningDataTransferTest(DataTransferTest):
    """The receive loop before capture consumption became incremental (oracle)."""

    def _receive_transfer(self, connection: ProbeConnection, cursor: int) -> list[ReceivedSegment]:
        """Drive the transfer, acknowledging the largest sequence number seen."""
        segments: list[ReceivedSegment] = []
        seen_serials: set[int] = set()
        highest_ack = connection.state.rcv_nxt
        deadline = self.probe.sim.now + self.transfer_timeout

        while self.probe.sim.now < deadline and len(segments) < self.max_segments:
            before = len(self._data_packets(connection, cursor))
            arrived = self.probe.wait_for_predicate(
                lambda: len(self._data_packets(connection, cursor)) > before,
                timeout=self.quiet_period,
            )
            if not arrived:
                break
            for captured in self._data_packets(connection, cursor):
                if captured.serial in seen_serials:
                    continue
                seen_serials.add(captured.serial)
                tcp = captured.packet.tcp
                assert tcp is not None
                length = len(captured.packet.payload)
                segments.append(
                    ReceivedSegment(
                        seq=tcp.seq,
                        length=length,
                        time=captured.time,
                        serial=captured.serial,
                        uid=captured.packet.uid,
                    )
                )
                segment_end = seq_add(tcp.seq, length)
                if seq_gt(segment_end, highest_ack):
                    highest_ack = segment_end
            # Acknowledge the largest sequence number received so far so the
            # server keeps sending even if intermediate data was lost.
            connection.state.rcv_nxt = highest_ack
            connection.send_ack(highest_ack)
        return segments

    def _data_packets(self, connection: ProbeConnection, cursor: int):
        packets = []
        for captured in self.probe.tcp_packets_since(
            cursor, local_port=connection.local_port, remote_addr=self.remote_addr
        ):
            tcp = captured.packet.tcp
            assert tcp is not None
            if captured.packet.payload and not tcp.has(TcpFlags.SYN) and not tcp.has(TcpFlags.RST):
                packets.append(captured)
        return packets


# reverse-swap probability x loss (both directions) x mss x advertised window
# x propagation delay.  A zero-delay path with no access-link serialisation
# delivers the server's reply inside the probe's own send, so a segment can be
# captured between one round's fold and the next round's wait.
GRID = list(
    itertools.product((0.0, 0.2, 0.5), (0.0, 0.05, 0.2), (128, 536), (512, 4096), (0.002, 0.0))
)


def _case_id(case: tuple) -> str:
    return "rev{}-loss{}-mss{}-win{}-delay{}".format(*case)


def _grid_case(case: tuple) -> tuple[PathSpec, int, int]:
    reverse, loss, mss, window, delay = case
    path = PathSpec(
        reverse_swap_probability=reverse,
        forward_loss=loss,
        reverse_loss=loss,
        propagation_delay=delay,
        access_bandwidth_bps=None if delay == 0.0 else 100e6,
    )
    return path, mss, window


def _survey_paths() -> list[PathSpec]:
    """Paths of the survey population as ``path_element_specs`` builds them.

    Two heavy-reordering paths (forward striping plus swap both ways) and two
    swap-only paths, all with the scenario's loss on both directions.
    """
    scenario = get_scenario(LEGACY_SCENARIO).with_population(num_hosts=48)
    paths = [spec.path for spec in build_scenario_hosts(scenario, seed=2002)]
    striped = [path for path in paths if path.forward_striping is not None]
    swapped = [
        path for path in paths if path.forward_striping is None and path.forward_swap_probability > 0.0
    ]
    return striped[:2] + swapped[:2]


SURVEY_PATHS = _survey_paths()

# id -> (path, mss, advertised window); the survey paths use the prober's
# data-transfer settings.
CASES = {_case_id(case): _grid_case(case) for case in GRID}
CASES.update({f"survey{index}": (path, 256, 1024) for index, path in enumerate(SURVEY_PATHS)})


def _observe(test_class: type[DataTransferTest], case_id: str, num_samples: int = 0):
    path, mss, window = CASES[case_id]
    seed = 1000 + list(CASES).index(case_id)
    testbed = Testbed(seed=seed)
    testbed.add_site(HostSpec(name="target", address=ADDRESS, path=path, web_object_size=12 * 1024))
    test = test_class(testbed.probe, ADDRESS, mss=mss, advertised_window=window)
    transfers = []
    receive = test._receive_transfer

    def recording(connection, cursor):
        transfers.append(receive(connection, cursor))
        return transfers[-1]

    test._receive_transfer = recording
    # Packet uids are process-wide; count them from a marker packet so the
    # two runs' segments compare equal when the same packets arrive.
    base = Packet.tcp_packet(0, 0, TcpHeader(src_port=1, dst_port=1)).uid
    result = test.run(num_samples)
    segments = [segment._replace(uid=segment.uid - base) for transfer in transfers for segment in transfer]
    outcomes = [
        (
            sample.index,
            sample.reverse,
            sample.time,
            sample.detail,
            tuple(uid - base for uid in sample.probe_uids),
            tuple(uid - base for uid in sample.response_uids),
        )
        for sample in result.samples
    ]
    return segments, outcomes, testbed.sim.now, testbed.sim.processed_events


@pytest.mark.parametrize("case_id", list(CASES))
def test_incremental_loop_matches_rescanning_oracle(case_id):
    segments, outcomes, now, events = _observe(DataTransferTest, case_id)
    expected_segments, expected_outcomes, expected_now, expected_events = _observe(
        RescanningDataTransferTest, case_id
    )
    assert segments == expected_segments
    assert outcomes == expected_outcomes
    assert now == expected_now
    assert events == expected_events


# A lossy zero-delay grid path (segments captured between rounds), a lossy
# delayed one, and every survey path.
CAPPED_CASES = [
    "rev0.5-loss0.2-mss128-win512-delay0.0",
    "rev0.2-loss0.05-mss536-win512-delay0.002",
    *(f"survey{index}" for index in range(len(SURVEY_PATHS))),
]


# 10_000 is more pairs than any transfer yields (``max_segments`` is 400).
@pytest.mark.parametrize("cap", (1, 10, 10_000))
@pytest.mark.parametrize("case_id", CAPPED_CASES)
def test_capped_measurement_is_the_oracle_list_cut_to_the_cap(case_id, cap):
    """The cap shortens the report, never the transfer."""
    segments, outcomes, now, events = _observe(DataTransferTest, case_id, num_samples=cap)
    expected_segments, expected_outcomes, expected_now, expected_events = _observe(
        RescanningDataTransferTest, case_id
    )
    assert len(expected_outcomes) > 10
    assert segments == expected_segments
    assert outcomes == expected_outcomes[:cap]
    assert now == expected_now
    assert events == expected_events


def _reordered(segments) -> bool:
    return any(seq_gt(earlier.seq, later.seq) for earlier, later in zip(segments, segments[1:]))


def test_grid_paths_reorder_and_retransmit():
    """The oracle check is only as strong as the paths the grid builds."""
    reordered = retransmitted = 0
    for case in GRID:
        segments = _observe(DataTransferTest, _case_id(case))[0]
        reordered += _reordered(segments)
        retransmitted += len({segment.seq for segment in segments}) < len(segments)
    assert reordered >= len(GRID) // 4
    assert retransmitted >= len(GRID) // 4


def test_survey_paths_stripe_swap_and_lose():
    """The survey cases cover forward striping, swaps and loss, and reorder."""
    assert [path.forward_striping is not None for path in SURVEY_PATHS] == [True, True, False, False]
    assert all(path.forward_swap_probability > 0.0 < path.reverse_swap_probability for path in SURVEY_PATHS)
    assert all(path.forward_loss > 0.0 < path.reverse_loss for path in SURVEY_PATHS)
    assert any(_reordered(_observe(DataTransferTest, f"survey{index}")[0]) for index in range(len(SURVEY_PATHS)))
