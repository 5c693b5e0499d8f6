"""The paper's primary contribution: single-ended reordering measurement.

This package contains the four measurement techniques (Single Connection,
Dual Connection, SYN, and TCP Data Transfer tests), the packet-pair exchange
metric and its derived statistics, IPID eligibility validation, and the
prober / campaign machinery that runs the techniques against many hosts the
way the paper's 20-day survey did.
"""

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.data_transfer import DataTransferTest
from repro.core.dual_connection import DualConnectionTest
from repro.core.ipid_validation import (
    IpidClass,
    IpidValidationReport,
    classify_ipid_sequence,
    validate_host_ipid,
)
from repro.core.metrics import (
    ReorderingEstimate,
    count_exchanges,
    exchange_metric,
    n_reordering,
    reordering_extent,
    reordering_rate,
    reordered_packet_ratio,
    sequence_reordering_probability,
)
from repro.core.probe_connection import ProbeConnection
from repro.core.prober import Prober, ProbeReport, TestName
from repro.core.sample import (
    Direction,
    MeasurementResult,
    ReorderSample,
    SampleOutcome,
)
from repro.core.single_connection import SingleConnectionTest
from repro.core.syn_test import SynTest
from repro.core.timeseries import SpacingPoint, SpacingSweep, SpacingSweepResult

# Imported last: the runner pulls in repro.workloads (testbed construction),
# which itself imports the core submodules loaded above.
from repro.core.runner import (
    CampaignPlan,
    ShardOutcome,
    ShardTask,
    record_signature,
    result_signature,
    run_shard,
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignPlan",
    "CampaignResult",
    "DataTransferTest",
    "Direction",
    "DualConnectionTest",
    "HostRoundResult",
    "IpidClass",
    "IpidValidationReport",
    "MeasurementResult",
    "ProbeConnection",
    "ProbeReport",
    "Prober",
    "ReorderSample",
    "ReorderingEstimate",
    "SampleOutcome",
    "ShardOutcome",
    "ShardTask",
    "SingleConnectionTest",
    "SpacingPoint",
    "SpacingSweep",
    "SpacingSweepResult",
    "SynTest",
    "TestName",
    "classify_ipid_sequence",
    "count_exchanges",
    "exchange_metric",
    "n_reordering",
    "reordered_packet_ratio",
    "record_signature",
    "reordering_extent",
    "reordering_rate",
    "result_signature",
    "run_shard",
    "sequence_reordering_probability",
    "validate_host_ipid",
]
