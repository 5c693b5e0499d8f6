"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.core.transport as transport
from repro.host.os_profiles import FREEBSD_44
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, Testbed


@pytest.fixture
def clean_testbed() -> Testbed:
    """A testbed with one well-behaved host and no path impairments."""
    testbed = Testbed(seed=101)
    testbed.add_site(
        HostSpec(
            name="target",
            address=parse_address("10.1.0.2"),
            profile=FREEBSD_44,
            path=PathSpec(propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    return testbed


@pytest.fixture
def reordering_testbed() -> Testbed:
    """A testbed with one host behind adjacent-swap reordering in both directions."""
    testbed = Testbed(seed=202)
    testbed.add_site(
        HostSpec(
            name="target",
            address=parse_address("10.1.0.2"),
            profile=FREEBSD_44,
            path=PathSpec(
                forward_swap_probability=0.2,
                reverse_swap_probability=0.15,
                propagation_delay=0.002,
            ),
            web_object_size=8 * 1024,
        )
    )
    return testbed


@pytest.fixture
def lossy_testbed() -> Testbed:
    """A testbed with both reordering and loss on the path."""
    testbed = Testbed(seed=303)
    testbed.add_site(
        HostSpec(
            name="target",
            address=parse_address("10.1.0.2"),
            profile=FREEBSD_44,
            path=PathSpec(
                forward_swap_probability=0.1,
                reverse_swap_probability=0.1,
                forward_loss=0.05,
                reverse_loss=0.05,
                propagation_delay=0.002,
            ),
            web_object_size=8 * 1024,
        )
    )
    return testbed


@pytest.fixture
def per_shard_leases(monkeypatch):
    """Lower the batch cost floor to one sample, so the remote lease book
    grants one-shard batches of four one-host shards on a 2- or 4-worker
    fleet: every worker, the chaos-armed one included, takes part.  The
    lease book runs in the test process and reads the floor at call time."""
    monkeypatch.setattr(transport, "MIN_BATCH_SAMPLES", 1)
