"""API-surface snapshot: the public names this library promises.

``repro.__all__`` and ``repro.api.__all__`` are pinned verbatim.  If one of
these tests fails, a PR changed the public surface — either restore the name
(accidental breakage) or update the snapshot *and* the docs in the same
commit (deliberate, versioned change).  Every exported name must also
resolve to a real attribute, so ``__all__`` can never advertise something
imports would fail on.

Two internal surfaces are pinned as well: the hook points the
``perfbench`` tracer patches by class body or by identity, and the entry
points deleted when :class:`repro.api.Session` became the only place shards
execute, none of which may come back as an alias or a warning shim.
"""

from __future__ import annotations

import ast
import concurrent.futures
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.api

REPRO_ALL = [
    "Campaign",
    "CampaignConfig",
    "CampaignPlan",
    "CampaignRequest",
    "CampaignResult",
    "DataTransferTest",
    "Direction",
    "DualConnectionTest",
    "HostSpec",
    "IpidClass",
    "IpidValidationReport",
    "MatrixRequest",
    "MeasurementResult",
    "NetworkScenario",
    "OS_PROFILES",
    "OsProfile",
    "PathSpec",
    "PopulationSpec",
    "ProbeHost",
    "ProbeReport",
    "ProbeRequest",
    "Prober",
    "RemoteHost",
    "ReorderSample",
    "ResultEnvelope",
    "ResumeRequest",
    "SampleOutcome",
    "ScenarioMatrix",
    "Session",
    "Simulator",
    "SingleConnectionTest",
    "SpacingSweep",
    "StripingSpec",
    "SynTest",
    "Testbed",
    "TestName",
    "build_scenario_hosts",
    "build_testbed",
    "generate_population",
    "get_scenario",
    "list_scenarios",
    "partition_specs",
    "profile_by_name",
    "quick_testbed",
    "register_scenario",
    "scenario_names",
    "validate_host_ipid",
    "__version__",
]

REPRO_API_ALL = [
    "CampaignRequest",
    "ENVELOPE_VERSION",
    "ExecutionBackend",
    "MatrixRequest",
    "POOL_FAILURES",
    "ProbeRequest",
    "ProcessBackend",
    "Request",
    "ResultEnvelope",
    "ResumeRequest",
    "SerialBackend",
    "Session",
    "backend_names",
    "create_backend",
    "plan_digest",
    "unwrap_result",
]

BUILTIN_BACKENDS = ("serial", "process", "remote")


def test_repro_all_is_pinned():
    assert sorted(repro.__all__) == sorted(REPRO_ALL), (
        "repro.__all__ changed; if deliberate, update this snapshot, the "
        "README, and docs/architecture.md together"
    )


def test_repro_api_all_is_pinned():
    assert sorted(repro.api.__all__) == sorted(REPRO_API_ALL), (
        "repro.api.__all__ changed; if deliberate, update this snapshot, the "
        "README, and docs/architecture.md together"
    )


@pytest.mark.parametrize("name", sorted(set(REPRO_ALL)))
def test_repro_export_resolves(name):
    assert hasattr(repro, name), f"repro.__all__ advertises missing name {name!r}"


@pytest.mark.parametrize("name", sorted(set(REPRO_API_ALL)))
def test_repro_api_export_resolves(name):
    assert hasattr(repro.api, name), f"repro.api.__all__ advertises missing {name!r}"


def test_no_duplicate_exports():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert len(set(repro.api.__all__)) == len(repro.api.__all__)


def test_builtin_backends_are_registered():
    registered = repro.api.backend_names()
    for name in BUILTIN_BACKENDS:
        assert name in registered


def test_envelope_version_is_pinned():
    # Bumping the envelope version is a compatibility event; do it knowingly.
    assert repro.api.ENVELOPE_VERSION == 1


# --------------------------------------------------------------------- #
# Instrumentation surface: what the perfbench tracer patches or calls
# --------------------------------------------------------------------- #

#: Methods the tracer replaces through ``cls.__dict__[name]``: each must be
#: defined in that class's own body, or installing the tracer fails.
TRACED_METHODS = [
    ("repro.api.session", "Session", "run"),
    ("repro.api.backends", "SerialBackend", "map_shards"),
    ("repro.api.backends", "SerialBackend", "iter_shards"),
    ("repro.api.backends", "_PoolBackend", "map_shards"),
    ("repro.api.backends", "_PoolBackend", "iter_shards"),
    ("repro.api.backends", "_PoolBackend", "_reset_broken_pool"),
    ("repro.distributed.backend", "RemoteBackend", "map_shards"),
    ("repro.distributed.backend", "RemoteBackend", "iter_shards"),
    ("repro.analysis.streaming", "StreamingSurvey", "observe"),
    ("repro.analysis.streaming", "StreamingSurvey", "eligibility"),
    ("repro.analysis.streaming", "StreamingSurvey", "fig5"),
    ("repro.sim.simulator", "Simulator", "run_until"),
    ("repro.sim.simulator", "Simulator", "run_for"),
    ("repro.sim.simulator", "Simulator", "run_until_time"),
    ("repro.sim.simulator", "Simulator", "run_until_idle"),
    ("repro.core.campaign", "Campaign", "run"),
    ("repro.host.tcp_endpoint", "TcpEndpoint", "deliver"),
    ("repro.host.raw_socket", "ProbeHost", "captured_since"),
    ("repro.host.raw_socket", "ProbeHost", "tcp_packets_since"),
    ("repro.host.raw_socket", "ProbeHost", "icmp_packets_since"),
    ("repro.store.store", "CampaignStore", "begin"),
    ("repro.store.store", "CampaignStore", "write_shard"),
    ("repro.store.store", "CampaignStore", "read_shard"),
    ("repro.store.store", "CampaignStore", "iter_records"),
]


@pytest.mark.parametrize(
    "module, owner, name",
    TRACED_METHODS,
    ids=[f"{owner}.{name}" for _, owner, name in TRACED_METHODS],
)
def test_traced_method_is_defined_in_its_own_class_body(module, owner, name):
    cls = getattr(importlib.import_module(module), owner)
    assert name in vars(cls), f"{owner}.{name} must stay in {owner}'s class body"


def test_traced_functions_are_bound_where_the_tracer_finds_them():
    """Functions are patched by identity in every ``repro`` module that binds
    them, so the session's inline path and the pool's task must call the
    runner's, the transport's and the store codec's own functions through
    module globals."""
    import repro.api.backends as backends
    import repro.api.session as session
    import repro.core.runner as runner
    import repro.core.transport as transport
    import repro.store.codec as codec
    import repro.store.store as store
    from repro.distributed.backend import RemoteBackend

    assert session.run_shard is runner.run_shard
    assert backends.run_shard is runner.run_shard
    assert session.result_digest is runner.result_digest
    assert backends.encode_outcomes is transport.encode_outcomes
    assert backends.decode_outcomes is transport.decode_outcomes
    assert store.encode_record is codec.encode_record
    assert store.decode_record is codec.decode_record
    assert backends.wait is concurrent.futures.wait
    assert backends._run_task_batch.__name__ == "_run_task_batch"
    assert callable(RemoteBackend.pop_job_report)
    assert callable(repro.api.ProcessBackend.map_items)


def test_store_resume_analysis_entry_points_import():
    """The store-resume workload compares ``survey_from_store(store)`` with
    ``summarize_eligibility(result)``; both keep their import paths."""
    from repro.analysis.streaming import survey_from_store
    from repro.analysis.survey import summarize_eligibility

    assert list(inspect.signature(survey_from_store).parameters) == ["store"]
    assert list(inspect.signature(summarize_eligibility).parameters) == ["campaign"]


# --------------------------------------------------------------------- #
# Deleted entry points stay deleted
# --------------------------------------------------------------------- #

#: A Session is the only way to run a campaign; these were the others.
DELETED_NAMES = [
    "repro.scenarios.matrix.run_scenario",
    "repro.scenarios.matrix.resume_scenario",
    "repro.scenarios.matrix.run_matrix",
    "repro.analysis.survey.run_sharded_survey",
    "repro.analysis.survey.SurveyRun",
    "repro.api.backends.ThreadBackend",
    "repro.core.runner.EXECUTOR_THREAD",
    "repro.core.transport.TRANSPORT_ENV",
    "repro.core.transport.MODE_BINARY",
    "repro.core.transport.MODE_PICKLE",
    "repro.core.transport.transport_mode",
]


@pytest.mark.parametrize("path", DELETED_NAMES)
def test_deleted_entry_point_stays_deleted(path):
    module, _, name = path.rpartition(".")
    assert not hasattr(importlib.import_module(module), name), f"{path} is back"


def test_no_package_reexports_a_deleted_entry_point():
    packages = [
        importlib.import_module(name)
        for name in ("repro", "repro.api", "repro.analysis", "repro.core", "repro.scenarios")
    ]
    for path in DELETED_NAMES:
        name = path.rpartition(".")[2]
        for package in packages:
            assert not hasattr(package, name), f"{package.__name__}.{name} is back"


#: The survey fold is the only implementation of a §IV table; these were the
#: batch helpers, the per-path accessors and the fold's unread state.  The
#: last group had no caller at all.
DELETED_ANALYSIS_NAMES = [
    "repro.analysis.agreement.compute_agreement",
    "repro.analysis.figures.build_fig5_cdf",
    "repro.analysis.middlebox.classify_middleboxes",
    "repro.analysis.scenarios.slice_by_scenario",
    "repro.analysis.scenarios.HasCampaignResult",
    "repro.analysis.scenarios.SliceSource",
    "repro.analysis.scenarios.summarize_scenario_slice",
    "repro.analysis.scenarios.compare_scenarios",
    "repro.analysis.scenarios.fig5_by_scenario",
    "repro.analysis.scenarios.agreement_by_scenario",
    "repro.analysis.streaming.StreamingSurvey.merge",
    "repro.analysis.streaming.StreamingSurvey.sample_counter",
    "repro.analysis.streaming.StreamingSurvey.rate_accumulator",
    "repro.core.campaign.CampaignResult.records_for",
    "repro.core.campaign.CampaignResult.rates_for",
    "repro.core.campaign.CampaignResult.mean_rate",
    "repro.core.campaign.CampaignResult.path_rates",
    "repro.core.campaign.CampaignResult.ineligible_hosts",
    "repro.core.campaign.CampaignResult.total_measurements",
    "repro.core.campaign.CampaignResult.measurements_with_reordering",
    "repro.scenarios.matrix.MatrixResult.results",
    "repro.stats.ReorderCounter",
    "repro.stats.DirectionCounter",
    "repro.stats.QuantileAccumulator",
    "repro.core.sample.merge_results",
    "repro.core.timeseries.paper_spacing_grid",
    "repro.sim.reorder.DuplicationElement",
    "repro.stats.cdf.merge_cdfs",
]

DELETED_MODULES = [
    "repro.stats.streaming",
    "repro.sim.clock",
    "repro.lint.codec",
    "repro.sim.topology",
    "repro.api.jobs",
]

#: Both record codecs walk one field table per record type
#: (``repro.core.schema``); these were the store's per-level JSON helpers.
DELETED_CODEC_NAMES = [
    f"repro.store.codec.{verb}_{level}"
    for verb in ("encode", "decode")
    for level in ("sample", "measurement", "report")
]


def _owner(path: str) -> tuple[object, str]:
    """What would hold ``path``'s last name, and that name."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):  # the longest importable prefix
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    for attr in parts[cut:-1]:
        owner = getattr(owner, attr)
    return owner, parts[-1]


#: The plan, its config and the host specs have one encoding each, derived
#: from their field tables; these were the plan's hand-written JSON codec,
#: its strict-type helpers and the ``repr()`` digest of the specs.
DELETED_PLAN_CODEC_NAMES = [
    "repro.store.store.specs_digest",
    "repro.store.codec.check_types",
    "repro.store.codec.int_tuple",
    "repro.core.runner.CampaignPlan.to_mapping",
    "repro.core.runner.CampaignPlan.from_mapping",
    "repro.core.campaign.CampaignConfig.to_mapping",
    "repro.core.campaign.CampaignConfig.from_mapping",
    "repro.host.os_profiles.OsProfile.ipid_policy_factory",
]


@pytest.mark.parametrize("path", DELETED_PLAN_CODEC_NAMES)
def test_deleted_plan_codec_name_stays_deleted(path):
    owner, name = _owner(path)
    assert not hasattr(owner, name), f"{path} is back"
    assert not hasattr(importlib.import_module("repro.store"), name)


@pytest.mark.parametrize("path", DELETED_CODEC_NAMES)
def test_deleted_codec_helper_stays_deleted(path):
    module, _, name = path.rpartition(".")
    for owner in (importlib.import_module(module), importlib.import_module("repro.store")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"


@pytest.mark.parametrize("path", DELETED_ANALYSIS_NAMES)
def test_deleted_analysis_name_stays_deleted(path):
    owner, name = _owner(path)
    assert not hasattr(owner, name), f"{path} is back"


def test_no_package_reexports_a_deleted_analysis_name():
    names = {path.rpartition(".")[2] for path in DELETED_ANALYSIS_NAMES}
    for package in ("repro", "repro.analysis", "repro.core", "repro.sim", "repro.stats"):
        back = names & set(vars(importlib.import_module(package)))
        assert not back, f"{package} re-exports {sorted(back)}"


#: Definitions that only tests called, or nothing did: flows are plain
#: ``(address, port, address, port)`` tuples, the simulator's run loop is the
#: event queue's one consumer, and rewrites build packets directly.
DELETED_TEST_ONLY_NAMES = [
    "repro.net.flow.FourTuple",
    "repro.net.flow.FlowKey",
    "repro.net.icmp.QuotedFlow.four_tuple",
    "repro.sim.middlebox.LoadBalancer.backend_for_flow",
    "repro.sim.events.EventQueue.pop",
    "repro.sim.events.EventQueue.peek_time",
    "repro.sim.events.EventQueue.is_empty",
    "repro.sim.events.EventQueue.cancel",
    "repro.sim.events.EventQueue._drop_cancelled_head",
    "repro.sim.events.Event.cancelled",
    "repro.sim.simulator.Waiter.consume",
    "repro.sim.simulator.Simulator.schedule_at",
    "repro.net.packet.Packet.with_ip",
    "repro.net.packet.Packet.with_tcp",
    "repro.net.packet.Packet.clone",
    "repro.sim.reorder.PassthroughElement",
    "repro.sim.build.build_pipeline",
    "repro.net.seqnum.seq_between",
    "repro.net.checksum.verify_checksum",
    "repro.net.errors.ChecksumError",
    "repro.net.errors.TransportError.lost_indexes",
    "repro.stats.intervals.normal_interval",
    "repro.workloads.population.address_block",
    "repro.workloads.population.generate_population_shards",
    "repro.core.prober.Prober.run_all",
    "repro.core.sample.MeasurementResult.ambiguous_samples",
    "repro.sim.middlebox.NatTable.active_mappings",
    "repro.workloads.testbed.SiteHandle.primary_host",
    "repro.net.icmp.IcmpError.ttl_exceeded",
    "repro.net.icmp.IcmpError.source_quench",
    "repro.sim.middlebox.IcmpFilter",
    "repro.analysis.middlebox.MiddleboxTaxonomy.hosts_with",
    "repro.analysis.middlebox.HostDiagnosis.has",
    "repro.baselines.bennett.BennettBurstResult.complete",
    "repro.core.timeseries.SpacingSweepResult.rate_at",
    "repro.api.backends.register_backend",
    # One execution path per backend: the pool's retry rule, the remote
    # backend's second pool, and the dispatch settings only tests set.
    "repro.api.backends._PoolBackend._batch_dispatch",
    "repro.api.backends.ExecutionBackend.map_items",
    "repro.api.backends.SerialBackend.map_items",
    "repro.distributed.backend.RemoteBackend.map_items",
    "repro.distributed.backend.RemoteBackend._local",
    "repro.core.transport.BATCH_SIZE_ENV",
    "repro.core.transport.batch_size_override",
    "repro.distributed.backend.WORKERS_ENV",
    "repro.distributed.backend.HEARTBEAT_ENV",
    "repro.distributed.backend.LEASE_TIMEOUT_ENV",
    "repro.distributed.backend.WAIT_ENV",
    "repro.distributed.backend.MAX_ATTEMPTS_ENV",
    "repro.distributed.backend._env_float",
    "repro.distributed.backend._env_int",
    # Profile fields every built-in profile set alike.
    "repro.host.os_profiles.OsProfile.delayed_ack",
    "repro.host.os_profiles.OsProfile.delayed_ack_threshold",
    "repro.host.os_profiles.OsProfile.immediate_ack_out_of_order",
    "repro.host.os_profiles.OsProfile.advertised_window",
    # A testbed is built and wired in one pass: it attaches each site's two
    # element chains itself, and every host object takes its transmit (and
    # the endpoint its data callback) when it is constructed.
    "repro.sim.path.Pipeline",
    "repro.sim.path.DuplexPath",
    "repro.sim.path.PathElement._on_attached",
    "repro.host.raw_socket.ProbeHost.set_transmit",
    "repro.host.machine.RemoteHost.set_transmit",
    "repro.host.tcp_endpoint.TcpEndpoint.set_transmit",
    "repro.host.tcp_endpoint.TcpEndpoint.set_on_data",
    "repro.host.tcp_endpoint.TcpEndpoint._require_transmit",
    "repro.host.icmp_responder.IcmpResponder.set_transmit",
    "repro.host.server.WebServer.install",
    "repro.workloads.testbed._find_trace",
    # One description of a campaign: the plan replaced the runner, the
    # requests' normalized forms, the sweep's per-cell run and the session's
    # second envelope builder.
    "repro.core.runner.CampaignRunner",
    "repro.api.requests.CellPlan",
    "repro.api.requests.NormalizedMatrix",
    "repro.api.requests.NormalizedCampaign",
    "repro.api.requests.ResumeRequest.normalized",
    "repro.scenarios.matrix.ScenarioRun",
    "repro.api.session.Session._cell_envelope",
    "repro.api.session.Session._campaign_envelope",
    # One way to run a request: on the caller's thread, with no job handle.
    "repro.api.session.Session.submit",
    "repro.api.session.Session._execute",
]


@pytest.mark.parametrize("path", DELETED_TEST_ONLY_NAMES)
def test_deleted_test_only_name_stays_deleted(path):
    owner, name = _owner(path)
    assert not hasattr(owner, name), f"{path} is back"


def test_no_package_reexports_a_deleted_test_only_name():
    module_level = {
        name for owner, name in map(_owner, DELETED_TEST_ONLY_NAMES) if inspect.ismodule(owner)
    }
    packages = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    for package in packages:
        back = module_level & set(vars(importlib.import_module(package)))
        assert not back, f"{package} re-exports {sorted(back)}"


def test_the_plan_has_one_home():
    """The store keeps the plan it is given; it re-exports no alias of it."""
    import repro.core.runner
    import repro.store
    import repro.store.store

    assert repro.CampaignPlan is repro.core.CampaignPlan is repro.core.runner.CampaignPlan
    assert repro.store.store.CampaignPlan is repro.core.runner.CampaignPlan
    assert "CampaignPlan" not in repro.store.__all__
    assert not hasattr(repro.store, "CampaignPlan")


def _imported_modules(path: Path, package: str) -> set[str]:
    """Every module an import statement in ``path`` names, wherever it sits
    (type-checking blocks and function bodies included)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_core_imports_nothing_above_it():
    """``repro.core`` sits below the store, the session layer and the remote
    backend: the store depends on ``core.runner``'s plan, never the reverse."""
    import repro.core

    above = ("repro.store", "repro.api", "repro.distributed")
    upward = sorted(
        f"{path.name} imports {name}"
        for path in Path(repro.core.__file__).parent.glob("*.py")
        for name in _imported_modules(path, "repro.core")
        if any(name == layer or name.startswith(layer + ".") for layer in above)
    )
    assert not upward, upward


def test_the_request_path_imports_no_threading():
    """A session runs each request on its caller's thread and a backend
    serves one thread at a time, so neither starts a thread or takes a lock."""
    import repro.api.backends
    import repro.api.session
    import repro.distributed.backend

    for module in (repro.api.session, repro.api.backends, repro.distributed.backend):
        imported = _imported_modules(Path(module.__file__), module.__package__)
        assert "threading" not in imported, module.__name__


def test_a_testbed_routes_without_a_topology():
    from repro.workloads.testbed import HostSpec, build_testbed

    testbed = build_testbed([HostSpec(name="a", address=0x0A010002)])
    assert not hasattr(testbed, "topology")


def test_probe_wait_takes_no_polling_switch():
    from repro.host.raw_socket import ProbeHost

    assert list(inspect.signature(ProbeHost.wait_for_predicate).parameters) == [
        "self", "predicate", "timeout"
    ]


@pytest.mark.parametrize("name", DELETED_MODULES)
def test_deleted_module_stays_deleted(name):
    assert importlib.util.find_spec(name) is None, f"{name} is back"


def test_deleted_execution_switches_are_rejected():
    """No backend name, constructor argument or fallback choice survives
    for a deleted execution path."""
    import dataclasses

    from repro.core.runner import CampaignPlan
    from repro.core.transport import next_batch_size
    from repro.distributed.backend import RemoteBackend
    from repro.distributed.coordinator import Coordinator
    from repro.distributed.leases import Job, LeaseBook
    from repro.net.errors import MeasurementError
    from repro.workloads.population import PopulationSpec, generate_population

    assert "thread" not in repro.api.backend_names()
    with pytest.raises(MeasurementError, match="unknown execution backend 'thread'"):
        repro.api.Session(backend="thread")
    specs = generate_population(PopulationSpec(num_hosts=2), seed=1)
    for argument in ("executor", "max_workers", "backend"):
        with pytest.raises(TypeError, match=argument):
            CampaignPlan.of(specs, **{argument: None})
    with pytest.raises(TypeError, match="fallback"):
        RemoteBackend(fallback="serial")
    with pytest.raises(TypeError, match="batch_size"):
        RemoteBackend(batch_size=1)
    # The guided schedule and its cost floor are the only batch-size rule:
    # no dispatcher, job or remote backend carries a pinned size.
    assert list(inspect.signature(next_batch_size).parameters) == [
        "remaining", "workers", "shard_cost"
    ]
    assert list(inspect.signature(Coordinator.submit_job).parameters) == [
        "self", "tasks", "shard_cost"
    ]
    assert list(inspect.signature(LeaseBook.start).parameters) == [
        "self", "tasks", "shard_cost"
    ]
    assert "override" not in {field.name for field in dataclasses.fields(Job)}
    backend = RemoteBackend()
    try:
        assert not hasattr(backend, "batch_size")
        assert not hasattr(backend, "_fallback_backend")
    finally:
        backend.close()
