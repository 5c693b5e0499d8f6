"""Resume through the session layer: ResumeRequest reproduces golden digests.

Satellite coverage for the API redesign: for **all 7** registry scenarios, a
campaign interrupted mid-run and continued via
``Session.run(ResumeRequest(...))`` must merge to a ``result_digest``
bit-identical to an uninterrupted run — including the harshest path, a real
``SIGKILL`` through the CLI followed by an in-process API resume.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import CampaignRequest, ProcessBackend, ResumeRequest, Session
from repro.core.runner import EXECUTOR_SERIAL
from repro.scenarios import get_scenario, scenario_names
from repro.store import CampaignStore
from test_golden_signatures import (
    GOLDEN_CONFIG,
    GOLDEN_DIGESTS,
    GOLDEN_HOSTS,
    GOLDEN_SEED,
)

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only these scenarios pin the golden digest here.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})

SHARDS = 2


class SimulatedCrash(BaseException):
    """Raised from the checkpoint hook; BaseException so no handler eats it."""


def _crash_after(n: int):
    def hook(outcome, completed, total):
        if completed >= n:
            raise SimulatedCrash(f"injected crash after {completed}/{total} shards")

    return hook


def _request(name: str, store=None, on_checkpoint=None) -> CampaignRequest:
    return CampaignRequest(
        scenario=name,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=SHARDS,
        store=store,
        on_checkpoint=on_checkpoint,
    )


def _uninterrupted_digest(name: str) -> str:
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(_request(name)).result_digest


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_resume_request_reproduces_the_uninterrupted_digest(tmp_path, name):
    store_dir = tmp_path / name
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(SimulatedCrash):
            session.run(_request(name, store=store_dir, on_checkpoint=_crash_after(1)))
    durable = CampaignStore.open(store_dir).completed_shards()
    assert durable and len(durable) < SHARDS, "crash must land mid-campaign"

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(ResumeRequest(store=store_dir))
    assert envelope.kind == "campaign"
    assert envelope.meta["resumed"] is True
    assert envelope.result_digest == _uninterrupted_digest(name)
    assert CampaignStore.open(store_dir).is_complete()
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"API resume of {name!r} no longer matches the pre-redesign "
            "golden digest"
        )


def test_resume_request_on_a_complete_store_reruns_nothing(tmp_path):
    store_dir = tmp_path / "complete"
    with Session(backend=EXECUTOR_SERIAL) as session:
        original = session.run(_request("imc2002-survey", store=store_dir))
    checkpoints = []
    with Session(backend=EXECUTOR_SERIAL) as session:
        resumed = session.run(
            ResumeRequest(
                store=store_dir,
                on_checkpoint=lambda outcome, completed, total: checkpoints.append(
                    outcome.index
                ),
            )
        )
    assert checkpoints == [], "a complete store has no shards left to execute"
    assert resumed.result_digest == original.result_digest


def test_resume_request_reapplies_an_os_name_override(tmp_path):
    """The stored specs carry the OS override, so the resume measures the
    population the interrupted run measured."""
    store_dir = tmp_path / "os-override"
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        os_name="freebsd-4.4",
        seed=GOLDEN_SEED,
        shards=SHARDS,
        store=store_dir,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(SimulatedCrash):
            session.run(
                CampaignRequest(
                    **{**request.__dict__, "on_checkpoint": _crash_after(1)}
                )
            )
    with Session(backend=EXECUTOR_SERIAL) as session:
        resumed = session.run(ResumeRequest(store=store_dir))
    with Session(backend=EXECUTOR_SERIAL) as session:
        uninterrupted = session.run(
            CampaignRequest(**{**request.__dict__, "store": None})
        )
    assert resumed.result_digest == uninterrupted.result_digest


def _crash_then_resume(request: CampaignRequest, edit=None) -> tuple[str, str]:
    """Crash ``request`` after its first durable shard, let ``edit`` change
    the store's files, resume the store with a ResumeRequest, and return the
    resumed and the uninterrupted digests."""
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(SimulatedCrash):
            session.run(dataclasses.replace(request, on_checkpoint=_crash_after(1)))
        assert not CampaignStore.open(request.store).is_complete()
        if edit is not None:
            edit(Path(request.store))
        resumed = session.run(ResumeRequest(store=request.store))
        uninterrupted = session.run(dataclasses.replace(request, store=None))
    assert CampaignStore.open(request.store).is_complete()
    return resumed.result_digest, uninterrupted.result_digest


def test_resume_request_resumes_an_explicit_spec_store(tmp_path):
    """The manifest holds the specs, so a store no scenario built resumes."""
    from repro.workloads.population import PopulationSpec, generate_population

    specs = tuple(generate_population(PopulationSpec(num_hosts=3), seed=3))
    resumed, uninterrupted = _crash_then_resume(
        CampaignRequest(
            specs=specs, config=GOLDEN_CONFIG, seed=3, shards=3, store=tmp_path / "raw",
        )
    )
    assert resumed == uninterrupted


def test_resume_request_resumes_an_unregistered_scenario_store(tmp_path):
    scenario = dataclasses.replace(
        get_scenario("nat-timeout"), name="my-custom", description="not in the registry"
    )
    assert "my-custom" not in scenario_names()
    resumed, uninterrupted = _crash_then_resume(
        CampaignRequest(
            scenario=scenario, config=GOLDEN_CONFIG, hosts=3, seed=GOLDEN_SEED, shards=2,
            store=tmp_path / "custom",
        )
    )
    assert resumed == uninterrupted


#: Four ``OsProfile`` fields that every built-in profile set alike, with
#: those values.  The TCP endpoint now applies them to every host, but a
#: format-3 manifest written while the profile had them still carries them.
_RETIRED_PROFILE_FIELDS = {
    "advertised_window": 65535,
    "delayed_ack": True,
    "delayed_ack_threshold": 2,
    "immediate_ack_out_of_order": True,
}


def test_a_store_whose_profiles_carry_retired_fields_still_resumes(tmp_path):
    """The manifest is rewritten as a build with those fields wrote it (the
    store's sorted, compact JSON, byte for byte); decoding a profile reads
    the fields it has and ignores the rest, so the store resumes."""

    def write_the_old_profiles(store: Path) -> None:
        manifest = store / "manifest.json"
        data = json.loads(manifest.read_text())
        for spec in data["plan"]["specs"]:
            spec["profile"].update(_RETIRED_PROFILE_FIELDS)
        manifest.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")

    resumed, uninterrupted = _crash_then_resume(
        CampaignRequest(
            scenario="imc2002-survey", config=GOLDEN_CONFIG, hosts=GOLDEN_HOSTS,
            seed=GOLDEN_SEED, shards=3, store=tmp_path / "old-profiles",
        ),
        edit=write_the_old_profiles,
    )
    assert resumed == uninterrupted


@pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL semantics")
def test_sigkill_via_cli_resumes_through_the_api(tmp_path):
    """A real SIGKILL — no unwinding, no flushing — then an API resume."""
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=repo_src)
    crashed = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--scenario", "imc2002-survey", "--hosts", "4",
            "--seed", str(GOLDEN_SEED), "--rounds", "1", "--samples", "4",
            "--shards", "2", "--executor", "serial",
            "--store", str(tmp_path / "s"), "--crash-after-shards", "1",
        ],
        env=env, capture_output=True, text=True,
    )
    assert crashed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
    assert not CampaignStore.open(tmp_path / "s").is_complete()

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(ResumeRequest(store=tmp_path / "s"))
    assert CampaignStore.open(tmp_path / "s").is_complete()

    # The CLI's config for these flags matches nothing golden, so compare
    # against an in-process uninterrupted run with the same parameters.
    from repro.core.campaign import CampaignConfig

    with Session(backend=EXECUTOR_SERIAL) as session:
        reference = session.run(
            CampaignRequest(
                scenario="imc2002-survey",
                config=CampaignConfig(rounds=1, samples_per_measurement=4),
                hosts=4,
                seed=GOLDEN_SEED,
                shards=2,
            )
        )
    assert envelope.result_digest == reference.result_digest


@pytest.mark.parametrize("backend", (EXECUTOR_SERIAL, "process"))
def test_cancel_mid_campaign_then_resume_matches_uninterrupted(tmp_path, backend):
    """A hook that raises at a shard boundary leaves a resumable store.

    Raising at the first checkpoint stops the campaign with exactly one
    durable shard, whether the shards run inline or the pool raced ahead.
    """
    name = "imc2002-survey"
    store_dir = tmp_path / f"cancelled-{backend}"

    with Session(backend=backend) as session:
        with pytest.raises(SimulatedCrash):
            session.run(_request(name, store=store_dir, on_checkpoint=_crash_after(1)))

    durable = CampaignStore.open(store_dir).completed_shards()
    assert durable and len(durable) < SHARDS, "cancel must land mid-campaign"

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(ResumeRequest(store=store_dir))
    assert envelope.meta["resumed"] is True
    assert envelope.result_digest == _uninterrupted_digest(name)
    assert CampaignStore.open(store_dir).is_complete()
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name]


def test_a_keyboard_interrupt_stops_a_pool_campaign_on_the_callers_thread(tmp_path):
    """A KeyboardInterrupt from the hook closes the shard stream and leaves
    the caller's ``with`` block with one durable shard; the borrowed pool
    then resumes the store to the uninterrupted digest."""
    store_dir = tmp_path / "interrupted"
    request = dataclasses.replace(_request("imc2002-survey", store=store_dir), shards=4)

    def interrupt(outcome, completed, total):
        raise KeyboardInterrupt

    backend = ProcessBackend(max_workers=2)
    try:
        with pytest.raises(KeyboardInterrupt):
            with Session(backend=backend) as session:
                session.run(dataclasses.replace(request, on_checkpoint=interrupt))
        assert len(CampaignStore.open(store_dir).completed_shards()) == 1
        with Session(backend=backend) as session:
            resumed = session.run(ResumeRequest(store=store_dir))
    finally:
        backend.close()
    with Session(backend=EXECUTOR_SERIAL) as session:
        uninterrupted = session.run(dataclasses.replace(request, store=None))
    assert resumed.result_digest == uninterrupted.result_digest


@pytest.mark.parametrize("backend", (EXECUTOR_SERIAL, "process"))
def test_checkpoint_hook_counts_durable_shards(tmp_path, backend):
    """The ``(completed, total)`` a checkpoint hook sees, before and after an
    interruption.

    With a store, ``completed`` counts every durable shard, so a resumed run
    continues the count where the interrupted one stopped.  Which shard
    lands first is up to the pool, so the process backend compares shard
    indexes as sets.
    """
    store_dir = tmp_path / "contract"

    def run(request):
        with Session(backend=backend, max_workers=2) as session:
            session.run(request)

    def checkpoints(seen):
        return lambda outcome, completed, total: seen.append(
            (outcome.index, completed, total)
        )

    fresh: list = []
    request = dataclasses.replace(
        _request("imc2002-survey"), shards=3, on_checkpoint=checkpoints(fresh)
    )
    run(request)
    assert [(completed, total) for _, completed, total in fresh] == [(1, 3), (2, 3), (3, 3)]

    interrupted: list = []

    def crash_at_first(outcome, completed, total):
        interrupted.append((outcome.index, completed, total))
        _crash_after(1)(outcome, completed, total)

    with pytest.raises(SimulatedCrash):
        run(dataclasses.replace(request, store=store_dir, on_checkpoint=crash_at_first))
    assert [(completed, total) for _, completed, total in interrupted] == [(1, 3)]
    ((first_index, _, _),) = interrupted
    assert CampaignStore.open(store_dir).completed_shards() == {first_index}

    resumed: list = []
    run(ResumeRequest(store=store_dir, on_checkpoint=checkpoints(resumed)))
    assert [(completed, total) for _, completed, total in resumed] == [(2, 3), (3, 3)]
    missing = [index for index in range(3) if index != first_index]
    resumed_indexes = [index for index, _, _ in resumed]
    if backend == EXECUTOR_SERIAL:
        assert resumed_indexes == missing
    else:
        assert set(resumed_indexes) == set(missing)
