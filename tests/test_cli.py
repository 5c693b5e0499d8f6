"""Tests for the ``python -m repro`` scenario-survey entry point."""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.api.backends as backends
from repro.__main__ import build_parser, main
from repro.api import CampaignRequest, Session
from repro.core.campaign import CampaignConfig
from repro.scenarios import scenario_names
from repro.store.store import CampaignStore


def test_list_scenarios_prints_catalogue(capsys):
    assert main(["run", "--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_unknown_scenario_is_a_usage_error(capsys):
    assert main(["run", "--scenario", "definitely-not-registered"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


REFUSED_RUN_FLAGS = [
    ("--shards", "0"),
    ("--rounds", "0"),
    ("--samples", "0"),
    ("--seed", "-1"),
    ("--seed", str(2**64)),
    ("--hosts", "0"),
]


def _tiny_run(*flags: str) -> list[str]:
    return ["run", "--scenario", "imc2002-survey", "--hosts", "2", "--executor", "serial", *flags]


@pytest.mark.parametrize("flag, value", REFUSED_RUN_FLAGS, ids=lambda item: item)
def test_a_refused_run_flag_is_one_error_line(flag, value, capsys):
    """The request refuses the value before any shard runs, and the CLI
    says so on one line, as it does for an unknown scenario."""
    assert main(_tiny_run(flag, value)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: "), err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    hosts=st.integers(max_value=3),
    rounds=st.integers(max_value=2),
    samples=st.integers(max_value=2),
    shards=st.integers(),
    seed=st.integers(),
)
@example(hosts=2, rounds=1, samples=1, shards=2, seed=0)
def test_every_numeric_run_flag_exits_0_or_2_without_a_traceback(
    hosts, rounds, samples, shards, seed
):
    argv = [
        "run", "--scenario", "imc2002-survey", "--executor", "serial",
        "--hosts", str(hosts), "--rounds", str(rounds), "--samples", str(samples),
        "--shards", str(shards), "--seed", str(seed),
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


def _tables(out: str) -> list[str]:
    """The summary tables: every line between the header and the digest."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(("scenario=", "store=")))
    end = next(i for i, line in enumerate(lines) if line.startswith("result-digest="))
    return lines[start + 1:end]


def test_survey_run_prints_summary_tables(capsys):
    code = main(
        [
            "run",
            "--scenario", "bursty-loss",
            "--hosts", "4",
            "--shards", "2",
            "--seed", "3",
            "--rounds", "1",
            "--samples", "4",
            "--executor", "serial",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for title in (
        "Host eligibility by technique",
        "Scenario comparison",
        "[bursty-loss] fig5:",
        "Pairwise agreement",
        "Middlebox taxonomy over 4 hosts",
    ):
        assert title in out
    assert "scenario=bursty-loss hosts=4" in out
    # One round pairs no host, so no agreement row claims a fraction.
    agreement = out.split("Pairwise agreement")[1].split("\n\n")[0].splitlines()[4:]
    assert agreement and all(row.split()[-3:] == ["0", "0", "-"] for row in agreement)


def test_survey_output_is_deterministic(capsys):
    argv = [
        "run",
        "--scenario", "route-flap",
        "--hosts", "4",
        "--seed", "9",
        "--rounds", "1",
        "--samples", "4",
        "--executor", "serial",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_parser_defaults_match_documented_surface():
    args = build_parser().parse_args([])
    assert args.scenario == "imc2002-survey"
    assert args.shards == 1
    assert args.seed == 7


def test_middlebox_report_flag_is_gone(capsys):
    # Every summary prints the taxonomy, so the opt-in flag was deleted.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--middlebox-report"])
    assert "unrecognized arguments: --middlebox-report" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ([], ["--scenario", "bursty-loss"], ["survey"]))
def test_missing_subcommand_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: python -m repro {run,resume,report,migrate,workers,lint} ...\n"


@pytest.mark.parametrize("port", ["0", "65536", "70000"])
def test_workers_reject_a_port_outside_1_to_65535(port, monkeypatch, capsys):
    """A port past 65535 would reach ``getaddrinfo``, which keeps its low 16
    bits (70000 dials 4464): refuse it, and port 0, before any dial."""

    def dial(*args, **kwargs):
        raise AssertionError("a worker dialled the coordinator")

    monkeypatch.setattr("repro.__main__.run_worker", dial)
    for workers in ("1", "2"):
        argv = ["workers", "--connect", f"127.0.0.1:{port}", "--workers", workers]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"--connect must be HOST:PORT with PORT in 1-65535, got '127.0.0.1:{port}'\n"


def test_run_with_store_then_report_and_resume(tmp_path, capsys, monkeypatch):
    store = str(tmp_path / "campaign")
    argv = [
        "run",
        "--scenario", "imc2002-survey",
        "--hosts", "4",
        "--seed", "11",
        "--rounds", "1",
        "--samples", "4",
        "--shards", "2",
        "--executor", "serial",
        "--store", store,
    ]
    assert main(argv) == 0
    run_out = capsys.readouterr().out
    digest = [l for l in run_out.splitlines() if l.startswith("result-digest=")][0]

    # The report reads the log once: the same pass feeds tables and digest.
    passes = []
    iter_records = CampaignStore.iter_records

    def counted(self):
        passes.append(self)
        return iter_records(self)

    def load_result(self):
        raise AssertionError("report materialised the whole store")

    with monkeypatch.context() as patch:
        patch.setattr(CampaignStore, "iter_records", counted)
        patch.setattr(CampaignStore, "load_result", load_result)
        assert main(["report", "--store", store]) == 0
    assert len(passes) == 1
    report_out = capsys.readouterr().out
    assert "shards=2/2 (complete)" in report_out
    assert digest in report_out
    assert "Host eligibility by technique" in report_out

    # Resuming a complete store re-executes nothing and reprints the digest.
    assert main(["resume", "--store", store, "--executor", "serial"]) == 0
    resume_out = capsys.readouterr().out
    assert "2/2 shard(s) already durable" in resume_out
    assert digest in resume_out

    # One fold feeds all three commands, so they print the same tables.
    assert _tables(run_out) == _tables(report_out) == _tables(resume_out)
    assert "Middlebox taxonomy over 4 hosts" in _tables(report_out)


def test_resume_without_store_is_an_error(tmp_path, capsys):
    assert main(["resume", "--store", str(tmp_path / "missing")]) == 1
    assert "store error" in capsys.readouterr().err


def test_crash_flag_requires_store(capsys):
    assert main(["run", "--crash-after-shards", "1"]) == 2
    assert "--crash-after-shards requires --store" in capsys.readouterr().err


class _Stop(Exception):
    """Ends a campaign at its first durable shard."""


def _stop(outcome, completed, total):
    raise _Stop


def test_a_manifest_int_no_codec_carries_is_a_store_error(tmp_path, capsys):
    """An int outside [0, 2**64) in a stored spec fails the manifest's
    decode, so ``report`` and ``resume`` both refuse the store cleanly
    (``resume`` used to die in the plan digest)."""
    store = tmp_path / "campaign"
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=CampaignConfig(rounds=1, samples_per_measurement=2),
        hosts=2,
        seed=11,
        shards=2,
        store=store,
        on_checkpoint=_stop,
    )
    with Session(backend="serial") as session, pytest.raises(_Stop):
        session.run(request)
    manifest = store / "manifest.json"
    data = json.loads(manifest.read_text())
    for spec in data["plan"]["specs"]:
        spec["load_balancer_backends"] = 2**64
    manifest.write_text(json.dumps(data))
    for argv in (["report"], ["resume", "--executor", "serial"]):
        assert main([*argv, "--store", str(store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("store error: malformed campaign plan in manifest:"), err
        assert "load_balancer_backends" in err


@pytest.fixture(scope="module")
def three_shard_store(tmp_path_factory):
    """A complete store of a 3-host, 3-shard campaign."""
    root = tmp_path_factory.mktemp("stores") / "campaign"
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=CampaignConfig(rounds=1, samples_per_measurement=2),
        hosts=3,
        seed=11,
        shards=3,
        store=root,
    )
    with Session(backend="serial") as session:
        session.run(request)
    return root


@pytest.mark.parametrize("command", [["report"], ["resume", "--executor", "serial"]],
                         ids=["report", "resume"])
@pytest.mark.parametrize(
    "key, value",
    [("shards", 10), ("shards", 0), ("specs", []), ("remote_port", 70000), ("remote_port", 0)],
    ids=["more-shards-than-hosts", "no-shards", "no-hosts", "port-above-65535", "port-zero"],
)
def test_a_manifest_plan_that_breaks_its_invariants_is_a_store_error(
    three_shard_store, tmp_path, capsys, command, key, value
):
    """The plan checks itself when the manifest is decoded, so ``report`` and
    ``resume`` refuse the store on the plan: a report used to call a store
    claiming 10 shards incomplete, a resume of one with no hosts died in a
    traceback, and a port outside 1–65535 passed ``report`` and broke
    ``resume`` in the first TCP header."""
    store = tmp_path / "campaign"
    shutil.copytree(three_shard_store, store)
    manifest = store / "manifest.json"
    data = json.loads(manifest.read_text())
    data["plan"][key] = value
    manifest.write_text(json.dumps(data))
    assert main([*command, "--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("store error: malformed campaign plan in manifest:"), err


def test_run_prints_the_envelope_warnings_to_stderr(monkeypatch, capsys):
    """A degraded remote run says so: the envelope's warnings go to stderr,
    and the tables and digest still match a serial run."""
    from repro.distributed.backend import RemoteBackend

    monkeypatch.setitem(
        backends._BACKENDS,
        "remote",
        lambda max_workers: RemoteBackend(spawn_workers=0, wait_timeout=0.2),
    )
    argv = [
        "run",
        "--scenario", "imc2002-survey",
        "--hosts", "4",
        "--seed", "5",
        "--rounds", "1",
        "--samples", "4",
        "--shards", "2",
    ]
    assert main([*argv, "--executor", "serial"]) == 0
    serial = capsys.readouterr()
    assert serial.err == ""
    assert main([*argv, "--executor", "remote"]) == 0
    remote = capsys.readouterr()
    assert remote.err.startswith("warning: no remote workers connected within 0.2s"), remote.err
    assert remote.out == serial.out
