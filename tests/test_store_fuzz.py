"""Decoder fuzzing for the campaign store's log and manifest.

Every damaged store must either open to a durable *prefix* of the shards
committed to the log, each reading back equal to the records committed, or
raise :class:`~repro.net.errors.StoreError` — no other exception, and no
hang.  Three kinds of damage:

* byte flips, truncations and extensions of a real ``shards.log``;
* JSON-level mutations of a record or header, re-framed with a valid CRC so
  they get past the frame check and reach the payload validators;
* byte mutations of ``manifest.json``, whose plan holds the host specs:
  the pristine store's hosts carry a tagged path condition, a NAT, a
  striping stage and a field-less element, so every shape of the spec
  codec is in reach.

A shrunk crasher, once found, stays pinned as an explicit ``@example``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CampaignRequest, Session
from repro.core import prober
from repro.core.campaign import CampaignConfig
from repro.core.runner import EXECUTOR_SERIAL
from repro.net.errors import StoreError
from repro.scenarios import build_scenario_hosts, get_scenario
from repro.sim.build import EcnBleachSpec, GilbertLossSpec, NatSpec
from repro.store import CampaignStore
from repro.workloads.testbed import StripingSpec
from _store_helpers import FRAME, frame, frame_payloads

_FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@dataclass(frozen=True)
class Pristine:
    manifest: bytes
    log: bytes
    frames: tuple[bytes, ...]  # payloads, in commit order
    commit_order: tuple[int, ...]  # shard index of each frame
    records: dict  # shard index -> records committed


def _specs() -> tuple:
    """Three survey hosts, the first behind every spec shape the plan encodes."""
    scenario = get_scenario("imc2002-survey").with_population(num_hosts=3)
    first, *rest = build_scenario_hosts(scenario, seed=5)
    path = dataclasses.replace(
        first.path,
        forward_conditions=(GilbertLossSpec(bad_loss=0.1),),
        reverse_conditions=(EcnBleachSpec(),),
        middleboxes=(NatSpec(),),
        forward_striping=StripingSpec(),
    )
    return (dataclasses.replace(first, path=path), *rest)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Pristine:
    root = tmp_path_factory.mktemp("fuzz") / "store"
    request = CampaignRequest(
        specs=_specs(),
        config=CampaignConfig(
            rounds=1,
            samples_per_measurement=2,
            tests=(prober.TestName.SINGLE_CONNECTION, prober.TestName.SYN),
        ),
        seed=5,
        shards=3,
        store=root,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        session.run(request)
    store = CampaignStore.open(root)
    log = (root / "shards.log").read_bytes()
    frames = frame_payloads(log)
    return Pristine(
        manifest=(root / "manifest.json").read_bytes(),
        log=log,
        frames=tuple(frames),
        commit_order=tuple(json.loads(frame.partition(b"\n")[0])["shard"] for frame in frames),
        records={index: store.read_shard(index).records for index in range(3)},
    )


def _check(root: Path, pristine: Pristine, *, manifest: bytes, log: bytes) -> bool:
    """Open the damaged store and read everything back; True when it opened."""
    root.mkdir(exist_ok=True)
    (root / "manifest.json").write_bytes(manifest)
    (root / "shards.log").write_bytes(log)
    try:
        store = CampaignStore.open(root)
        durable = store.completed_shards()
        shards = {index: store.read_shard(index).records for index in durable}
        streamed = list(store.iter_records())
    except StoreError:
        return False
    assert durable == frozenset(pristine.commit_order[: len(durable)])
    for index in durable:
        assert shards[index] == pristine.records[index]
    assert streamed == [record for index in sorted(durable) for record in shards[index]]
    return True


def _flip(original: bytes, flips) -> bytes:
    data = bytearray(original)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)


def _byte_mutations(original: bytes, extensions=()):
    """Flips, truncations and extensions of ``original``."""
    flips = st.lists(
        st.tuples(st.integers(0, len(original) - 1), st.integers(1, 255)),
        min_size=1,
        max_size=4,
    ).map(lambda chosen: _flip(original, chosen))
    cuts = st.integers(0, len(original) - 1).map(lambda size: original[:size])
    tails = st.binary(min_size=1, max_size=40)
    if extensions:
        tails = tails | st.sampled_from(extensions)
    return st.one_of(flips, cuts, tails.map(lambda tail: original + tail))


@_FUZZ
@given(data=st.data())
def test_damaged_log_opens_to_a_durable_prefix_or_raises(pristine, tmp_path, data):
    first_frame = pristine.log[: FRAME.size + len(pristine.frames[0])]
    log = data.draw(_byte_mutations(pristine.log, extensions=(first_frame,)))
    _check(tmp_path / "store", pristine, manifest=pristine.manifest, log=log)


def _ill_typed(value) -> list:
    """Replacements that no field holding ``value`` accepts."""
    if isinstance(value, bool):
        return [0, "true", None]
    if isinstance(value, int):
        return ["0", 0.5, True, None]
    if isinstance(value, float):
        return ["x", True, None]
    if isinstance(value, str) or value is None:
        return [7, True, []]
    return [{}, {"": 0}, [None], [{}], [1.5], [True]]


def _paths(value, prefix=()):
    """The path of every value inside a JSON tree, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@st.composite
def _json_mutations(draw, pristine: Pristine) -> bytes:
    """A log with one JSON value replaced or deleted, every frame re-framed."""
    position = draw(st.integers(0, len(pristine.frames) - 1))
    lines = [json.loads(line) for line in pristine.frames[position].splitlines()]
    row = draw(st.integers(0, len(lines) - 1))
    path = draw(st.sampled_from(list(_paths(lines[row]))))
    parent, value = None, lines[row]
    for key in path:
        parent, value = value, value[key]
    if path and isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        replacement = draw(st.sampled_from(_ill_typed(value)))
        if path:
            parent[path[-1]] = replacement
        else:
            lines[row] = replacement
    payloads = list(pristine.frames)
    payloads[position] = "".join(json.dumps(line) + "\n" for line in lines).encode()
    return b"".join(frame(payload) for payload in payloads)


@_FUZZ
@given(data=st.data())
def test_ill_typed_json_in_a_valid_frame_raises(pristine, tmp_path, data):
    log = data.draw(_json_mutations(pristine))
    assert not _check(tmp_path / "store", pristine, manifest=pristine.manifest, log=log)


@_FUZZ
@given(data=st.data())
def test_damaged_manifest_opens_to_the_log_or_raises(pristine, tmp_path, data):
    manifest = data.draw(_byte_mutations(pristine.manifest))
    _check(tmp_path / "store", pristine, manifest=manifest, log=pristine.log)


def test_the_pristine_store_opens_whole(pristine, tmp_path):
    """The fuzz baseline: undamaged bytes open with every shard durable."""
    assert _check(tmp_path / "store", pristine, manifest=pristine.manifest, log=pristine.log)
    assert pristine.commit_order == (0, 1, 2)
    assert CampaignStore.open(tmp_path / "store").plan().specs == _specs()
    for tag in (b'"GilbertLossSpec"', b'"EcnBleachSpec"', b'"NatSpec"', b'"forward_striping":{'):
        assert tag in pristine.manifest
