"""The field tables and the two codecs derived from them.

:mod:`repro.core.schema` builds one table per record type from its dataclass
fields and type hints; the binary transport and the JSON store both walk it.
Pinned here:

* a throwaway record type using every supported kind round-trips exactly
  through both codecs, both as a record and as the items of a list that
  travels column by column and of one that travels item by item;
* an unsupported type hint raises when its table is built;
* JSON decoding is as strict as the hand-written store decoders were;
* a truncated binary record never decodes;
* every enum a real codec sends by index is pinned by
  ``test_enum_wire_tables_pin_definition_order``, since its definition order
  is its wire id.
"""

from __future__ import annotations

import enum
import inspect
import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_transport
from repro.core.campaign import HostRoundResult
from repro.core.runner import ShardOutcome
from repro.core.schema import from_json, pack, table_for, to_json, unpack
from repro.distributed.protocol import ShardErrors


class Colour(enum.Enum):
    RED = "red"
    GREEN = "green"
    BLUE = "blue"


@dataclass
class Flat:
    """Only kinds that travel column by column in a list."""

    number: int
    ratio: float
    flag: bool
    colour: Colour
    label: str
    uids: tuple[int, ...]


class Pair(NamedTuple):
    index: int
    text: str


@dataclass
class Nested:
    """An optional field: a list of these travels item by item."""

    flat: Flat
    note: Optional[str] = None


@dataclass
class Everything:
    number: int
    ratio: float
    flag: bool
    label: str
    colour: Colour
    uids: tuple[int, ...]
    maybe_number: Optional[int]
    maybe_ratio: Optional[float]
    maybe_flag: Optional[bool]
    maybe_label: Optional[str]
    maybe_colour: Optional[Colour]
    maybe_uids: Optional[tuple[int, ...]]
    flat: Flat
    maybe_flat: Optional[Flat]
    columns: list[Flat]
    rows: list[Nested]
    pairs: list[Pair]
    maybe_rows: Optional[list[Nested]] = None
    tail: int = 0


u64 = st.integers(min_value=0, max_value=2**64 - 1)
floats = st.floats(allow_nan=False)
text = st.text(max_size=12)
uid_tuples = st.lists(u64, max_size=4).map(tuple)

flats = st.builds(
    Flat, number=u64, ratio=floats, flag=st.booleans(), colour=st.sampled_from(Colour),
    label=text, uids=uid_tuples,
)
nesteds = st.builds(Nested, flat=flats, note=st.none() | text)
everythings = st.builds(
    Everything,
    number=u64,
    ratio=floats,
    flag=st.booleans(),
    label=text,
    colour=st.sampled_from(Colour),
    uids=uid_tuples,
    maybe_number=st.none() | u64,
    maybe_ratio=st.none() | floats,
    maybe_flag=st.none() | st.booleans(),
    maybe_label=st.none() | text,
    maybe_colour=st.none() | st.sampled_from(Colour),
    maybe_uids=st.none() | uid_tuples,
    flat=flats,
    maybe_flat=st.none() | flats,
    columns=st.lists(flats, max_size=4),
    rows=st.lists(nesteds, max_size=3),
    pairs=st.lists(st.builds(Pair, index=u64, text=text), max_size=3),
    maybe_rows=st.none() | st.lists(nesteds, max_size=2),
    tail=u64,
)


def _through_json(record):
    return json.loads(json.dumps(to_json(record), sort_keys=True, separators=(",", ":")))


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #


@settings(max_examples=80, deadline=None)
@given(everythings)
def test_every_kind_round_trips_through_the_binary_codec(record):
    assert unpack(Everything, pack(record)) == record


@settings(max_examples=80, deadline=None)
@given(everythings)
def test_every_kind_round_trips_through_the_json_codec(record):
    assert from_json(Everything, _through_json(record)) == record


def test_nan_and_signed_zero_survive_the_binary_codec():
    record = Flat(1, math.nan, True, Colour.RED, "", ())
    decoded = unpack(Flat, pack(record))
    assert math.isnan(decoded.ratio)
    negative_zero = unpack(Flat, pack(Flat(1, -0.0, True, Colour.RED, "", ())))
    assert math.copysign(1.0, negative_zero.ratio) == -1.0


def test_json_keys_are_the_field_names():
    record = Flat(7, 0.5, False, Colour.BLUE, "x", (1, 2))
    assert to_json(record) == {
        "number": 7, "ratio": 0.5, "flag": False, "colour": "blue", "label": "x",
        "uids": [1, 2],
    }


def test_tables_follow_the_declared_field_order():
    assert table_for(Nested).names == ("flat", "note")
    assert table_for(Flat).columnar
    assert not table_for(Nested).columnar
    assert table_for(Pair).columnar


# --------------------------------------------------------------------- #
# Unsupported type hints raise when the table is built
# --------------------------------------------------------------------- #


Wide = enum.Enum("Wide", [f"M{i}" for i in range(257)])  # too many members for a u8


@dataclass
class WithDict:
    mapping: dict[str, int]


@dataclass
class WithIntList:
    numbers: list[int]


@dataclass
class WithPairTuple:
    pair: tuple[int, int]


@dataclass
class WithUnion:
    value: int | str


@dataclass
class WithBytes:
    blob: bytes


@dataclass
class WithWideEnum:
    member: Wide


@dataclass
class WithoutInit:
    number: int
    cached: int = field(init=False, default=0)


@dataclass
class Empty:
    pass


class PlainClass:
    number: int


@pytest.mark.parametrize(
    "record_type",
    [WithDict, WithIntList, WithPairTuple, WithUnion, WithBytes, WithWideEnum,
     WithoutInit, Empty, PlainClass],
    ids=lambda record_type: record_type.__name__,
)
def test_an_unsupported_record_type_raises_when_its_table_is_built(record_type):
    with pytest.raises(TypeError):
        table_for(record_type)


# --------------------------------------------------------------------- #
# Strict JSON decoding
# --------------------------------------------------------------------- #

_GOOD = _through_json(
    Everything(
        number=1, ratio=0.5, flag=True, label="a", colour=Colour.RED, uids=(1, 2),
        maybe_number=None, maybe_ratio=None, maybe_flag=None, maybe_label=None,
        maybe_colour=None, maybe_uids=None,
        flat=Flat(1, 0.5, True, Colour.RED, "a", (3,)), maybe_flat=None,
        columns=[Flat(2, 1.5, False, Colour.GREEN, "b", ())],
        rows=[Nested(Flat(3, 2.5, True, Colour.BLUE, "c", (4, 5)), note="n")],
        pairs=[Pair(9, "p")],
    )
)


def _damaged(path, value):
    data = json.loads(json.dumps(_GOOD))
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is KeyError:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return data


def test_the_undamaged_payload_decodes():
    assert from_json(Everything, _GOOD).pairs == [(9, "p")]


@pytest.mark.parametrize(
    "path, value, error",
    [
        (("number",), True, TypeError),  # a bool is not an int
        (("number",), 1.0, TypeError),
        (("number",), None, TypeError),
        (("ratio",), "0.5", TypeError),
        (("flag",), 1, TypeError),
        (("label",), None, TypeError),  # null only where Optional allows it
        (("maybe_label",), 3, TypeError),
        (("colour",), "purple", ValueError),
        (("colour",), ["red"], ValueError),
        (("uids",), [1, 2.0], TypeError),
        (("uids",), [1, True], TypeError),
        (("uids",), "12", TypeError),
        (("flat",), [], TypeError),
        (("columns",), {}, TypeError),
        (("columns", 0), "flat", TypeError),
        (("columns", 0, "number"), False, TypeError),
        (("columns", 0, "colour"), "mauve", ValueError),
        (("columns", 0, "uids"), [-1.5], TypeError),
        (("rows", 0, "note"), 5, TypeError),
        (("rows", 0, "flat", "label"), None, TypeError),
        (("pairs", 0, "text"), None, TypeError),
        (("number",), KeyError, KeyError),
        (("columns", 0, "label"), KeyError, KeyError),
        (("rows", 0, "note"), KeyError, KeyError),
    ],
    ids=lambda part: ".".join(map(str, part)) if isinstance(part, tuple) else None,
)
def test_json_decoding_refuses_a_damaged_field(path, value, error):
    with pytest.raises(error):
        from_json(Everything, _damaged(path, value))


def test_json_float_fields_take_ints_as_written():
    data = _damaged(("ratio",), 2)
    assert from_json(Everything, data).ratio == 2


# --------------------------------------------------------------------- #
# Binary truncation
# --------------------------------------------------------------------- #


def test_no_strict_prefix_of_a_binary_record_decodes():
    record = from_json(Everything, _GOOD)
    blob = pack(record)
    for size in range(len(blob)):
        with pytest.raises((struct.error, ValueError, IndexError)):
            unpack(Everything, blob[:size])
    with pytest.raises(ValueError, match="trailing"):
        unpack(Everything, blob + b"\x00")


# --------------------------------------------------------------------- #
# Enum wire ids
# --------------------------------------------------------------------- #


def _enums(table, seen):
    for table_field in table.fields:
        if table_field.members:
            seen.add(type(table_field.members[0]))
        if table_field.table is not None:
            _enums(table_field.table, seen)
    return seen


def test_every_enum_a_codec_sends_by_index_has_its_order_pinned():
    """An enum travels as its definition-order index, so reordering its
    members changes the wire.  Every enum reachable from the transport's,
    the protocol's and the store's record types must be pinned."""
    sent: set = set()
    for record_type in (ShardOutcome, HostRoundResult, ShardErrors):
        _enums(table_for(record_type), sent)
    assert sent, "the record types carry enums"
    pinning = inspect.getsource(test_transport.test_enum_wire_tables_pin_definition_order)
    unpinned = sorted(e.__name__ for e in sent if f"list({e.__name__}) ==" not in pinning)
    assert not unpinned, f"enum order not pinned: {unpinned}"
