"""The field tables and the two codecs derived from them.

:mod:`repro.core.schema` builds one table per record type from its dataclass
fields and type hints; the binary transport and the JSON store both walk it.
Pinned here:

* a throwaway record type using every supported kind round-trips exactly
  through both codecs, both as a record and as the items of a list that
  travels column by column and of one that travels item by item;
* a field typed by an abstract base holds any concrete subclass, tagged by
  its class name, and an unknown tag never decodes;
* every registry scenario's host specs round-trip through both codecs;
* an unsupported type hint raises when its table is built;
* JSON decoding is as strict as the hand-written store decoders were;
* a truncated binary record never decodes;
* every enum a real codec sends by index is pinned by
  ``test_enum_wire_tables_pin_definition_order``, since its definition order
  is its wire id.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import math
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_transport
from repro.core.campaign import HostRoundResult
from repro.core.runner import CampaignPlan, ShardOutcome
from repro.core.schema import from_json, pack, table_for, to_json, unpack
from repro.distributed.protocol import Batch, Hello, ShardErrors
from repro.host.os_profiles import OS_PROFILES
from repro.scenarios import build_scenario_hosts, get_scenario, scenario_names
from repro.workloads.testbed import HostSpec


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


@dataclass(frozen=True)
class Shape(ABC):
    """An abstract base: a field of this type holds any concrete subclass."""

    @abstractmethod
    def corners(self) -> int:
        """Makes the class abstract."""


@dataclass(frozen=True)
class Square(Shape):
    side: float

    def corners(self) -> int:
        return 4


@dataclass(frozen=True)
class Tile(Square):
    """A subclass of a subclass is found too."""

    colour: Colour = Colour.RED


@dataclass(frozen=True, slots=True)
class Dot(Shape):
    """Field-less and slotted: its tag is its whole encoding."""

    def corners(self) -> int:
        return 0


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
    colours: tuple[Colour, ...]
    flat_tuple: tuple[Flat, ...]
    nested_tuple: tuple[Nested, ...]
    shape: Shape
    shapes: tuple[Shape, ...]
    maybe_shape: Optional[Shape]
    maybe_colours: Optional[tuple[Colour, ...]]
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
colour_tuples = st.lists(st.sampled_from(Colour), max_size=4).map(tuple)
shapes = st.one_of(
    st.builds(Square, side=floats),
    st.builds(Tile, side=floats, colour=st.sampled_from(Colour)),
    st.just(Dot()),
)
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
    colours=colour_tuples,
    flat_tuple=st.lists(flats, max_size=3).map(tuple),
    nested_tuple=st.lists(nesteds, max_size=2).map(tuple),
    shape=shapes,
    shapes=st.lists(shapes, max_size=4).map(tuple),
    maybe_shape=st.none() | shapes,
    maybe_colours=st.none() | colour_tuples,
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
# Abstract bases: tagged by the concrete class's name
# --------------------------------------------------------------------- #


@dataclass
class Drawing:
    shapes: tuple[Shape, ...]


def test_a_tagged_record_carries_its_class_name():
    drawing = Drawing((Tile(2.0, Colour.BLUE), Dot(), Square(0.5)))
    assert to_json(drawing) == {
        "shapes": [
            {"type": "Tile", "side": 2.0, "colour": "blue"},
            {"type": "Dot"},
            {"type": "Square", "side": 0.5},
        ]
    }
    blob = pack(drawing)
    assert blob[4:9] == b"\x04Tile"
    assert b"\x03Dot\x06Square" in blob  # the field-less Dot is its tag alone
    assert unpack(Drawing, blob) == drawing
    assert type(unpack(Drawing, blob).shapes[0]) is Tile


def test_an_unknown_tag_never_decodes():
    blob = pack(Drawing((Square(1.0),)))
    with pytest.raises(ValueError, match="unknown Shape type tag"):
        unpack(Drawing, blob.replace(b"Square", b"Sqvare"))
    with pytest.raises(ValueError, match="unknown Shape type tag"):
        unpack(Drawing, blob[:8])  # the tag's name overruns the buffer
    with pytest.raises(ValueError, match="unknown Shape type 'Circle'"):
        from_json(Drawing, {"shapes": [{"type": "Circle", "side": 1.0}]})
    with pytest.raises(ValueError, match="unknown Shape type 'Shape'"):
        from_json(Drawing, {"shapes": [{"type": "Shape"}]})  # abstract, so no tag
    with pytest.raises(KeyError):
        from_json(Drawing, {"shapes": [{"side": 1.0}]})
    with pytest.raises(TypeError):
        from_json(Drawing, {"shapes": [["Square", 1.0]]})


def test_encoding_a_class_outside_the_base_raises():
    @dataclass(frozen=True)
    class Stray:
        side: float

    with pytest.raises(TypeError, match="not a concrete Shape"):
        pack(Drawing((Stray(1.0),)))


def _abstract_base():
    @dataclass(frozen=True)
    class Base(ABC):
        @abstractmethod
        def f(self) -> None:
            """Makes the class abstract."""

    return Base


def test_two_subclasses_with_one_name_raise_when_the_table_is_built():
    base = _abstract_base()

    @dataclass(frozen=True)
    class Twin(base):
        number: int

        def f(self) -> None:
            pass

    class Holder:
        @dataclass(frozen=True)
        class Twin(base):
            text: str

            def f(self) -> None:
                pass

    with pytest.raises(TypeError, match="two subclasses of Base are named 'Twin'"):
        table_for(dataclasses.make_dataclass("Uses", [("item", base)]))


def test_a_subclass_with_a_type_field_raises_when_the_table_is_built():
    base = _abstract_base()

    @dataclass(frozen=True)
    class Typed(base):
        type: str

        def f(self) -> None:
            pass

    with pytest.raises(TypeError, match="field named 'type'"):
        table_for(dataclasses.make_dataclass("Uses", [("items", tuple[base, ...])]))


def test_an_abstract_base_in_a_list_raises_when_the_table_is_built():
    with pytest.raises(TypeError):
        table_for(dataclasses.make_dataclass("Uses", [("items", list[Shape])]))


def test_a_field_less_record_encodes_only_as_a_tagged_subclass():
    assert unpack(Drawing, pack(Drawing((Dot(),)))) == Drawing((Dot(),))
    with pytest.raises(TypeError, match="no fields"):
        table_for(Dot)


# --------------------------------------------------------------------- #
# Host specs
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_population_round_trips_through_both_codecs(name):
    specs = tuple(
        build_scenario_hosts(get_scenario(name).with_population(num_hosts=24), seed=7)
    )
    assert unpack(CampaignPlan, pack(_plan(specs))).specs == specs
    assert from_json(CampaignPlan, _through_json(_plan(specs))).specs == specs
    for spec in specs:
        assert unpack(HostSpec, pack(spec)).profile == OS_PROFILES[spec.profile.name]


def _plan(specs) -> CampaignPlan:
    from repro.core.campaign import CampaignConfig

    config = CampaignConfig(rounds=1)
    return CampaignPlan(1, 2, 80, None, config.tests, config, specs)


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
        colours=(Colour.GREEN, Colour.RED),
        flat_tuple=(Flat(4, 3.5, True, Colour.RED, "d", (6,)),),
        nested_tuple=(Nested(Flat(5, 4.5, False, Colour.GREEN, "e", ())),),
        shape=Tile(1.5, Colour.GREEN),
        shapes=(Square(2.5), Dot()),
        maybe_shape=None,
        maybe_colours=None,
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
        (("colours",), "green", TypeError),
        (("colours", 0), "mauve", ValueError),
        (("flat_tuple",), {}, TypeError),
        (("flat_tuple", 0, "ratio"), None, TypeError),
        (("shape",), [], TypeError),
        (("shape", "type"), "Circle", ValueError),
        (("shape", "type"), ["Tile"], TypeError),
        (("shape", "colour"), "mauve", ValueError),
        (("shapes", 0, "side"), "2.5", TypeError),
        (("shapes", 1, "type"), KeyError, KeyError),
        (("maybe_colours",), 1, TypeError),
        (("number",), KeyError, KeyError),
        (("columns", 0, "label"), KeyError, KeyError),
        (("rows", 0, "note"), KeyError, KeyError),
        (("number",), 2**64, ValueError),  # outside what pack carries
        (("number",), -1, ValueError),
        (("maybe_number",), 2**64, ValueError),
        (("uids",), [1, 2**64], ValueError),
        (("uids",), [-1, 2], ValueError),
        (("columns", 0, "number"), -1, ValueError),
        (("columns", 0, "uids"), [2**64], ValueError),
    ],
    ids=lambda part: ".".join(map(str, part)) if isinstance(part, tuple) else None,
)
def test_json_decoding_refuses_a_damaged_field(path, value, error):
    with pytest.raises(error):
        from_json(Everything, _damaged(path, value))


def test_json_int_fields_take_the_whole_u64_range():
    data = _damaged(("number",), 2**64 - 1)
    data["uids"] = [0, 2**64 - 1]
    record = from_json(Everything, data)
    assert (record.number, record.uids) == (2**64 - 1, (0, 2**64 - 1))


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


def _enums(table, seen, walked):
    walked.add(table.type)
    for table_field in table.fields:
        if table_field.members:
            seen.add(type(table_field.members[0]))
        if table_field.table is not None:
            _enums(table_field.table, seen, walked)
        if table_field.tagged is not None:  # every concrete subclass of the base
            for subtable in table_field.tagged.by_name.values():
                _enums(subtable, seen, walked)
    return seen


def test_every_enum_a_codec_sends_by_index_has_its_order_pinned():
    """An enum travels as its definition-order index, so reordering its
    members changes the wire.  Every enum reachable from the transport's,
    the protocol's and the store's record types (the host specs inside
    shard tasks and plans included) must be pinned."""
    sent: set = set()
    walked: set = set()
    for record_type in (ShardOutcome, HostRoundResult, ShardErrors, Batch, Hello, CampaignPlan):
        _enums(table_for(record_type), sent, walked)
    assert sent, "the record types carry enums"
    walked_names = {record_type.__name__ for record_type in walked}
    assert {"HostSpec", "OsProfile", "NatSpec", "EcnBleachSpec", "SwapSpec"} <= walked_names
    pinning = inspect.getsource(test_transport.test_enum_wire_tables_pin_definition_order)
    unpinned = sorted(e.__name__ for e in sent if f"list({e.__name__}) ==" not in pinning)
    assert not unpinned, f"enum order not pinned: {unpinned}"
