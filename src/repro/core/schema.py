"""One field table per record type, and the binary and JSON codecs that walk it.

A record type is a dataclass or ``NamedTuple`` whose fields all have one of
the kinds below.  :func:`table_for` builds its :class:`Table` once from its
fields and resolved type hints.  The shard transport, the remote protocol,
the host specs and the campaign store all walk these tables, so a record's
fields are named only in its class body.

=====================  ================================  ===================
Type hint              Binary (big-endian)               JSON
=====================  ================================  ===================
``int``                u64                               int, never a bool
``float``              f64 (exact, NaN included)         float or int
``bool``               one byte                          bool
``str``                u32 byte length, then UTF-8       str
an ``Enum``            u8 definition-order index         the member's value
``tuple[int, ...]``    u32 count, then u64s              list of ints
``tuple[Enum, ...]``   u32 count, then u8 indexes        list of values
``Optional[X]``        u8 presence (0 or 1), then X      null or X
a record type          its fields, inline                object
an abstract base       u8 length, ASCII class name, and  object, plus the
                       then that class's fields          name under "type"
``list[R]``            u32 count, then the items         list of objects
``tuple[R, ...]``      as a list, of records or a base   as a list
=====================  ================================  ===================

An abstract base (an abstract dataclass, ``ElementSpec``) decodes only to
its concrete subclasses, found through ``__subclasses__()``, so no name is
ever imported.  Only such a subclass may have no fields (its tag is all it
encodes): a list of zero-byte records would let four bytes ask for 2**32.

In binary, consecutive fixed-width fields share one precompiled
:class:`struct.Struct`.  A list whose item type has only fixed-width,
``str`` and ``tuple[int, ...]`` fields travels column by column (each run of
fixed-width columns in one ``struct`` call, each ``str`` or uid column as
its lengths, then its bytes or u64s); other lists travel item by item.

Decoding builds every record positionally and is strict.  A JSON value of
the wrong type raises ``TypeError``; an int outside [0, 2**64), the range
``pack`` carries, or an unknown enum value or type tag raises ``ValueError``;
a missing key raises ``KeyError``.  A short or damaged binary buffer raises
``struct.error``, ``IndexError``, ``ValueError`` or ``UnicodeDecodeError``.
A record's own constructor may raise too.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import struct
import types
import typing
from functools import cache, partial
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence, Union

Buffer = Union[bytes, bytearray, memoryview]

_INT, _FLOAT, _BOOL, _STR, _ENUM, _UIDS, _RECORD = (
    "int", "float", "bool", "str", "enum", "uids", "record"
)
_CODES = {_INT: "Q", _FLOAT: "d", _BOOL: "?", _ENUM: "B"}  # the fixed-width kinds
_JSON_TYPES = {_INT: (int,), _FLOAT: (float, int), _BOOL: (bool,), _STR: (str,)}
_COLUMN_KINDS = frozenset({_INT, _FLOAT, _BOOL, _ENUM, _STR, _UIDS})
_INTS = frozenset({int})
_U64_END = 2**64  # an int field carries [0, 2**64), in binary and JSON alike
_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_ABSENT, _PRESENT = _U8.pack(0), _U8.pack(1)


class Field:
    """One field of a record type: its name, its kind, and what the kind needs.

    ``many`` is ``list`` or ``tuple`` for a sequence of enums or records, and
    a record is plain (``table``) or any subclass of a base (``tagged``)."""

    __slots__ = (
        "name", "position", "kind", "optional", "many", "members", "index", "table",
        "tagged", "write_item", "read_item", "struct", "json_types", "to_json", "from_json",
    )

    def __init__(
        self,
        name: str,
        position: int,
        kind: str,
        optional: bool,
        *,
        many: Optional[type] = None,
        enum_type: Optional[type[enum.Enum]] = None,
        table: Optional[Table] = None,
        tagged: Optional[Tagged] = None,
    ) -> None:
        self.name, self.position, self.kind, self.optional = name, position, kind, optional
        self.many, self.table, self.tagged = many, table, tagged
        self.members: tuple[Any, ...] = tuple(enum_type) if enum_type is not None else ()
        self.index = {member: i for i, member in enumerate(self.members)}
        self.struct = struct.Struct("!" + _CODES[kind]) if kind in _CODES else None
        self.json_types = _JSON_TYPES.get(kind)
        # JSON converters, for the kinds whose JSON form is not the value itself.
        to_json: Optional[Callable[[Any], Any]] = None
        from_json: Optional[Callable[[Any], Any]] = None
        if kind == _ENUM:
            to_json = attrgetter("_value_")  # the value, without the property
            from_json = partial(_enum_from_json, self, {m.value: m for m in self.members})
        elif kind == _UIDS:
            to_json = list
            from_json = partial(_uids_from_json, self)
        elif table is not None:
            self.write_item, self.read_item = partial(_write, table), partial(_read, table)
            to_json, from_json = partial(_to_json, table), partial(_from_json, table)
        elif tagged is not None:
            self.write_item, self.read_item = tagged.write, tagged.read
            to_json, from_json = tagged.to_json, tagged.from_json
        if many is not None:
            to_json = partial(_many_to_json, to_json)
            from_json = partial(_many_from_json, self, from_json)
        self.to_json, self.from_json = to_json, from_json


class _Run:
    """Consecutive fixed-width fields, packed by one struct."""

    __slots__ = ("fields", "struct", "columns", "get", "enums")

    def __init__(self, fields: list[Field]) -> None:
        codes = [_CODES[field.kind] for field in fields]
        self.fields = tuple(fields)
        self.struct = struct.Struct("!" + "".join(codes))
        self.columns = "!" + "".join("#" + code for code in codes)  # "#" = item count
        self.get = _getter([field.name for field in fields])
        self.enums = tuple((i, field) for i, field in enumerate(fields) if field.kind == _ENUM)


class Table:
    """The fields of one record type, in definition order, and its binary plan."""

    def __init__(self, record_type: type, fields: tuple[Field, ...]) -> None:
        self.type = record_type
        self.fields = fields
        self.names = tuple(field.name for field in fields)
        self.get = _getter(self.names)
        plain = [not f.optional and f.many is None for f in fields]
        self.columnar = all(p and f.kind in _COLUMN_KINDS for f, p in zip(fields, plain))
        self.converted = tuple((f.name, f.to_json) for f in fields if f.to_json is not None)
        steps: list[Union[_Run, Field]] = []
        run: list[Field] = []
        for field, is_plain in zip(fields, plain):
            if is_plain and field.kind in _CODES:
                run.append(field)
                continue
            if run:
                steps.append(_Run(run))
                run = []
            steps.append(field)
        if run:
            steps.append(_Run(run))
        self.steps = tuple(steps)


class Tagged:
    """The concrete subclasses of an abstract record base, tagged by class name."""

    def __init__(self, base: type) -> None:
        self.base = base
        self.by_name: dict[str, Table] = {}
        for subtype in _subtypes(base):
            name, table = subtype.__name__, _build(subtype)
            if "type" in table.names:
                raise TypeError(f"{name} has a field named 'type', the JSON tag of {base.__name__}")
            if name in self.by_name:
                raise TypeError(f"two subclasses of {base.__name__} are named {name!r}")
            self.by_name[name] = table
        self.by_type = {
            table.type: (_U8.pack(len(name)) + name.encode("ascii"), table)
            for name, table in self.by_name.items()
        }

    def _entry(self, record: Any) -> tuple[bytes, Table]:
        try:
            return self.by_type[type(record)]
        except KeyError:
            name = type(record).__name__
            raise TypeError(f"{name} is not a concrete {self.base.__name__}") from None

    def write(self, record: Any, out: list[bytes]) -> None:
        tag, table = self._entry(record)
        out.append(tag)
        _write(table, record, out)

    def read(self, view: memoryview, offset: int) -> tuple[Any, int]:
        (length,) = _U8.unpack_from(view, offset)
        end = offset + 1 + length
        table = self.by_name.get(str(view[offset + 1 : end], "ascii"))
        if table is None or end > len(view):
            raise ValueError(f"unknown {self.base.__name__} type tag at byte {offset}")
        return _read(table, view, end)

    def to_json(self, record: Any) -> dict[str, Any]:
        return {"type": type(record).__name__, **_to_json(self._entry(record)[1], record)}

    def from_json(self, data: Any) -> Any:
        if type(data) is not dict:
            raise TypeError(f"a {self.base.__name__} is {type(data).__name__}, expected dict")
        table = self.by_name.get(data["type"])
        if table is None:
            raise ValueError(f"unknown {self.base.__name__} type {data['type']!r}")
        return _from_json(table, data)


def _subtypes(base: type) -> list[type]:
    """The concrete subclasses of ``base``, at any depth, newest per name (a
    ``slots=True`` dataclass leaves the class it replaced a subclass too)."""
    found: dict[str, type] = {}
    pending = [base]
    while pending:
        for subtype in pending.pop().__subclasses__():
            pending.append(subtype)
            if not inspect.isabstract(subtype):
                found[f"{subtype.__module__}.{subtype.__qualname__}"] = subtype
    return list(found.values())


def _getter(names: Sequence[str]) -> Callable[[Any], tuple[Any, ...]]:
    """A function from a record to its ``names`` values, as a tuple even for one name."""
    if len(names) == 1:
        get_one = attrgetter(names[0])
        return lambda record: (get_one(record),)
    return attrgetter(*names) if names else lambda record: ()


@cache
def table_for(record_type: type) -> Table:
    """The field table of a dataclass or ``NamedTuple``, built once per type.

    Raises ``TypeError`` for a type without fields or with a field whose
    type hint is not a supported kind.
    """
    table = _build(record_type)  # which a tagged subclass may use field-less
    if not table.fields:
        raise TypeError(f"{record_type.__name__} has no fields")
    return table


@cache
def _build(record_type: type) -> Table:
    if dataclasses.is_dataclass(record_type):
        if not all(field.init for field in dataclasses.fields(record_type)):
            raise TypeError(f"{record_type.__name__} has a field outside __init__")
        names = [field.name for field in dataclasses.fields(record_type)]
    elif issubclass(record_type, tuple) and hasattr(record_type, "_fields"):
        names = list(record_type._fields)
    else:
        raise TypeError(f"{record_type!r} is not a dataclass or NamedTuple")
    hints = typing.get_type_hints(record_type)
    fields = (_field(record_type, name, i, hints[name]) for i, name in enumerate(names))
    return Table(record_type, tuple(fields))


def _field(owner: type, name: str, position: int, hint: Any) -> Field:
    generic, args = typing.get_origin(hint), typing.get_args(hint)
    optional = generic in (Union, types.UnionType) and len(args) == 2 and type(None) in args
    if optional:
        hint = args[0] if args[1] is type(None) else args[1]
        generic, args = typing.get_origin(hint), typing.get_args(hint)
    for kind, simple in ((_BOOL, bool), (_INT, int), (_FLOAT, float), (_STR, str)):
        if hint is simple:
            return Field(name, position, kind, optional)
    many: Optional[type] = None
    if generic is tuple and len(args) == 2 and args[1] is Ellipsis:
        if args[0] is int:
            return Field(name, position, _UIDS, optional)
        many, hint = tuple, args[0]
    elif generic is list and len(args) == 1:
        many, hint = list, args[0]
    is_type = isinstance(hint, type)
    if is_type and issubclass(hint, enum.Enum) and len(hint) <= 256 and many is not list:
        return Field(name, position, _ENUM, optional, many=many, enum_type=hint)
    if is_type and dataclasses.is_dataclass(hint) and inspect.isabstract(hint):
        if many is not list:  # an abstract base, alone or in a tuple
            return Field(name, position, _RECORD, optional, many=many, tagged=_tagged(hint))
    elif _is_record(hint):
        return Field(name, position, _RECORD, optional, many=many, table=table_for(hint))
    raise TypeError(f"{owner.__name__}.{name}: unsupported field type {hint!r}")


_tagged = cache(Tagged)


def _is_record(hint: Any) -> bool:
    return dataclasses.is_dataclass(hint) or (
        isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "_fields")
    )


# --------------------------------------------------------------------- #
# Binary
# --------------------------------------------------------------------- #


def pack(record: Any) -> bytes:
    """The binary encoding of one record."""
    out: list[bytes] = []
    write(record, out)
    return b"".join(out)


def unpack(record_type: type, data: Buffer) -> Any:
    """Decode a buffer that holds exactly one ``record_type`` record."""
    view = memoryview(data)
    record, end = read(record_type, view, 0)
    if end != len(view):
        raise ValueError(f"{len(view) - end} trailing bytes after the record")
    return record


def write(record: Any, out: list[bytes]) -> None:
    """Append the binary encoding of ``record`` to ``out``."""
    _write(table_for(type(record)), record, out)


def read(record_type: type, view: memoryview, offset: int) -> tuple[Any, int]:
    """Decode one ``record_type`` record at ``offset``: the record and its end."""
    return _read(table_for(record_type), view, offset)


def _write(table: Table, record: Any, out: list[bytes]) -> None:
    for step in table.steps:
        if type(step) is _Run:
            values = step.get(record)
            if step.enums:
                values = list(values)
                for i, field in step.enums:
                    values[i] = field.index[values[i]]
            out.append(step.struct.pack(*values))
            continue
        value = getattr(record, step.name)
        if step.optional:
            if value is None:
                out.append(_ABSENT)
                continue
            out.append(_PRESENT)
        kind = step.kind
        if step.many is not None:
            _write_many(step, value, out)
        elif kind == _STR:
            raw = value.encode("utf-8")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
        elif kind == _UIDS:
            out.append(struct.pack(f"!I{len(value)}Q", len(value), *value))
        elif kind == _RECORD:
            step.write_item(value, out)
        else:  # an optional fixed-width field
            out.append(step.struct.pack(step.index[value] if kind == _ENUM else value))


def _write_many(field: Field, items: Sequence[Any], out: list[bytes]) -> None:
    out.append(_U32.pack(len(items)))
    if field.kind == _ENUM:
        out.append(bytes(map(field.index.__getitem__, items)))
    elif field.table is not None and field.table.columnar:
        _write_columns(field.table, items, out)
    else:
        for item in items:
            field.write_item(item, out)


def _write_columns(table: Table, items: list[Any], out: list[bytes]) -> None:
    count = len(items)
    if not count:
        return
    columns = list(zip(*map(table.get, items)))
    for step in table.steps:
        if type(step) is _Run:
            flat: list[Any] = []
            for field in step.fields:
                column = columns[field.position]
                flat.extend(map(field.index.__getitem__, column) if field.kind == _ENUM else column)
            out.append(struct.pack(step.columns.replace("#", str(count)), *flat))
        elif step.kind == _STR:
            raw = [text.encode("utf-8") for text in columns[step.position]]
            out.append(struct.pack(f"!{count}I", *map(len, raw)))
            out.append(b"".join(raw))
        else:  # a uid column
            column = columns[step.position]
            uids = [uid for row in column for uid in row]
            out.append(struct.pack(f"!{count}I{len(uids)}Q", *map(len, column), *uids))


def _read(table: Table, view: memoryview, offset: int) -> tuple[Any, int]:
    values: list[Any] = []
    for step in table.steps:
        if type(step) is _Run:
            fixed = step.struct.unpack_from(view, offset)
            offset += step.struct.size
            if step.enums:
                fixed = list(fixed)
                for i, field in step.enums:
                    fixed[i] = field.members[fixed[i]]
            values.extend(fixed)
            continue
        if step.optional:
            (present,) = _U8.unpack_from(view, offset)
            offset += 1
            if present > 1:
                raise ValueError(f"presence byte {present} for {step.name!r}")
            if not present:
                values.append(None)
                continue
        kind = step.kind
        if step.many is not None:
            value, offset = _read_many(step, view, offset)
        elif kind == _STR:
            (length,) = _U32.unpack_from(view, offset)
            value = _text(view, offset + 4, offset + 4 + length)
            offset += 4 + length
        elif kind == _UIDS:
            (count,) = _U32.unpack_from(view, offset)
            value = struct.unpack_from(f"!{count}Q", view, offset + 4)
            offset += 4 + 8 * count
        elif kind == _RECORD:
            value, offset = step.read_item(view, offset)
        else:  # an optional fixed-width field
            (value,) = step.struct.unpack_from(view, offset)
            offset += step.struct.size
            if kind == _ENUM:
                value = step.members[value]
        values.append(value)
    return table.type(*values), offset


def _read_many(field: Field, view: memoryview, offset: int) -> tuple[Any, int]:
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    items: list[Any]
    if field.kind == _ENUM:
        items = [field.members[i] for i in struct.unpack_from(f"!{count}B", view, offset)]
        offset += count
    elif field.table is not None and field.table.columnar:
        items, offset = _read_columns(field.table, view, offset, count)
    else:
        items = []
        for _ in range(count):
            item, offset = field.read_item(view, offset)
            items.append(item)
    return (items if field.many is list else tuple(items)), offset


def _text(view: memoryview, start: int, end: int) -> str:
    if end > len(view):
        raise ValueError(f"a {end - start}-byte string overruns the buffer")
    return str(view[start:end], "utf-8")


def _read_columns(table: Table, view: memoryview, offset: int, count: int) -> tuple[list[Any], int]:
    if not count:
        return [], offset
    columns: list[Any] = [None] * len(table.fields)
    for step in table.steps:
        if type(step) is _Run:
            layout = step.columns.replace("#", str(count))
            flat = struct.unpack_from(layout, view, offset)
            offset += struct.calcsize(layout)
            for i, field in enumerate(step.fields):
                column = flat[i * count : (i + 1) * count]
                if field.kind == _ENUM:
                    column = [field.members[index] for index in column]
                columns[field.position] = column
            continue
        lengths = struct.unpack_from(f"!{count}I", view, offset)
        offset += 4 * count
        if step.kind == _STR:
            texts = []
            for length in lengths:
                texts.append(_text(view, offset, offset + length))
                offset += length
            columns[step.position] = texts
        else:  # a uid column
            uids = struct.unpack_from(f"!{sum(lengths)}Q", view, offset)
            offset += 8 * len(uids)
            rows, cursor = [], 0
            for length in lengths:
                rows.append(uids[cursor : cursor + length])
                cursor += length
            columns[step.position] = rows
    return list(map(table.type, *columns)), offset


# --------------------------------------------------------------------- #
# JSON
# --------------------------------------------------------------------- #


def to_json(record: Any) -> dict[str, Any]:
    """``record`` as a JSON-ready object keyed by field name."""
    return _to_json(table_for(type(record)), record)


def from_json(record_type: type, data: Any) -> Any:
    """Decode one ``record_type`` record from a parsed JSON object, strictly."""
    return _from_json(table_for(record_type), data)


def _to_json(table: Table, record: Any) -> dict[str, Any]:
    data = dict(zip(table.names, table.get(record)))
    for name, convert in table.converted:
        value = data[name]
        if value is not None:
            data[name] = convert(value)
    return data


def _many_to_json(convert: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    return [convert(item) for item in items]


def _from_json(table: Table, data: Any) -> Any:
    if type(data) is not dict:
        raise TypeError(f"a {table.type.__name__} is {type(data).__name__}, expected dict")
    values = [data[name] for name in table.names]
    for field in table.fields:
        value = values[field.position]
        if value is None and field.optional:
            continue
        if field.from_json is not None:
            values[field.position] = field.from_json(value)
        elif type(value) not in field.json_types:
            expected = " or ".join(kind.__name__ for kind in field.json_types)
            raise TypeError(f"{field.name!r} is {type(value).__name__}, expected {expected}")
        elif field.kind is _INT and not 0 <= value < _U64_END:
            raise ValueError(f"{field.name!r} is {value}, outside [0, 2**64)")
    return table.type(*values)


def _many_from_json(field: Field, convert: Callable[[Any], Any], items: Any) -> Any:
    if type(items) is not list:
        raise TypeError(f"{field.name!r} is {type(items).__name__}, expected a list")
    return field.many(map(convert, items))


def _enum_from_json(field: Field, members: dict[Any, Any], value: Any) -> Any:
    try:
        return members[value]
    except (KeyError, TypeError):
        raise ValueError(f"{field.name!r} is {value!r}, not one of {sorted(members)}") from None


def _uids_from_json(field: Field, value: Any) -> tuple[int, ...]:
    if type(value) is not list or not _INTS.issuperset(map(type, value)):
        raise TypeError(f"{field.name!r} is {value!r}, expected a list of ints")
    for item in value:  # a loop beats min() and max() on these short lists
        if not 0 <= item < _U64_END:
            raise ValueError(f"{field.name!r} holds {item}, outside [0, 2**64)")
    return tuple(value)


__all__ = [
    "Field",
    "Table",
    "Tagged",
    "from_json",
    "pack",
    "read",
    "table_for",
    "to_json",
    "unpack",
    "write",
]
