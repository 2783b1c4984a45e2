"""Tables of columns whose fields are each declared once, the JSON text of their rows, the one time rule, and the one
JSON parser (`parse_json`).

A stored row (a position, a type 5 static, a validated position, an outage,
a voyage or one of its phases) is one JSON document, and a run holds many as
a Table: one numpy column per field, one row per document. A Table subclass
declares each field once, as a Field class attribute: the attribute names
the column and, unless others are given, the JSON key and the row type's
attribute; its Rule gives the dtype, the check of a stored value and the
JSON text of each value of a column. Only a table that names a document type
writes its "type" key. From the declaration come the length, slicing,
`concat` and the empty table, `utc_days`, the line writers `jsonl` and
`lines`, the checked reader of stored documents `read`, made of the check of
one document (`check`) and the table of checked values (`of_checked`), and
the one-row forms `to_dict` and `values` that the dict codecs are made of.

The writer works on byte columns. `texts` gives each field's texts as a
uint8 matrix, one row per value holding its JSON text padded with 0 bytes,
made for the whole column: a float once per float64 bit pattern, so -0.0
and 0.0, and NaNs, stay apart, as its repr, which for a latitude or a
longitude, nearly each one distinct, is worked out for all of them at once
in integer arithmetic (`shortest_reprs`); an integer or a string once per
distinct value, the string escaped as `dumps` escapes it; a time from a
cached text of its day. `jsonl` lays each row's texts between the key
literals of its table, sorted by key as `dumps` sorts them, and
`join_rows`, the one line assembler (the NMEA encoders build their lines
with it too), drops the padding wherever it lies. A caller that holds
some fields' texts already, row-aligned with the table, hands them in and
only the other fields are formatted.

A time is int64 microseconds since 1970-01-01 UTC in a column, a datetime
in a row, and second-precision ISO-8601 text with a trailing Z in a
document; a row's UTC day is its proleptic Gregorian ordinal.
"""

import datetime as dt
import functools
import json
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

UTC = dt.timezone.utc
EPOCH = dt.datetime(1970, 1, 1, tzinfo=UTC)
UNIX_ORDINAL = EPOCH.toordinal()  # the proleptic Gregorian ordinal of 1970-01-01
DAY_US = 86_400_000_000
_US = dt.timedelta(microseconds=1)

# rows that a table turns into Python objects at a time, when it is iterated or written
CHUNK_ROWS = 4096


def epoch_us(t: dt.datetime) -> int:
    """`t` in microseconds since 1970-01-01 UTC; a naive `t` is local time."""
    if t.tzinfo is None:
        t = t.astimezone(UTC)
    return (t - EPOCH) // _US


def from_epoch_us(us: int) -> dt.datetime:
    """The UTC datetime `us` microseconds after 1970-01-01."""
    return EPOCH + dt.timedelta(0, *divmod(us, 1_000_000))


_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


@functools.lru_cache(maxsize=1024)
def _day_text(ordinal: int) -> str:
    """The "YYYY-MM-DDT" text of a day, by its proleptic Gregorian ordinal."""
    return dt.date.fromordinal(ordinal).isoformat() + "T"


def format_ts(t: dt.datetime) -> str:
    """`t` in UTC as YYYY-MM-DDTHH:MM:SSZ, microseconds cut; a naive `t` is local time."""
    if t.tzinfo is not UTC:
        t = t.astimezone(UTC)
    return f"{_day_text(t.toordinal())}{_TWO_DIGITS[t.hour]}:{_TWO_DIGITS[t.minute]}:{_TWO_DIGITS[t.second]}Z"


def parse_ts(s: str) -> dt.datetime:
    """An ISO-8601 time in UTC, a naive one read as UTC; ValueError for one that does not parse or that falls
    outside the years 1-9999 in UTC."""
    t = dt.datetime.fromisoformat(s[:-1] + "+00:00" if s.endswith("Z") else s)
    if t.tzinfo is None:
        t = t.replace(tzinfo=UTC)
    try:
        return t.astimezone(UTC)
    except OverflowError:
        raise ValueError(f"time {s!r} falls outside the years 1-9999 in UTC") from None


def parse_json(text: str):
    """The JSON value of a text; a ValueError for one that does not parse, a document nested too deep for the
    parser included, which json.loads raises as a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deep to parse") from None


# Checks of a stored value: each returns the value a row holds when the
# stored one has the right type, and raises ValueError starting with the
# key otherwise.

_INT64 = 1 << 63
_FLOAT_EXACT = 1 << 53  # float64 holds every integer up to this magnitude exactly, and not the next one


def _coordinate(value, key: str, limit: float) -> float:
    """A finite number in [-limit, limit], the range the NMEA decoder accepts, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -limit <= value <= limit:
        raise ValueError(f"{key} {value!r} is not a number in [-{limit:g}, {limit:g}]")
    return float(value)


def _integer(value, key: str) -> int:
    """An int that fits the int64 columns the stages hold it in."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} {value!r} is not an integer")
    if not -_INT64 <= value < _INT64:
        raise ValueError(f"{key} {value!r} does not fit in 64 bits")
    return value


def _text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    return value


def _optional_number(value, key: str) -> float | None:
    """None, or a number a float64 holds, as a float: an int past the largest float is no finite number either."""
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{key} {value!r} is not null or a finite number")
    return float(value)


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not true or false")
    return value


def _rate_of_turn(value, key: str) -> int:
    """An int a float64 holds exactly, as the columns hold the rate of turn."""
    if abs(_integer(value, key)) > _FLOAT_EXACT:
        raise ValueError(f"{key} {value!r} is past the integers a float64 holds exactly")
    return value


def _timestamp(value, key: str) -> dt.datetime:
    """A time as parse_ts reads it."""
    value = _text(value, key)
    try:
        return parse_ts(value)
    except ValueError:
        raise ValueError(f"{key} {value!r} is not an ISO-8601 time in the years 1-9999 in UTC") from None


# The texts of a column's values, in order, as byte rows: one row of a uint8
# matrix per value, its JSON text padded with 0 bytes, after it (`byte_rows`)
# or on both sides (`shortest_reprs`). No text holds a 0 byte of its own: a
# string is escaped as `dumps` escapes it, NUL and every other control
# character included, and a number or a time is written in digits and
# punctuation.


def byte_rows(texts: Sequence[str]) -> np.ndarray:
    """The ASCII texts as a byte matrix, one row each, as wide as the longest."""
    column = np.array(texts, dtype="S")
    return column.view(np.uint8).reshape(len(texts), column.itemsize)


def stack_rows(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of byte matrices (`byte_rows`), in order, in one matrix as wide as the widest."""
    rows = np.zeros((sum(map(len, parts)), max((p.shape[1] for p in parts), default=0)), dtype=np.uint8)
    start = 0
    for p in parts:
        rows[start:start + len(p), :p.shape[1]] = p
        start += len(p)
    return rows


_MINUTE_TEXT = byte_rows([f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60)])
_SECOND_TEXT = byte_rows([f'{s:02d}Z"' for s in range(60)])
_BOOLEAN_TEXT = byte_rows(["false", "true"])
_TIME_WIDTH = 22  # a quoted "YYYY-MM-DDTHH:MM:SSZ" of a year 1-9999


def _timestamp_texts(time_us: np.ndarray) -> np.ndarray:
    """The quoted stored text of each time given in microseconds since 1970-01-01 UTC, cut to the second."""
    days, day_us = np.divmod(time_us, DAY_US)
    minutes, seconds = np.divmod(day_us // 1_000_000, 60)
    day_ordinals, day_rows = np.unique(days, return_inverse=True)
    texts = np.empty((len(time_us), _TIME_WIDTH), dtype=np.uint8)
    texts[:, :12] = byte_rows(['"' + _day_text(d + UNIX_ORDINAL) for d in day_ordinals.tolist()])[day_rows]
    texts[:, 12:18] = _MINUTE_TEXT[minutes]
    texts[:, 18:] = _SECOND_TEXT[seconds]
    return texts


def _texts_of(values: np.ndarray, text=str, texts=None) -> np.ndarray:
    """The byte rows of text(v) for each value v, called once per distinct value, or of texts(distinct), called
    once with the array of distinct values: a float once per bit pattern, so -0.0 and 0.0, and NaNs, stay apart."""
    bits = values.dtype == np.float64
    distinct, rows = np.unique(values.view(np.int64) if bits else values, return_inverse=True)
    distinct = distinct.view(np.float64) if bits else distinct
    return (texts(distinct) if texts else byte_rows([text(v) for v in distinct.tolist()]))[rows]


def _number_text(v: float) -> str:
    """A float's repr, NaN as null."""
    return "null" if v != v else repr(v)


_LENGTHS = np.array([[15], [16], [17]])  # the significant digits of each candidate decimal
_POW5 = 5 ** np.arange(17, dtype=np.uint64)
_POW10 = 10.0 ** np.arange(17)
_INT10 = 10 ** np.arange(17, dtype=np.int64)
_ONE = np.uint64(1)


@functools.cache
def _digit_texts() -> tuple[np.ndarray, np.ndarray]:
    """The texts `shortest_reprs` lays its rows out from, made at its first call so that a process that writes no
    coordinate holds none: a row's first 8 bytes by 1000 * negative + whole part, its sign, whole digits and point
    right-aligned; and 4 fraction digits by kind and value: in full, without their trailing zeros (0000 as 0), and
    none."""
    heads = np.array([("-" * neg + f"{w}.").rjust(8, "\0") for neg in (0, 1) for w in range(1000)], dtype="S8")
    quads = np.array([[f"{q:04d}" for q in range(10000)], [f"{q:04d}".rstrip("0") or "0" for q in range(10000)],
                      [""] * 10000], dtype="S4")
    return heads.view(np.uint64), quads.view(np.uint32)


def shortest_reprs(floats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each float v with 1 <= |v| < 1000 as a row of 24 bytes, 0 bytes before its sign and after its
    last digit, and whether each row was made: the row of a value out of that range, or of one for which a
    candidate below falls exactly halfway between two decimals, is not, and holds 0 bytes.

    v = m * 2**e with 2**52 <= m < 2**53 (Steele & White, PLDI 1990; Adams,
    Ryu, PLDI 2018). Its candidate of d = 15, 16 and 17 significant digits,
    k of them whole, is the nearest decimal with n = d - k fraction digits,
    round(m * 5**n / 2**s) for s = -e - n, 29 to 38: m * 5**n mod 2**64
    holds the remainder in its low s bits and the quotient mod 2**(64 - s)
    above them, which corrects a float estimate of v * 10**n. A candidate
    reads back as v when it lies less than half v's last place away, 5**n / 2
    in units of 2**-s (never exactly half: 5**n is odd). A float keeps 15
    digits of any decimal, and 17 digits always read back, so repr, the
    shortest decimal that reads back and the nearest such, is the first
    candidate that does, without its trailing fraction zeros. (A power of two
    has a nearer neighbour below, but in this range it is a whole number,
    which its 15-digit candidate holds exactly.) A candidate exactly halfway
    between two decimals stops the search and leaves v to repr.
    """
    a = np.abs(floats)
    inside = np.flatnonzero((a >= 1.0) & (a < 1000.0))
    a = a[inside]
    bits = a.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    n = _LENGTHS - (1 + (a >= 10.0) + (a >= 100.0))  # one row of fraction digits per candidate
    s = 1075 - (bits >> np.uint64(52)).astype(np.int64) - n
    shift = s.astype(np.uint64)
    low = m * _POW5[n]
    estimate = (a * _POW10[n]).astype(np.int64)
    quotient = estimate + ((low - (estimate.astype(np.uint64) << shift)).view(np.int64) >> s)
    remainder, half = low & ((_ONE << shift) - _ONE), _ONE << (shift - _ONE)
    twice = np.minimum(remainder, (_ONE << shift) - remainder) << _ONE
    tie = remainder == half
    stop = (twice < _POW5[n]) | tie
    # the first candidate that stops, as an index into each (3, len(a)) array's ravel
    pick = np.where(stop[0], 0, 2 - stop[1]) * len(a) + np.arange(len(a))
    tied = tie.ravel()[pick]
    made = np.zeros(len(floats), dtype=bool)
    made[inside] = ~tied
    n = n.ravel()[pick]
    digits = (quotient + (remainder > half)).ravel()[pick]
    whole = digits // _INT10[n]
    fraction = (digits - whole * _INT10[n]) * _INT10[16 - n]  # 16 digits
    # the fraction's four groups of 4 digits: each in full before the last that is not 0000 (the first if none
    # is), that one without its trailing zeros, and none after it
    quads = np.stack([fraction // 10**12, fraction // 10**8 % 10**4, fraction // 10**4 % 10**4, fraction % 10**4], 1)
    last = (fraction % 10**12 != 0).astype(np.intp) + (fraction % 10**8 != 0) + (fraction % 10**4 != 0)
    rows = np.zeros((len(floats), 3), dtype=np.uint64)
    heads, quad_texts = _digit_texts()
    rows[inside, 0] = heads[(floats[inside] < 0) * 1000 + whole]
    rows[inside, 1:] = quad_texts[np.sign(np.arange(4) - last[:, None]) + 1, quads].view(np.uint64)
    rows[inside[tied]] = 0
    return rows.view(np.uint8), made


def _coordinate_texts(floats: np.ndarray) -> np.ndarray:
    """The byte rows of the floats' repr, NaN as null: `shortest_reprs` where it makes them, repr where it does not."""
    texts, made = shortest_reprs(floats)
    if not made.all():
        others = byte_rows([_number_text(v) for v in floats[~made].tolist()])
        texts = np.pad(texts, ((0, 0), (0, max(0, others.shape[1] - texts.shape[1]))))
        texts[~made, :others.shape[1]] = others
    return texts[:, texts.any(axis=0)]  # no wider than its texts: `run` holds them through validate


def _string_texts(values: np.ndarray) -> np.ndarray:
    """Each string escaped as `dumps` escapes it, once per distinct string."""
    strings = values.tolist()
    place = {s: k for k, s in enumerate(dict.fromkeys(strings))}
    rows = np.fromiter(map(place.__getitem__, strings), dtype=np.intp, count=len(strings))
    return byte_rows(list(map(encode_basestring_ascii, place)))[rows]


@dataclass(frozen=True)
class Rule:
    """How a field's values are held, checked and written.

    The column has `dtype`. check(value, key) gives the row's value of a
    stored JSON value, or raises ValueError naming the key. cell gives the
    column's value of a row's value (the value itself without one), and
    null that of None. texts(column) gives the JSON text of each value of a
    column as a byte matrix (`byte_rows`), json the JSON value of a row's
    value (the value itself without one).
    """

    dtype: type
    check: Callable
    texts: Callable
    null: object = None
    cell: Callable | None = None
    json: Callable | None = None

    def column(self, values: Sequence) -> np.ndarray:
        """The column of row values, None as null."""
        if self.cell is not None:
            values = [None if v is None else self.cell(v) for v in values]
        return np.array([self.null if v is None else v for v in values], dtype=self.dtype)

    def one_of(self, allowed) -> "Rule":
        """This rule, its check taking only the allowed values."""
        allowed = sorted(allowed)

        def check(value, key: str):
            if (checked := self.check(value, key)) not in allowed:
                raise ValueError(f"{key} {value!r} is not one of {allowed}")
            return checked

        return replace(self, check=check)


INTEGER = Rule(np.int64, _integer, _texts_of)
LATITUDE = Rule(np.float64, lambda value, key: _coordinate(value, key, 90.0),
                lambda values: _texts_of(values, texts=_coordinate_texts))
LONGITUDE = replace(LATITUDE, check=lambda value, key: _coordinate(value, key, 180.0))
NUMBER = Rule(np.float64, _optional_number, lambda values: _texts_of(values, _number_text), null=np.nan)
# a rate of turn is a whole number, held as a float64 column for its NaN
RATE = Rule(np.float64, _rate_of_turn, lambda values: _texts_of(values, lambda v: "null" if v != v else repr(int(v))),
            null=np.nan)
# an optional time that a row lacks is held as 1970-01-01T00:00:00Z, the day the store files such a row under
TIME = Rule(np.int64, _timestamp, _timestamp_texts, null=0, cell=epoch_us, json=format_ts)
# a length or width of 0 is "not available", as the decoder reads it, and is written as null
DIMENSION = Rule(np.int64, _integer, lambda values: _texts_of(values, lambda v: "null" if v == 0 else str(v)), null=0)
TEXT = Rule(object, _text, _string_texts)
BOOLEAN = Rule(bool, _boolean, lambda values: _BOOLEAN_TEXT[values.astype(np.intp)])

_REQUIRED = object()


class Field:
    """One field of a table, declared as a class attribute of it.

    The attribute names the column. key is the field's JSON key and row the
    attribute of the table's row type that holds its value; each is the
    attribute unless given. default is the row value of a document without
    the key; without a default the key is required, and with None a null
    reads as None too.
    """

    def __init__(self, rule: Rule, *, key: str | None = None, row: str | None = None, default=_REQUIRED):
        self.rule, self.key, self.row, self.default = rule, key, row, default

    def __set_name__(self, owner, name: str):
        self.attr = name
        self.key = self.key or name
        self.row = self.row or name

    def value(self, doc: dict):
        """The checked row value of this field in a stored document."""
        value = doc.get(self.key, self.default)
        if value is _REQUIRED:
            raise ValueError(f"{self.key} is missing")
        return None if value is None and self.default is None else self.rule.check(value, self.key)

    def json(self, value):
        """The JSON value of a row value."""
        return value if value is None or self.rule.json is None else self.rule.json(value)


def join_rows(n: int, parts: Sequence) -> bytes:
    """The ASCII text of n rows of parts side by side, row after row.

    A part is bytes, the same in every row, or a byte matrix of one row
    each, padded with 0 bytes (`byte_rows`); every 0 byte is dropped. This
    is the one line assembler: the JSONL writer and the NMEA encoders both
    build their lines with it.
    """
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    # every row starts as the bytes parts, 0 where a matrix goes, and each matrix is then copied into its place
    rows[:] = np.frombuffer(b"".join(p if isinstance(p, bytes) else bytes(w) for p, w in zip(parts, widths)),
                            dtype=np.uint8)
    start = 0
    for p, w in zip(parts, widths):
        if not isinstance(p, bytes):
            rows[:, start:start + w] = p
        start += w
    rows = rows.ravel()
    return rows[rows != 0].tobytes()


def _row_parts(kind: str | None, fields: Sequence["Field"]) -> list:
    """The parts (join_rows) of the line `dumps` writes for the document of a value of each field and a "type" of
    `kind` (none without a kind): the text between the values as bytes, and each value as its field's attribute."""
    items = sorted([(f.key, f.attr) for f in fields] + ([("type", f'"{kind}"'.encode())] if kind else []))
    parts, literal = [], b"{"
    for key, value in items:
        literal += encode_basestring_ascii(key).encode() + b":"
        if isinstance(value, bytes):
            literal += value + b","
        else:
            parts += [literal, value]
            literal = b","
    return parts + [literal.removesuffix(b",") + b"}\n"]


class Table:
    """Rows as columns, one per field, in declaration order, a parent table's first.

    A subclass names its document type (`class Positions(Table,
    doc_type="position")`), or names none for documents without a "type" key;
    one with a row type gives its row object of one row's values as
    row(*values). An int index gives a row's object, and iterating gives every
    row's in turn; a slice, mask or index array gives the table of those rows. A table may
    subclass another to add fields; its row object then holds the parent's
    row apart, so `to_dict` and `values` cover the fields it declares
    itself.
    """

    fields: tuple[Field, ...] = ()
    own: tuple[Field, ...] = ()  # the fields the class declares itself
    doc_type: str | None

    def __init_subclass__(cls, doc_type: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.doc_type = doc_type
        cls.own = tuple(v for v in vars(cls).values() if isinstance(v, Field))
        cls.fields = cls.fields + cls.own
        cls._parts = _row_parts(doc_type, cls.fields)

    def __init__(self, *columns):
        if len(columns) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} columns, got {len(columns)}")
        for f, column in zip(self.fields, columns):
            setattr(self, f.attr, column)

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.attr) for f in self.fields]

    def __len__(self) -> int:
        return len(getattr(self, self.fields[0].attr))

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return self.row(*(c.item(rows) for c in self.columns()))
        return type(self)(*(c[rows] for c in self.columns()))

    def __iter__(self):
        for a in range(0, len(self), CHUNK_ROWS):
            yield from map(self.row, *(c[a:a + CHUNK_ROWS].tolist() for c in self.columns()))

    @classmethod
    def empty(cls):
        return cls(*(np.zeros(0, dtype=f.rule.dtype) for f in cls.fields))

    @classmethod
    def concat(cls, parts: Sequence):
        """The rows of every part, in order."""
        if len(parts) == 1:
            return parts[0]
        return cls(*map(np.concatenate, zip(*(part.columns() for part in parts)))) if parts else cls.empty()

    @classmethod
    def check(cls, doc: dict) -> list:
        """The checked value of each field in a stored document, in order: a ValueError for the first field it lacks
        or holds a wrong value of, starting with the field's key."""
        return [f.value(doc) for f in cls.fields]

    @classmethod
    def of_checked(cls, values: Sequence[list]):
        """The rows of the checked values of stored documents (`check`), in order."""
        return cls(*(f.rule.column(c) for f, c in zip(cls.fields, zip(*values)))) if values else cls.empty()

    @classmethod
    def read(cls, docs: Sequence[dict]):
        """The rows of the given stored documents, in order, each checked in turn (`check`): a ValueError for the
        first document that lacks a field or holds a wrong value, starting with the field's key."""
        return cls.of_checked([cls.check(doc) for doc in docs])

    def utc_days(self) -> np.ndarray:
        """The proleptic Gregorian ordinal of each row's UTC day."""
        (time,) = (f for f in self.fields if f.rule is TIME)
        return getattr(self, time.attr) // DAY_US + UNIX_ORDINAL

    def texts(self, names: Collection[str] | None = None) -> dict[str, np.ndarray]:
        """The JSON text of the values of each field the names give by attribute (every field without names), by
        attribute: a byte matrix per field (`Rule.texts`), one row per row."""
        return {f.attr: f.rule.texts(getattr(self, f.attr)) for f in self.fields if names is None or f.attr in names}

    def jsonl(self, texts: Mapping[str, np.ndarray] | None = None) -> bytes:
        """The stored document of each row, as `dumps` writes its dict, each followed by a newline, in ASCII.

        texts may give the text of some fields (`texts`), by attribute,
        made already and row-aligned with the table; the other fields' are
        made here. join_rows joins them with the key literals between.
        """
        texts = texts or {}
        texts = {**self.texts([f.attr for f in self.fields if f.attr not in texts]), **texts}
        return join_rows(len(self), [texts[p] if isinstance(p, str) else p for p in self._parts])

    @classmethod
    def to_dict(cls, row) -> dict:
        """The stored document of a row object: the JSON value of each field the class declares, and its type if any."""
        return ({"type": cls.doc_type} if cls.doc_type else {}) | {f.key: f.json(getattr(row, f.row)) for f in cls.own}

    @classmethod
    def values(cls, doc: dict) -> dict:
        """The checked value of each field the class declares in a stored document, by row attribute."""
        return {f.row: f.value(doc) for f in cls.own}
