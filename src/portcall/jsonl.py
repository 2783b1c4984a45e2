"""JSONL schemas shared by the pipeline stages.

One JSON document per line, UTF-8, LF endings. Timestamps are second
precision ISO-8601 with a trailing Z; serialization is deterministic
(sorted keys, compact separators) so identical runs produce identical
bytes. Every stored position's timestamp goes through `format_ts`, so it
writes the text from the hour, minute and second and a cached text of the
day rather than through `isoformat`.

Positions and validated messages are nearly every document a run writes,
so each has one fixed template that writes the text `dumps` would write
for its dict without building the dict: the keys are known and sorted
once, every value is a number, a bool, null, a timestamp or one of
validate's fixed method labels, so nothing needs escaping. Both templates
take the texts of a position's fields, which the one column writer,
`position_field_texts`, gives for every row of a `codec.Positions` column
set; `position_lines` fills the position template with them (the store and
decoded.jsonl), and `columnar.Validated.line_chunks` the validated one. It
makes each text once per distinct value of the rows it is given, not once
per row: a float once per float64 bit pattern, so -0.0 and 0.0, and NaNs,
stay apart, and MMSI and navigational status with `str` once per distinct
integer (`np.unique`). The static column writer, `static_lines`, writes the
document of each row of a `codec.Statics` column set in one template too,
escaping the vessel name as `dumps` does. A single message, one the line
parser decoded or a stored one read back, and errors, outages and voyages
are few and may hold free text (vessel names, raw lines), so they go
through their dict codecs and `dumps`, which escapes it.

A stored position's lat, lon, sog, cog and heading are read as floats, so a
number another tool wrote as an int (`"sog":5`) is written back as `5.0`,
as the columns hold it; a rate of turn past 2**53, which a float64 column
cannot hold exactly, does not read.
"""

import datetime as dt
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .codec import PositionReport, Positions, StaticReport, Statics

UTC = dt.timezone.utc


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


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _position_text(cog, heading, lat, lon, mmsi, navstat, rot, sog, ts) -> str:
    """The stored document of a position from the JSON texts of its fields."""
    return (f'{{"cog":{cog},"heading":{heading},"lat":{lat},"lon":{lon},"mmsi":{mmsi},"navstat":{navstat},'
            f'"rot":{rot},"sog":{sog},"ts":"{ts}","type":"position"}}')


_MINUTE_TEXT = np.array([f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60)], dtype=object)
_SECOND_TEXT = np.array([f"{s:02d}Z" for s in range(60)], dtype=object)
_EPOCH_DAY = dt.date(1970, 1, 1).toordinal()


def _timestamp_texts(time_us: np.ndarray) -> list[str]:
    """The stored text of each time given in microseconds since 1970-01-01 UTC, cut to the second."""
    days, day_us = np.divmod(time_us, 86_400_000_000)
    minutes, seconds = np.divmod(day_us // 1_000_000, 60)
    day_ordinals, day_rows = np.unique(days, return_inverse=True)
    day_texts = np.array([_day_text(d + _EPOCH_DAY) for d in day_ordinals.tolist()], dtype=object)
    return (day_texts[day_rows] + _MINUTE_TEXT[minutes] + _SECOND_TEXT[seconds]).tolist()


def _integer_texts(values: np.ndarray) -> list[str]:
    """The text of each int64 value, made once per distinct value."""
    distinct, rows = np.unique(values, return_inverse=True)
    return np.array(list(map(str, distinct.tolist())), dtype=object)[rows].tolist()


def _texts_of(values: np.ndarray, text) -> list[str]:
    """text(v) for each float64 v, called once per distinct bit pattern (so -0.0 and 0.0 stay apart)."""
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([text(v) for v in bits.view(np.float64).tolist()], dtype=object)[rows].tolist()


def _number_text(value: float) -> str:
    return "null" if value != value else repr(value)


def _integer_text(value: float) -> str:
    return "null" if value != value else repr(int(value))


def position_field_texts(positions: Positions) -> tuple[list, ...]:
    """The texts of the fields of each row of a column set, in the order `_position_text` takes them: those
    `dumps(message_to_dict(r))` writes for the row's report r, a float as its repr, the rate of turn as an int and
    NaN as null."""
    p = positions
    return (_texts_of(p.cog, _number_text), _texts_of(p.heading, _number_text), _texts_of(p.lat, _number_text),
            _texts_of(p.lon, _number_text), _integer_texts(p.mmsi), _integer_texts(p.navstat),
            _texts_of(p.rot, _integer_text), _texts_of(p.sog, _number_text), _timestamp_texts(p.time_us))


def position_lines(positions: Positions) -> list[str]:
    """The stored document of each row of a column set, equal to `dumps(message_to_dict(r))` of the row's report."""
    return list(map(_position_text, *position_field_texts(positions)))


def _static_text(length, mmsi, name, ship_type, ts, width) -> str:
    """The stored document of a static report from the JSON texts of its fields."""
    return (f'{{"length":{length},"mmsi":{mmsi},"name":{name},"ship_type":{ship_type},"ts":{ts},"type":"static",'
            f'"width":{width}}}')


def _dimension_text(value: int) -> str:
    return "null" if value == 0 else str(value)


def static_lines(statics: Statics) -> list[str]:
    """The stored document of each row of a static column set, equal to `dumps(message_to_dict(r))` of the row's
    report: the name escaped as `dumps` escapes it, a length or width of 0 as null."""
    s = statics
    ts = [f'"{text}"' for text in _timestamp_texts(s.time_us)]
    return list(map(_static_text, map(_dimension_text, s.length.tolist()), map(str, s.mmsi.tolist()),
                    map(encode_basestring_ascii, s.name.tolist()), map(str, s.ship_type.tolist()), ts,
                    map(_dimension_text, s.width.tolist())))


def validated_text(agreed_with_reported: bool, cog, corrected_navstat: int, gap_flag: bool, heading, lat, lon,
                   method: str, mmsi, navstat, rot, sog, ts) -> str:
    """The stored document of a validated message from the texts of its position's fields (as `_position_text`
    takes them) and the four fields validate adds; equal to `dumps(cli.validated_to_dict(vm))`.

    `method` is written unescaped: it is one of validate's fixed ASCII labels.
    """
    return (f'{{"agreed_with_reported":{"true" if agreed_with_reported else "false"},"cog":{cog},'
            f'"corrected_navstat":{corrected_navstat},"gap_flag":{"true" if gap_flag else "false"},'
            f'"heading":{heading},"lat":{lat},"lon":{lon},"method":"{method}","mmsi":{mmsi},"navstat":{navstat},'
            f'"rot":{rot},"sog":{sog},"ts":"{ts}","type":"validated"}}')


def message_to_dict(msg: PositionReport | StaticReport) -> dict:
    if isinstance(msg, PositionReport):
        return {
            "type": "position",
            "mmsi": msg.mmsi,
            "ts": format_ts(msg.timestamp),
            "lat": msg.lat,
            "lon": msg.lon,
            "sog": msg.sog,
            "cog": msg.cog,
            "heading": msg.heading,
            "navstat": msg.navstat,
            "rot": msg.rot,
        }
    return {
        "type": "static",
        "mmsi": msg.mmsi,
        "ts": format_ts(msg.timestamp) if msg.timestamp else None,
        "name": msg.vessel_name,
        "ship_type": msg.ship_type,
        "length": msg.length,
        "width": msg.width,
    }


# Checkers for the fields of a stored document: each returns the value when
# it has the right type and raises ValueError naming the field otherwise.

_INT64 = 1 << 63
_FLOAT_EXACT = 1 << 53  # float64 holds every integer up to this magnitude exactly, and not the next one


def coordinate(value, key: str, limit: float) -> float:
    """A finite number in [-limit, limit], the range the NMEA decoder accepts, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -limit <= value <= limit:
        raise ValueError(f"{key} {value!r} is not a number in [-{limit:g}, {limit:g}]")
    return float(value)


def integer(value, key: str) -> int:
    """An int that fits the int64 columns the stages hold it in."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} {value!r} is not an integer")
    if not -_INT64 <= value < _INT64:
        raise ValueError(f"{key} {value!r} does not fit in 64 bits")
    return value


def optional_integer(value, key: str) -> int | None:
    return None if value is None else integer(value, key)


def text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    return value


def optional_number(value, key: str) -> float | None:
    """None, or a number a float64 holds, as a float: an int past the largest float is no finite number either."""
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{key} {value!r} is not null or a finite number")
    return float(value)


def rate_of_turn(value, key: str) -> int | None:
    """None, or an int a float64 holds exactly, as the columns hold the rate of turn."""
    value = optional_integer(value, key)
    if value is not None and abs(value) > _FLOAT_EXACT:
        raise ValueError(f"{key} {value!r} is past the integers a float64 holds exactly")
    return value


def boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not true or false")
    return value


def message_from_dict(doc: dict) -> PositionReport | StaticReport:
    """The message a stored document holds; a field of the wrong type is a ValueError.

    A position's lat, lon, sog, cog and heading read as floats, as the columns hold them, whether stored as an int
    or a float.
    """
    kind = doc.get("type")
    if kind == "position":
        return PositionReport(
            mmsi=integer(doc["mmsi"], "mmsi"),
            timestamp=parse_ts(doc["ts"]),
            lat=coordinate(doc["lat"], "lat", 90.0),
            lon=coordinate(doc["lon"], "lon", 180.0),
            sog=optional_number(doc.get("sog"), "sog"),
            cog=optional_number(doc.get("cog"), "cog"),
            heading=optional_number(doc.get("heading"), "heading"),
            navstat=integer(doc["navstat"], "navstat"),
            rot=rate_of_turn(doc.get("rot"), "rot"),
        )
    if kind == "static":
        return StaticReport(
            mmsi=integer(doc["mmsi"], "mmsi"),
            vessel_name=text(doc.get("name", ""), "name"),
            ship_type=integer(doc.get("ship_type", 0), "ship_type"),
            length=optional_integer(doc.get("length"), "length"),
            width=optional_integer(doc.get("width"), "width"),
            timestamp=parse_ts(doc["ts"]) if doc.get("ts") else None,
        )
    raise ValueError(f"unknown message type {kind!r}")


def read_jsonl(path):
    """Yield parsed documents from a JSONL file."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_jsonl(path, docs) -> int:
    """Write documents to a JSONL file; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            f.write(dumps(doc))
            f.write("\n")
            n += 1
    return n
