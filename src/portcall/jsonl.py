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
validate's fixed method labels, so nothing needs escaping. The position
template takes the texts of the fields: `position_line` gives it those of
one report, and `position_lines` those of every row of a decoded
PositionTable, read from its columns and from tables of the texts of the
raw SOG, COG, heading and rate of turn. `validated_line` writes a
validated message. Statics, errors, outages and voyages are few and hold
free text (vessel names, raw lines), so they go through their dict codecs
and `dumps`, which escapes it.
"""

import datetime as dt
import functools
import json
import math

import numpy as np

from .codec import COG_VALUES, HEADING_VALUES, ROT_VALUES, SOG_VALUES, PositionReport, PositionTable, StaticReport

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
    """The stored document of a position from the JSON texts of its fields; an int or float field may be
    given as the number, which formats as its `repr`, the text `json` writes for it."""
    return (f'{{"cog":{cog},"heading":{heading},"lat":{lat},"lon":{lon},"mmsi":{mmsi},"navstat":{navstat},'
            f'"rot":{rot},"sog":{sog},"ts":"{ts}","type":"position"}}')


def _optional(value) -> str:
    return "null" if value is None else repr(value)


def position_line(r: PositionReport) -> str:
    """The stored document of a position report, equal to `dumps(message_to_dict(r))`."""
    return _position_text(_optional(r.cog), _optional(r.heading), repr(r.lat), repr(r.lon), repr(r.mmsi),
                          repr(r.navstat), _optional(r.rot), _optional(r.sog), format_ts(r.timestamp))


def _texts(values) -> np.ndarray:
    return np.array([_optional(v) for v in values], dtype=object)


# the text of each raw value, indexed as codec's tables of the values are
_SOG_TEXT, _COG_TEXT, _HEADING_TEXT, _ROT_TEXT = map(_texts, (SOG_VALUES, COG_VALUES, HEADING_VALUES, ROT_VALUES))
_MINUTE_TEXT = np.array([f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60)], dtype=object)
_SECOND_TEXT = np.array([f"{s:02d}Z" for s in range(60)], dtype=object)


def position_lines(table: PositionTable) -> list[str]:
    """The stored document of each row of a position table, equal to `position_line` of the row's report."""
    days = table.utc_days()
    minutes, seconds = np.divmod(table.time_us // 1_000_000, 60)
    day_ordinals, day_rows = np.unique(days, return_inverse=True)
    day_texts = np.array([_day_text(d) for d in day_ordinals.tolist()], dtype=object)
    ts = day_texts[day_rows] + _MINUTE_TEXT[minutes % 1440] + _SECOND_TEXT[seconds]
    return list(map(_position_text, _COG_TEXT[np.minimum(table.cog, 3600)].tolist(),
                    _HEADING_TEXT[table.heading].tolist(), table.lat.tolist(), table.lon.tolist(),
                    table.mmsi.tolist(), table.navstat.tolist(), _ROT_TEXT[table.rot + 128].tolist(),
                    _SOG_TEXT[table.sog].tolist(), ts.tolist()))


def validated_line(vm) -> str:
    """The stored document of a `validate.ValidatedMessage`, equal to `dumps(cli.validated_to_dict(vm))`.

    `vm.method` is written unescaped: it is one of validate's fixed ASCII labels.
    """
    r = vm.report
    return (f'{{"agreed_with_reported":{"true" if vm.agreed_with_reported else "false"},'
            f'"cog":{"null" if r.cog is None else repr(r.cog)},"corrected_navstat":{vm.corrected_navstat!r},'
            f'"gap_flag":{"true" if vm.gap_flag else "false"},'
            f'"heading":{"null" if r.heading is None else repr(r.heading)},'
            f'"lat":{r.lat!r},"lon":{r.lon!r},"method":"{vm.method}","mmsi":{r.mmsi!r},'
            f'"navstat":{r.navstat!r},"rot":{"null" if r.rot is None else repr(r.rot)},'
            f'"sog":{"null" if r.sog is None else repr(r.sog)},"ts":"{format_ts(r.timestamp)}","type":"validated"}}')


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


def coordinate(value, key: str, limit: float) -> float:
    """A finite number in [-limit, limit], the range the NMEA decoder accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -limit <= value <= limit:
        raise ValueError(f"{key} {value!r} is not a number in [-{limit:g}, {limit:g}]")
    return value


def integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def optional_integer(value, key: str) -> int | None:
    return None if value is None else integer(value, key)


def text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    return value


def optional_number(value, key: str) -> float | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not math.isfinite(value)):
        raise ValueError(f"{key} {value!r} is not null or a finite number")
    return value


def boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not true or false")
    return value


def message_from_dict(doc: dict) -> PositionReport | StaticReport:
    """The message a stored document holds; a field of the wrong type is a ValueError."""
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
            rot=optional_integer(doc.get("rot"), "rot"),
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
