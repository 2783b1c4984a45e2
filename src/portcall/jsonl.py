"""JSONL schemas shared by the pipeline stages.

One JSON document per line, UTF-8, LF endings. Timestamps are second
precision ISO-8601 with a trailing Z; serialization is deterministic
(sorted keys, compact separators) so identical runs produce identical
bytes.
"""

import datetime as dt
import json
import math

from .codec import PositionReport, StaticReport

UTC = dt.timezone.utc


def format_ts(t: dt.datetime) -> str:
    return t.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_ts(s: str) -> dt.datetime:
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    t = dt.datetime.fromisoformat(s)
    if t.tzinfo is None:
        t = t.replace(tzinfo=UTC)
    return t.astimezone(UTC)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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


def _coordinate(doc: dict, key: str, limit: float) -> float:
    """doc[key] when it is a finite number in [-limit, limit], the range the NMEA decoder accepts."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -limit <= value <= limit:
        raise ValueError(f"{key} {value!r} is not a number in [-{limit:g}, {limit:g}]")
    return value


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _optional_number(value, key: str) -> float | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not math.isfinite(value)):
        raise ValueError(f"{key} {value!r} is not null or a finite number")
    return value


def message_from_dict(doc: dict) -> PositionReport | StaticReport:
    """The message a stored document holds; a field of the wrong type is a ValueError."""
    kind = doc.get("type")
    if kind == "position":
        rot = doc.get("rot")
        return PositionReport(
            mmsi=_integer(doc["mmsi"], "mmsi"),
            timestamp=parse_ts(doc["ts"]),
            lat=_coordinate(doc, "lat", 90.0),
            lon=_coordinate(doc, "lon", 180.0),
            sog=_optional_number(doc.get("sog"), "sog"),
            cog=_optional_number(doc.get("cog"), "cog"),
            heading=_optional_number(doc.get("heading"), "heading"),
            navstat=_integer(doc["navstat"], "navstat"),
            rot=None if rot is None else _integer(rot, "rot"),
        )
    if kind == "static":
        return StaticReport(
            mmsi=_integer(doc["mmsi"], "mmsi"),
            vessel_name=doc.get("name", ""),
            ship_type=_integer(doc.get("ship_type", 0), "ship_type"),
            length=doc.get("length"),
            width=doc.get("width"),
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
