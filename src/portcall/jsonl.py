"""JSONL files shared by the pipeline stages, and the dict codecs of single messages.

One JSON document per line, UTF-8, LF endings. Timestamps are second
precision ISO-8601 with a trailing Z; serialization is deterministic
(sorted keys, compact separators) so identical runs produce identical
bytes.

Positions, statics and validated messages are tables whose fields are each
declared once (`table.Table`): a table writes the lines of its rows and
reads stored lines into columns from that declaration. A single message,
one the line parser decoded or a stored one read back, goes through the
dict codecs here, the one-row forms of the same declaration, and `dumps`.
A stored static stays a message: its length or width of 0 is written back
as 0, where a Statics row holds it as "not available" and writes null.

A stored position's lat, lon, sog, cog and heading are read as floats, so a
number another tool wrote as an int (`"sog":5`) is written back as `5.0`,
as the columns hold it; a rate of turn past 2**53, which a float64 column
cannot hold exactly, does not read.
"""

import json

from .codec import PositionReport, Positions, StaticReport, Statics


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def message_to_dict(msg: PositionReport | StaticReport) -> dict:
    return (Positions if isinstance(msg, PositionReport) else Statics).to_dict(msg)


def message_from_dict(doc: dict) -> PositionReport | StaticReport:
    """The message a stored document holds; a field it lacks or holds a value of the wrong type of is a ValueError
    that starts with the field's key."""
    kind = doc.get("type")
    if kind == Positions.doc_type:
        return PositionReport(**Positions.values(doc))
    if kind == Statics.doc_type:
        return StaticReport(**Statics.values(doc))
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
