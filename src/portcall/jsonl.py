"""JSONL files shared by the pipeline stages, and the dict codec of a single position.

One JSON document per line, UTF-8, LF endings. Timestamps are second
precision ISO-8601 with a trailing Z; serialization is deterministic
(sorted keys, compact separators) so identical runs produce identical
bytes.

Positions, statics and validated messages are tables whose fields are each
declared once (`table.Table`): a table writes the lines of its rows and
reads stored lines into columns from that declaration, a stored message in
replay included. No command runs the dict codec of a position here, the
one-row form of the same declaration: perfbench's tracer looks it up, and
the tests check the table writers against it.

A stored position's lat, lon, sog, cog and heading are read as floats, so a
number another tool wrote as an int (`"sog":5`) is written back as `5.0`,
as the columns hold it; a rate of turn past 2**53, which a float64 column
cannot hold exactly, does not read.
"""

import json

from .codec import PositionReport, Positions
from .table import parse_json


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def message_to_dict(msg: PositionReport) -> dict:
    return Positions.to_dict(msg)


def message_from_dict(doc: dict) -> PositionReport:
    """The position a stored document holds; a field it lacks or holds a value of the wrong type of is a ValueError
    that starts with the field's key."""
    return PositionReport(**Positions.values(doc))


def read_jsonl(path):
    """Yield parsed documents from a JSONL file; a UTF-8 byte-order mark that starts it is skipped."""
    with open(path, "r", encoding="utf-8-sig") as f:
        for line in f:
            line = line.strip()
            if line:
                yield parse_json(line)


def write_jsonl(path, docs) -> int:
    """Write documents to a JSONL file; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            f.write(dumps(doc))
            f.write("\n")
            n += 1
    return n
