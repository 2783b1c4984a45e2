"""Position reports and validated messages as column sets, the form in which a run carries them.

`Positions` holds one row per position report: numpy columns of its
values, with NaN where the report has None. `Validated` adds the four
columns validate gives each row. Decode builds the positions from the
block pass's tables (`Positions.of_table`) and from the few reports the
line parser or a stored line gave (`Positions.of_reports`); validate and
voyages read the columns, and `Validated.line_chunks` makes the lines
of validated.jsonl from them. No text and no object is held per row: a
row's stored document is the template over the texts of its values, and
only a stored row whose numbers the float64 columns cannot retell (an
int `"sog":5`) keeps its own line. A chunk's texts are made once per
distinct value in it, not once per row. PositionReport and
ValidatedMessage are the row types: indexing or iterating a column set
builds them, _CHUNK rows at a time.
"""

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .codec import (COG_VALUES, HEADING_VALUES, ROT_VALUES, SOG_VALUES, PositionReport, PositionTable, epoch_us,
                    from_epoch_us)
from .jsonl import position_field_texts, position_line, validated_line, validated_text


def _numbers(values) -> np.ndarray:
    """The values as float64, NaN for None."""
    return np.array([math.nan if v is None else v for v in values], dtype=np.float64)


def _optional(value: float):
    return None if value != value else value


def _report(time_us: int, mmsi: int, navstat: int, lat: float, lon: float, sog: float, cog: float, heading: float,
            rot: float) -> PositionReport:
    """The PositionReport of one row of Positions' columns."""
    return PositionReport(mmsi, from_epoch_us(time_us), lat, lon, _optional(sog), _optional(cog), _optional(heading),
                          navstat, None if rot != rot else int(rot))


def _needs_own_line(r: PositionReport) -> bool:
    """Whether the texts of the report's values as float64 differ from those position_line writes: a number held
    as an int (`5` is written `5.0` from a float), or a rate of turn past what a float64 holds exactly."""
    return (type(r.lat) is int or type(r.lon) is int or type(r.sog) is int or type(r.cog) is int
            or type(r.heading) is int or r.rot is not None and int(float(r.rot)) != r.rot)


# rows that Positions and Validated turn into Python objects at a time, when they are iterated or written
_CHUNK = 4096


# what each raw value reads as, indexed as codec's tables are: SOG by raw value, COG by min(raw, 3600), heading by
# raw value, rate of turn by raw + 128
_SOG, _COG, _HEADING, _ROT = map(_numbers, (SOG_VALUES, COG_VALUES, HEADING_VALUES, ROT_VALUES))


@dataclass(eq=False)
class Positions:
    """Position reports as columns, one row per report.

    time_us holds int64 microseconds since 1970-01-01 UTC, mmsi and navstat
    int64; lat, lon, sog, cog, heading and rot hold float64, NaN where the
    report has None. A row's stored document is, as a rule, the position
    template over the texts of its values (`jsonl.position_field_texts`),
    so no text is held for it. own_lines holds the document of each rare
    row for which that is not so, and None for every other row: such a row
    was read from a file that wrote a number as an int (`"sog":5`, not
    `5.0`), and its validated line takes every number's text from there.
    An int index gives the row's PositionReport; a slice, mask or index
    array gives the column set of those rows.
    """

    time_us: np.ndarray
    mmsi: np.ndarray
    navstat: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    sog: np.ndarray
    cog: np.ndarray
    heading: np.ndarray
    rot: np.ndarray
    own_lines: np.ndarray

    def columns(self) -> tuple:
        return (self.time_us, self.mmsi, self.navstat, self.lat, self.lon, self.sog, self.cog, self.heading,
                self.rot, self.own_lines)

    def __len__(self) -> int:
        return len(self.time_us)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return _report(*(c[rows].item() for c in self.columns()[:-1]))
        return Positions(*(c[rows] for c in self.columns()))

    def __iter__(self):
        """The PositionReport of each row, in order."""
        for a in range(0, len(self), _CHUNK):
            yield from map(_report, *(c[a:a + _CHUNK].tolist() for c in self.columns()[:-1]))

    @classmethod
    def concat(cls, parts: Sequence["Positions"]) -> "Positions":
        """The rows of every part, in order."""
        if len(parts) == 1:
            return parts[0]
        return cls(*map(np.concatenate, zip(*(part.columns() for part in parts)))) if parts else cls.of_reports([])

    @classmethod
    def of_table(cls, table: PositionTable) -> "Positions":
        """The rows of a decoded position table."""
        return cls(table.time_us, table.mmsi, table.navstat, table.lat, table.lon, _SOG[table.sog],
                   _COG[np.minimum(table.cog, 3600)], _HEADING[table.heading], _ROT[table.rot + 128],
                   np.full(len(table), None, dtype=object))

    @classmethod
    def of_reports(cls, reports: Sequence[PositionReport]) -> "Positions":
        """The rows of the given reports, in order: positions the line parser decoded, or loaded from a file."""
        def column(values, dtype=np.float64):
            return np.fromiter(values, dtype=dtype, count=len(reports))

        def numbers(name):
            return column(math.nan if v is None else v for v in map(attrgetter(name), reports))

        return cls(column((epoch_us(r.timestamp) for r in reports), np.int64),
                   column(map(attrgetter("mmsi"), reports), np.int64),
                   column(map(attrgetter("navstat"), reports), np.int64),
                   *map(numbers, ("lat", "lon", "sog", "cog", "heading", "rot")),
                   column((position_line(r) if _needs_own_line(r) else None for r in reports), object))


@dataclass(slots=True)
class ValidatedMessage:
    """A position report plus the corrected status and its provenance.

    method names the classifier whose vote produced the candidate status for
    this message; corrected_navstat is the value after debouncing, so a
    suppressed single-message flip keeps the surrounding status.
    """

    report: PositionReport
    corrected_navstat: int
    method: str
    agreed_with_reported: bool
    gap_flag: bool


@dataclass(eq=False)
class Validated:
    """Validated messages as columns: the positions, and for each row the fields of its ValidatedMessage.

    corrected_navstat is int64, method an object array of vote labels, and
    agreed_with_reported and gap_flag are bool. An int index gives the
    row's ValidatedMessage, and iterating gives every row's in turn; a
    slice, mask or index array gives the column set of those rows. Two
    column sets are equal when their rows are.
    """

    positions: Positions
    corrected_navstat: np.ndarray
    method: np.ndarray
    agreed_with_reported: np.ndarray
    gap_flag: np.ndarray

    def __len__(self) -> int:
        return len(self.corrected_navstat)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return ValidatedMessage(self.positions[rows], int(self.corrected_navstat[rows]), self.method[rows],
                                    bool(self.agreed_with_reported[rows]), bool(self.gap_flag[rows]))
        return Validated(self.positions[rows], self.corrected_navstat[rows], self.method[rows],
                         self.agreed_with_reported[rows], self.gap_flag[rows])

    def __iter__(self):
        for a in range(0, len(self), _CHUNK):
            rows = self[a:a + _CHUNK]
            yield from map(ValidatedMessage, rows.positions, rows.corrected_navstat.tolist(), rows.method.tolist(),
                           rows.agreed_with_reported.tolist(), rows.gap_flag.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Validated) and list(self) == list(other)

    def line_chunks(self):
        """The stored document of each row, as one list for each _CHUNK rows in turn.

        A row with a line of its own takes its field texts from that line.
        """
        for a in range(0, len(self), _CHUNK):
            rows = self[a:a + _CHUNK]
            p = rows.positions
            cog, heading, lat, lon, mmsi, navstat, rot, sog, ts = position_field_texts(*p.columns()[:-1])
            agreed, corrected = rows.agreed_with_reported.tolist(), rows.corrected_navstat.tolist()
            gap_flag, method = rows.gap_flag.tolist(), rows.method.tolist()
            lines = list(map(validated_text, agreed, cog, corrected, gap_flag, heading, lat, lon, method, mmsi,
                             navstat, rot, sog, ts))
            for i in np.flatnonzero(p.own_lines != None).tolist():  # noqa: E711 (elementwise)
                lines[i] = validated_line(p.own_lines[i], agreed[i], corrected[i], gap_flag[i], method[i])
            yield lines

    @classmethod
    def concat(cls, parts: Sequence["Validated"]) -> "Validated":
        """The rows of every part, in order."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.of_messages([])
        return cls(Positions.concat([part.positions for part in parts]),
                   *(np.concatenate(c) for c in zip(*((p.corrected_navstat, p.method, p.agreed_with_reported,
                                                        p.gap_flag) for p in parts))))

    @classmethod
    def of_messages(cls, messages: Sequence[ValidatedMessage]) -> "Validated":
        """The rows of the given messages, in order, such as those loaded from a validated file."""
        def column(name, dtype):
            return np.fromiter(map(attrgetter(name), messages), dtype=dtype, count=len(messages))

        return cls(Positions.of_reports([m.report for m in messages]), column("corrected_navstat", np.int64),
                   column("method", object), column("agreed_with_reported", bool), column("gap_flag", bool))
