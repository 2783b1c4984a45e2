"""Validated messages as a column set, the form in which validate hands them to voyages.

`Validated` holds the positions (`codec.Positions`, the one column set of
decoded positions) and the four columns validate gives each row.
`Validated.line_chunks` makes the lines of validated.jsonl from the
columns with jsonl's one column writer, so no text and no object is held
per row. ValidatedMessage is the row type: indexing or iterating the column
set builds them, CHUNK_ROWS rows at a time.
"""

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .codec import CHUNK_ROWS, PositionReport, Positions
from .jsonl import position_field_texts, validated_text


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
        for a in range(0, len(self), CHUNK_ROWS):
            rows = self[a:a + CHUNK_ROWS]
            yield from map(ValidatedMessage, rows.positions, rows.corrected_navstat.tolist(), rows.method.tolist(),
                           rows.agreed_with_reported.tolist(), rows.gap_flag.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Validated) and list(self) == list(other)

    def line_chunks(self):
        """The stored document of each row, as one list for each CHUNK_ROWS rows in turn."""
        for a in range(0, len(self), CHUNK_ROWS):
            rows = self[a:a + CHUNK_ROWS]
            cog, heading, lat, lon, mmsi, navstat, rot, sog, ts = position_field_texts(rows.positions)
            yield list(map(validated_text, rows.agreed_with_reported.tolist(), cog, rows.corrected_navstat.tolist(),
                           rows.gap_flag.tolist(), heading, lat, lon, rows.method.tolist(), mmsi, navstat, rot, sog,
                           ts))

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
