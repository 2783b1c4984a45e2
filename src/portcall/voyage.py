"""Grouping validated messages into port voyages and navigational phases.

A voyage is everything one vessel does inside the port area during a single
visit. Consecutive messages of the same vessel stay in one voyage unless
`validate.left_and_returned` says the vessel left the port between them;
the outage detector asks the same question, so a silence is either a split
between voyages or a candidate outage, never both. A voyage is gap-flagged
from the per-message gap flags the validate stage wrote, so whether an
outage silenced a vessel is decided once, in `validate`.

The messages stay columns (`columnar.Validated`): `extract_voyages` sorts
them once by (mmsi, time), finds every split from the shifted columns, and
gives each voyage its range of the sorted rows. Phases are run lengths of
the corrected status over that range, and only the few flagged gaps are
looked at one by one.

voyages.jsonl holds one document per voyage, its phases in a list. The
fields of both are declared once, as tables without a document type
(`Voyages`, `Phases`); voyage_to_dict and voyage_from_dict are their one-row
forms.
"""

import datetime as dt
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import ANCHORED, MOORED, STATUS_KINDS
from .geo import haversine_m
from .table import BOOLEAN, INTEGER, LATITUDE, LONGITUDE, NUMBER, TEXT, TIME, Field, Table, from_epoch_us
from .columnar import Validated
from .validate import SOFT_GAP_MOVE_M, left_and_returned

STOPPED_STATUSES = (ANCHORED, MOORED)


@dataclass
class Phase:
    """A maximal run of one corrected status within a voyage.

    Phases tile the voyage: each phase ends where the next begins, and the
    last one closes at the voyage's final message.
    """

    kind: str
    start: dt.datetime
    end: dt.datetime
    mean_sog: float | None
    lat: float
    lon: float
    n_messages: int
    n_sog: int

    @property
    def duration(self) -> dt.timedelta:
        return self.end - self.start


@dataclass
class Voyage:
    """One vessel's visit. messages is its range of the rows extract_voyages sorted, as columns; a voyage
    read back from its file has none."""

    mmsi: int
    arrival: dt.datetime
    departure: dt.datetime
    messages: Validated | list = field(default_factory=list, repr=False)
    phases: list[Phase] = field(default_factory=list)
    gap_flagged: bool = False


class Phases(Table):
    """A stored phase's fields; its kind is declared as phase_kind, since a table's `kind` is its document type."""

    phase_kind = Field(TEXT.one_of(STATUS_KINDS.values()), key="kind", row="kind")
    start = Field(TIME)
    end = Field(TIME)
    mean_sog = Field(NUMBER, default=None)
    lat = Field(LATITUDE)
    lon = Field(LONGITUDE)
    n_messages = Field(INTEGER, default=0)
    n_sog = Field(INTEGER, default=0)


class Voyages(Table):
    """A stored voyage's fields that read back; voyage_to_dict adds its message count and its phases."""

    mmsi = Field(INTEGER)
    arrival = Field(TIME)
    departure = Field(TIME)
    gap_flagged = Field(BOOLEAN, default=False)


def extract_voyages(messages: Validated) -> list[Voyage]:
    """Partition messages into voyages; every message lands in exactly one.

    The input is sorted by (mmsi, timestamp) internally, rows that tie on
    both in input order, so feeding an unsorted stream gives the same result.
    """
    rows = messages[np.lexsort((messages.positions.time_us, messages.positions.mmsi))]
    p = rows.positions
    if not len(p):
        return []
    starts = np.ones(len(p), dtype=bool)
    starts[1:] = (p.mmsi[1:] != p.mmsi[:-1]) | left_and_returned(p[:-1], p[1:])
    bounds = np.flatnonzero(starts).tolist() + [len(p)]
    return [Voyage(mmsi=int(p.mmsi[a]), arrival=from_epoch_us(int(p.time_us[a])),
                   departure=from_epoch_us(int(p.time_us[b - 1])), messages=rows[a:b])
            for a, b in zip(bounds, bounds[1:])]


def segment_phases(voyage: Voyage) -> Voyage:
    """Split a voyage into status phases by run-length over corrected status."""
    rows = voyage.messages
    n = len(rows)
    if not n:
        return replace(voyage, phases=[])
    status = rows.corrected_navstat
    bounds = [0] + (np.flatnonzero(status[1:] != status[:-1]) + 1).tolist() + [n]
    p = rows.positions
    times, kinds = p.time_us.tolist(), status.tolist()
    phases: list[Phase] = []
    for a, b in zip(bounds, bounds[1:]):
        sogs = p.sog[a:b]
        sogs = sogs[~np.isnan(sogs)].tolist()
        phases.append(
            Phase(
                kind=STATUS_KINDS[kinds[a]],
                start=from_epoch_us(times[a]),
                end=from_epoch_us(times[min(b, n - 1)]),
                mean_sog=sum(sogs) / len(sogs) if sogs else None,
                lat=sum(p.lat[a:b].tolist()) / (b - a),
                lon=sum(p.lon[a:b].tolist()) / (b - a),
                n_messages=b - a,
                n_sog=len(sogs),
            )
        )
    return replace(voyage, phases=phases)


def flag_gaps(voyage: Voyage) -> Voyage:
    """Mark a voyage whose timing cannot be trusted across a data outage.

    A message's gap_flag says an outage silenced the vessel between it and
    the vessel's previous message. Such a gap inside the voyage is harmless
    when the vessel sat stopped on both sides of it without moving more than
    100 metres; any other flagged gap flags the voyage.
    """
    rows = voyage.messages
    lat, lon, status = rows.positions.lat, rows.positions.lon, rows.corrected_navstat
    for i in (np.flatnonzero(rows.gap_flag[1:]) + 1).tolist():
        moved = haversine_m(float(lat[i - 1]), float(lon[i - 1]), float(lat[i]), float(lon[i]))
        stopped_both = status[i - 1] in STOPPED_STATUSES and status[i] in STOPPED_STATUSES
        if moved > SOFT_GAP_MOVE_M or not stopped_both:
            return replace(voyage, gap_flagged=True)
    return replace(voyage, gap_flagged=False)


def voyage_to_dict(voyage: Voyage) -> dict:
    return {**Voyages.to_dict(voyage), "n_messages": len(voyage.messages) or sum(p.n_messages for p in voyage.phases),
            "phases": [Phases.to_dict(p) for p in voyage.phases]}


def voyage_from_dict(doc: dict) -> Voyage:
    """The voyage a stored document holds; a field it lacks or holds a value of the wrong type of is a ValueError
    that starts with the field's key."""
    return Voyage(**Voyages.values(doc), phases=[Phase(**Phases.values(p)) for p in doc.get("phases", [])])
