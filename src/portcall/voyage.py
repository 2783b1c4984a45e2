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
"""

import datetime as dt
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import ANCHORED, MOORED, STATUS_KINDS
from .geo import haversine_m
from .table import boolean, coordinate, format_ts, from_epoch_us, integer, optional_number, parse_ts
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
    return {
        "mmsi": voyage.mmsi,
        "arrival": format_ts(voyage.arrival),
        "departure": format_ts(voyage.departure),
        "n_messages": len(voyage.messages) or sum(p.n_messages for p in voyage.phases),
        "gap_flagged": voyage.gap_flagged,
        "phases": [
            {
                "kind": p.kind,
                "start": format_ts(p.start),
                "end": format_ts(p.end),
                "mean_sog": p.mean_sog,
                "lat": p.lat,
                "lon": p.lon,
                "n_messages": p.n_messages,
                "n_sog": p.n_sog,
            }
            for p in voyage.phases
        ],
    }


def voyage_from_dict(doc: dict) -> Voyage:
    """The voyage a stored document holds; a field of the wrong type is a ValueError."""
    phases = []
    for p in doc.get("phases", []):
        if p["kind"] not in STATUS_KINDS.values():
            raise ValueError(f"phase kind {p['kind']!r} is not one of {sorted(STATUS_KINDS.values())}")
        phases.append(
            Phase(
                kind=p["kind"],
                start=parse_ts(p["start"]),
                end=parse_ts(p["end"]),
                mean_sog=optional_number(p.get("mean_sog"), "mean_sog"),
                lat=coordinate(p["lat"], "lat", 90.0),
                lon=coordinate(p["lon"], "lon", 180.0),
                n_messages=integer(p.get("n_messages", 0), "n_messages"),
                n_sog=integer(p.get("n_sog", 0), "n_sog"),
            )
        )
    return Voyage(
        mmsi=integer(doc["mmsi"], "mmsi"),
        arrival=parse_ts(doc["arrival"]),
        departure=parse_ts(doc["departure"]),
        messages=[],
        phases=phases,
        gap_flagged=boolean(doc.get("gap_flagged", False), "gap_flagged"),
    )
