"""Grouping validated messages into port voyages and navigational phases.

A voyage is everything one vessel does inside the port area during a single
visit. Consecutive messages of the same vessel stay in one voyage unless the
gap between them exceeds 24 hours, or exceeds 5 hours while the vessel moved
more than 100 metres across the gap.
"""

import datetime as dt
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .codec import ANCHORED, MOORED, STATUS_KINDS
from .geo import haversine_m
from .jsonl import format_ts, parse_ts
from .validate import Outage, ValidatedMessage, _grid_cell

HARD_GAP = dt.timedelta(hours=24)
SOFT_GAP = dt.timedelta(hours=5)
SOFT_GAP_MOVE_M = 100.0

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
    mmsi: int
    arrival: dt.datetime
    departure: dt.datetime
    messages: list[ValidatedMessage] = field(default_factory=list, repr=False)
    phases: list[Phase] = field(default_factory=list)
    gap_flagged: bool = False


def _should_split(prev: ValidatedMessage, cur: ValidatedMessage) -> bool:
    gap = cur.report.timestamp - prev.report.timestamp
    if gap > HARD_GAP:
        return True
    if gap > SOFT_GAP:
        moved = haversine_m(prev.report.lat, prev.report.lon, cur.report.lat, cur.report.lon)
        if moved > SOFT_GAP_MOVE_M:
            return True
    return False


def extract_voyages(messages: Iterable[ValidatedMessage]) -> list[Voyage]:
    """Partition messages into voyages; every message lands in exactly one.

    The input is sorted by (mmsi, timestamp) internally, so feeding an
    unsorted stream gives the same result.
    """
    ordered = sorted(messages, key=lambda m: (m.report.mmsi, m.report.timestamp))
    voyages: list[Voyage] = []
    current: list[ValidatedMessage] = []

    def flush():
        if current:
            voyages.append(
                Voyage(
                    mmsi=current[0].report.mmsi,
                    arrival=current[0].report.timestamp,
                    departure=current[-1].report.timestamp,
                    messages=list(current),
                )
            )
            current.clear()

    for m in ordered:
        if current and (m.report.mmsi != current[0].report.mmsi or _should_split(current[-1], m)):
            flush()
        current.append(m)
    flush()
    return voyages


def segment_phases(voyage: Voyage) -> Voyage:
    """Split a voyage into status phases by run-length over corrected status."""
    msgs = voyage.messages
    if not msgs:
        return replace(voyage, phases=[])
    runs: list[list[ValidatedMessage]] = []
    for m in msgs:
        if runs and runs[-1][0].corrected_navstat == m.corrected_navstat:
            runs[-1].append(m)
        else:
            runs.append([m])
    phases: list[Phase] = []
    for i, run in enumerate(runs):
        start = run[0].report.timestamp
        end = runs[i + 1][0].report.timestamp if i + 1 < len(runs) else msgs[-1].report.timestamp
        sogs = [m.report.sog for m in run if m.report.sog is not None]
        phases.append(
            Phase(
                kind=STATUS_KINDS[run[0].corrected_navstat],
                start=start,
                end=end,
                mean_sog=sum(sogs) / len(sogs) if sogs else None,
                lat=sum(m.report.lat for m in run) / len(run),
                lon=sum(m.report.lon for m in run) / len(run),
                n_messages=len(run),
                n_sog=len(sogs),
            )
        )
    return replace(voyage, phases=phases)


def _straddling(msgs: Sequence[ValidatedMessage], outage: Outage):
    """Messages around the outage window.

    Returns (before, after, interior): the last message at or before the
    start, the first at or after the end, and whether the vessel reported
    inside the window at all.
    """
    before = None
    after = None
    interior = False
    for m in msgs:
        ts = m.report.timestamp
        if ts <= outage.start:
            before = m
        elif ts < outage.end:
            interior = True
            break
        else:
            after = m
            break
    return before, after, interior


def _outage_concerns(outage: Outage, mmsi: int, before, after) -> bool:
    if outage.scope == "global":
        return True
    if outage.scope == "vessel":
        return outage.subject == mmsi
    if outage.scope == "area" and outage.cell_deg:
        cell = tuple(int(v) for v in str(outage.subject).split(","))
        for m in (before, after):
            if m is not None and _grid_cell(m.report.lat, m.report.lon, outage.cell_deg) == cell:
                return True
    return False


def flag_gaps(voyage: Voyage, outages: Sequence[Outage]) -> Voyage:
    """Mark a voyage whose timing cannot be trusted across an outage.

    An overlapping outage is harmless when the vessel sat stopped on both
    sides of it without moving more than 100 metres; anything else flags the
    voyage.
    """
    flagged = False
    for o in outages:
        if not (o.start < voyage.departure and o.end > voyage.arrival):
            continue
        before, after, interior = _straddling(voyage.messages, o)
        if interior:
            continue  # the vessel kept reporting through the window
        if not _outage_concerns(o, voyage.mmsi, before, after):
            continue
        if before is None or after is None:
            flagged = True
            break
        moved = haversine_m(before.report.lat, before.report.lon, after.report.lat, after.report.lon)
        stopped_both = before.corrected_navstat in STOPPED_STATUSES and after.corrected_navstat in STOPPED_STATUSES
        if moved > SOFT_GAP_MOVE_M or not stopped_both:
            flagged = True
            break
    return replace(voyage, gap_flagged=flagged)


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
    return Voyage(
        mmsi=doc["mmsi"],
        arrival=parse_ts(doc["arrival"]),
        departure=parse_ts(doc["departure"]),
        messages=[],
        phases=[
            Phase(
                kind=p["kind"],
                start=parse_ts(p["start"]),
                end=parse_ts(p["end"]),
                mean_sog=p.get("mean_sog"),
                lat=p["lat"],
                lon=p["lon"],
                n_messages=p.get("n_messages", 0),
                n_sog=p.get("n_sog", 0),
            )
            for p in doc.get("phases", [])
        ],
        gap_flagged=doc.get("gap_flagged", False),
    )
