"""Grouping validated messages into port voyages and navigational phases.

A voyage is everything one vessel does inside the port area during a single
visit. Consecutive messages of the same vessel stay in one voyage unless
`validate.left_and_returned` says the vessel left the port between them;
the outage detector asks the same question, so a silence is either a split
between voyages or a candidate outage, never both. A voyage is gap-flagged
from the per-message gap flags the validate stage wrote, so whether an
outage silenced a vessel is decided once, in `validate`.
"""

import datetime as dt
from dataclasses import dataclass, field, replace
from typing import Iterable

from .codec import ANCHORED, MOORED, STATUS_KINDS
from .geo import haversine_m
from .jsonl import boolean, coordinate, format_ts, integer, optional_number, parse_ts
from .validate import SOFT_GAP_MOVE_M, ValidatedMessage, left_and_returned

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
        if current and (m.report.mmsi != current[0].report.mmsi or left_and_returned(current[-1].report, m.report)):
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


def flag_gaps(voyage: Voyage) -> Voyage:
    """Mark a voyage whose timing cannot be trusted across a data outage.

    A message's gap_flag says an outage silenced the vessel between it and
    the vessel's previous message. Such a gap inside the voyage is harmless
    when the vessel sat stopped on both sides of it without moving more than
    100 metres; any other flagged gap flags the voyage.
    """
    for prev, cur in zip(voyage.messages, voyage.messages[1:]):
        if not cur.gap_flag:
            continue
        moved = haversine_m(prev.report.lat, prev.report.lon, cur.report.lat, cur.report.lon)
        stopped_both = prev.corrected_navstat in STOPPED_STATUSES and cur.corrected_navstat in STOPPED_STATUSES
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
