"""Port and vessel efficiency metrics over segmented voyages.

Turnaround time runs from the first berthing to the final unberthing of a
terminal stay; the anchorage wait is the anchored time spent before that
berthing. Daily arrival counts are bucketed by UTC date and vessel category
and can be scored against port ground-truth call records with a per-category
mean absolute error.
"""

import csv
import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geo import PortGeometry
from .table import parse_ts
from .voyage import Voyage

CATEGORIES = ("cargo", "tanker", "passenger", "other")


class EmptyOverlap(ValueError):
    """Predicted and ground-truth tables share no usable dates."""


def vessel_category(ship_type: int | None) -> str:
    """Reporting category for an AIS ship-type code; total over 0..99."""
    if ship_type is None:
        return "other"
    if 70 <= ship_type <= 79:
        return "cargo"
    if 80 <= ship_type <= 89:
        return "tanker"
    if 40 <= ship_type <= 49 or 60 <= ship_type <= 69:
        return "passenger"
    return "other"


@dataclass(frozen=True)
class TurnaroundRecord:
    """Berthing-to-unberthing interval for one terminal stay."""

    mmsi: int
    terminal_name: str | None
    arrival: dt.datetime
    departure: dt.datetime

    @property
    def turnaround(self) -> dt.timedelta:
        return self.departure - self.arrival


# moored phases closer together than this are one terminal stay
MERGE_GAP = dt.timedelta(hours=1)


def turnaround(voyage: Voyage, port: PortGeometry | None = None) -> TurnaroundRecord | None:
    """Turnaround of the voyage's first terminal stay, or None if it never moored.

    Moored phases separated by less than MERGE_GAP are treated as one stay;
    with port geometry available the merge additionally requires both phases
    to sit in the same terminal polygon.
    """
    moored = [p for p in voyage.phases if p.kind == "moored"]
    if not moored:
        return None

    def terminal_name(phase):
        if port is None:
            return None
        poly = port.terminal_at(phase.lat, phase.lon)
        return poly.name if poly else None

    stay = [moored[0]]
    first_name = terminal_name(moored[0])
    for p in moored[1:]:
        if p.start - stay[-1].end >= MERGE_GAP:
            break
        if port is not None:
            name = terminal_name(p)
            if name is None or name != first_name:
                break
        stay.append(p)
    return TurnaroundRecord(
        mmsi=voyage.mmsi,
        terminal_name=first_name,
        arrival=stay[0].start,
        departure=stay[-1].end,
    )


def anchorage_wait(voyage: Voyage) -> dt.timedelta:
    """Total anchored time before the first berthing."""
    total = dt.timedelta(0)
    for p in voyage.phases:
        if p.kind == "moored":
            break
        if p.kind == "anchored":
            total += p.duration
    return total


ArrivalTable = dict  # dict[dt.date, dict[str, int]]


def daily_arrivals(voyages: Iterable[Voyage], categories: Mapping[int, str]) -> ArrivalTable:
    """Count voyages per UTC arrival date and vessel category.

    Vessels without static data fall into "other". The table is dense over
    the observed arrival dates.
    """
    arrivals: list[tuple[dt.date, str]] = [
        (v.arrival.date(), categories.get(v.mmsi, "other")) for v in voyages
    ]
    if not arrivals:
        return {}
    dates = [d for d, _ in arrivals]
    start, end = min(dates), max(dates)
    table: ArrivalTable = {}
    day = start
    while day <= end:
        table[day] = {cat: 0 for cat in CATEGORIES}
        day += dt.timedelta(days=1)
    for date, cat in arrivals:
        table[date][cat] += 1
    return table


def arrivals_mae(
    predicted: ArrivalTable,
    truth: ArrivalTable,
    exclude_dates: Iterable[dt.date] = (),
) -> tuple[dict[str, float], float]:
    """Per-category MAE of daily arrival counts plus the macro average.

    Scored over the overlap of the two tables' date ranges, minus any
    explicitly excluded dates (e.g. days with known data loss). Categories
    are the ones present in the ground truth.
    """
    if not predicted or not truth:
        raise EmptyOverlap("one of the tables is empty")
    excluded = set(exclude_dates)
    lo = max(min(predicted), min(truth))
    hi = min(max(predicted), max(truth))
    dates = [
        lo + dt.timedelta(days=i)
        for i in range((hi - lo).days + 1)
        if lo + dt.timedelta(days=i) not in excluded
    ]
    if not dates:
        raise EmptyOverlap(f"no shared dates between {lo} and {hi}")
    cats = [c for c in CATEGORIES if any(c in row for row in truth.values())]
    if not cats:
        raise EmptyOverlap("ground truth has no recognized categories")
    maes = {}
    for cat in cats:
        err = 0
        for d in dates:
            pred = predicted.get(d, {}).get(cat, 0)
            true = truth.get(d, {}).get(cat, 0)
            err += abs(pred - true)
        maes[cat] = err / len(dates)
    return maes, sum(maes.values()) / len(maes)


def schedule_table(voyages: Iterable[Voyage], port: PortGeometry | None = None) -> list[TurnaroundRecord]:
    """Chronological turnaround records, e.g. for one vessel's service line."""
    records = [turnaround(v, port) for v in voyages]
    return sorted((r for r in records if r is not None), key=lambda r: r.arrival)


def weekly_aggregate(records: Sequence[TurnaroundRecord]) -> dict[str, dt.timedelta]:
    """Mean turnaround per ISO week."""
    groups: dict[str, list[float]] = {}
    for r in records:
        year, week, _ = r.arrival.isocalendar()
        groups.setdefault(f"{year}-W{week:02d}", []).append(r.turnaround.total_seconds())
    out: dict[str, dt.timedelta] = {}
    for key in sorted(groups):
        values = groups[key]
        out[key] = dt.timedelta(seconds=sum(values) / len(values))
    return out


def load_ground_truth(path) -> ArrivalTable:
    """Read port call records from CSV into a daily arrival table.

    Two layouts are accepted: `date,category,arrivals` with per-day counts,
    or `timestamp,mmsi,category` with one row per call event. A row that is
    short or holds a cell that does not parse is a ValueError naming the
    file, the line and the row. A UTF-8 byte-order mark that starts the file,
    as spreadsheets write one, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty ground-truth file")
        header = [h.strip().lower() for h in header]
        table: ArrivalTable = {}

        def rows():
            """The rows that are not blank, each with its line number; ValueError for one with fewer fields than
            the header."""
            for row in reader:
                if not row or not row[0].strip():
                    continue
                if len(row) < len(header):
                    raise ValueError(f"{path}: line {reader.line_num} {','.join(row)!r} has {len(row)} of the "
                                     f"{len(header)} fields {','.join(header)}")
                yield reader.line_num, row

        if header == ["date", "category", "arrivals"]:
            def parse(row):
                date, count = dt.date.fromisoformat(row[0].strip()), int(row[2])
                if count < 0:
                    raise ValueError(f"negative arrival count {count}")
                return date, row[1], count
        elif header == ["timestamp", "mmsi", "category"]:
            def parse(row):
                return parse_ts(row[0].strip()).date(), row[2], 1
        else:
            raise ValueError(f"{path}: unrecognized header {header}")
        for line_num, row in rows():
            try:
                date, cat, count = parse(row)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_num} {','.join(row)!r}: {exc}") from None
            day = table.setdefault(date, {})
            cat = cat.strip().lower()
            day[cat] = day.get(cat, 0) + count
    if not table:
        raise ValueError(f"{path}: no ground-truth rows")
    return table
