"""Synthetic port scenarios with exact ground truth.

Generates NMEA streams for a made-up port: vessels approach through an entry
waypoint, optionally swing at anchor (heading slowly rotating, position
jittering a few tens of metres), berth at a terminal (heading frozen within
a couple of degrees), and leave. Reported navigational statuses can be
corrupted with a configurable per-message probability, and scheduled outages
drop messages at global or vessel scope.

Every generated sentence carries its receiver timestamp in a NMEA TAG block
so the stream replays deterministically. The truth log records vessel
identities, exact phase boundaries, daily arrival counts, and the injected
outages, which makes it the oracle for the validation and metrics tests.

A visit is a few track segments (underway legs, an anchorage stay, a berth
stay), each with one report every cadence seconds. The only work done per
report is the random draws, in the order a report makes them: the segment
kind's `rng.random()` uniforms, then, when `error_p` is above 0, the error
draw and, for a wrong status, an `rng.choice` of the other statuses. Each
segment's times, positions, headings and speeds are then computed as numpy
columns, with the same float operations a per-report loop of `rng.uniform`
and `math` calls makes, so the lines are byte-identical to that loop's;
the sha256 pins in the tests hold that contract. The emitter drops a
segment's reports that an outage covers with one mask.

Synth declares no message layout. Its emitter keeps the columns of each
segment, and codec, which owns both directions of each layout, encodes
them a few thousand messages at a time.
"""

import datetime as dt
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .codec import STATUS_KINDS, Positions, Statics, encode_positions, encode_statics
from .geo import AreaFilter, EARTH_RADIUS_M, PortGeometry, Polygon
from .metrics import vessel_category
from .table import UTC, epoch_us, format_ts, from_epoch_us, parse_ts

_KIND_STATUS = {kind: code for code, kind in STATUS_KINDS.items()}


class InvalidScenario(ValueError):
    """Scenario fails structural validation."""


def _offset(lat: float, lon: float, north_m: float, east_m: float) -> tuple[float, float]:
    dlat = math.degrees(north_m / EARTH_RADIUS_M)
    dlon = math.degrees(east_m / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
    return lat + dlat, lon + dlon


def _local_xy(lat0: float, lon0: float, lat: float, lon: float) -> tuple[float, float]:
    x = math.radians(lon - lon0) * math.cos(math.radians(lat0)) * EARTH_RADIUS_M
    y = math.radians(lat - lat0) * EARTH_RADIUS_M
    return x, y


def _dist_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    x, y = _local_xy(a[0], a[1], b[0], b[1])
    return math.hypot(x, y)


def _bearing_deg(a: tuple[float, float], b: tuple[float, float]) -> float:
    x, y = _local_xy(a[0], a[1], b[0], b[1])
    return math.degrees(math.atan2(x, y)) % 360.0


def _rect(center: tuple[float, float], north_m: float, east_m: float, height_m: float, width_m: float):
    clat, clon = _offset(center[0], center[1], north_m, east_m)
    corners = [
        _offset(clat, clon, +height_m / 2, -width_m / 2),
        _offset(clat, clon, +height_m / 2, +width_m / 2),
        _offset(clat, clon, -height_m / 2, +width_m / 2),
        _offset(clat, clon, -height_m / 2, -width_m / 2),
    ]
    return corners, (clat, clon)


@dataclass(frozen=True)
class PortLayout:
    """Geometry bundle for one synthetic port."""

    center: tuple[float, float]
    geometry: PortGeometry
    area: AreaFilter
    entry: tuple[float, float]
    exit: tuple[float, float]
    anchorage_box: tuple[tuple[float, float], float, float]  # center, height, width
    berths: tuple[tuple[float, float, float], ...]  # lat, lon, quay heading

    def geojson(self) -> dict:
        def feature(poly: Polygon) -> dict:
            ring = [[lon, lat] for lat, lon in poly.ring]
            ring.append(ring[0])
            return {
                "type": "Feature",
                "properties": {"name": poly.name, "kind": poly.kind},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }

        return {
            "type": "FeatureCollection",
            "features": [feature(p) for p in self.geometry.anchorages + self.geometry.terminals],
        }


def build_port(center: tuple[float, float] = (34.45, 18.30), area_radius_m: float = 9000.0) -> PortLayout:
    """Lay out a small two-terminal port with one anchorage roadstead."""
    anch_ring, anch_center = _rect(center, north_m=-2800, east_m=0, height_m=2000, width_m=3200)
    t1_ring, t1_center = _rect(center, north_m=800, east_m=-900, height_m=350, width_m=700)
    t2_ring, t2_center = _rect(center, north_m=800, east_m=900, height_m=350, width_m=700)
    geometry = PortGeometry(
        anchorages=(Polygon("roadstead", "anchorage", tuple(anch_ring)),),
        terminals=(
            Polygon("terminal-west", "terminal", tuple(t1_ring)),
            Polygon("terminal-east", "terminal", tuple(t2_ring)),
        ),
    )
    return PortLayout(
        center=center,
        geometry=geometry,
        area=AreaFilter.circle(center[0], center[1], area_radius_m),
        entry=_offset(center[0], center[1], -6600, 4400),
        exit=_offset(center[0], center[1], -6600, -4400),
        anchorage_box=(anch_center, 2000.0, 3200.0),
        berths=(
            (t1_center[0], t1_center[1], 90.0),
            (t2_center[0], t2_center[1], 270.0),
        ),
    )


@dataclass(frozen=True)
class VisitPlan:
    """One port call: entry instant plus anchorage and berth dwell times."""

    arrive: dt.datetime
    anchor_h: float
    moor_h: float
    terminal: int = 0
    anchor_rate_deg_h: float | None = None  # None draws from [10, 60]


@dataclass(frozen=True)
class VesselPlan:
    mmsi: int
    name: str
    ship_type: int
    visits: tuple[VisitPlan, ...]
    cruise_kn: float = 11.0


@dataclass(frozen=True)
class OutagePlan:
    scope: str  # "global" | "vessel"
    start: dt.datetime
    end: dt.datetime
    mmsi: int | None = None


@dataclass(frozen=True)
class Scenario:
    seed: int
    vessels: tuple[VesselPlan, ...]
    center: tuple[float, float] = (34.45, 18.30)
    error_p: float = 0.0
    outages: tuple[OutagePlan, ...] = ()
    cadence_underway_s: int = 10
    cadence_stopped_s: int = 180
    static_interval_s: int = 1800

    def __post_init__(self):
        if not 0.0 <= self.error_p <= 1.0:
            raise InvalidScenario(f"error_p {self.error_p} outside [0, 1]")
        if self.cadence_underway_s < 1 or self.cadence_stopped_s < 1:
            raise InvalidScenario("cadences must be at least 1 s")
        if not all(float(s).is_integer() for s in (self.cadence_underway_s, self.cadence_stopped_s,
                                                   self.static_interval_s)):
            raise InvalidScenario("cadences and the static interval must be whole seconds")
        for vessel in self.vessels:
            last_end = None
            for visit in vessel.visits:
                if visit.arrive.utcoffset() is None:
                    raise InvalidScenario(f"mmsi {vessel.mmsi}: arrival {visit.arrive} has no time zone")
                if visit.anchor_h < 0 or visit.moor_h < 0:
                    raise InvalidScenario(f"mmsi {vessel.mmsi}: negative dwell time")
                if last_end is not None and visit.arrive <= last_end:
                    raise InvalidScenario(f"mmsi {vessel.mmsi}: overlapping visits")
                last_end = visit.arrive + dt.timedelta(hours=visit.anchor_h + visit.moor_h + 3)
        for o in self.outages:
            if o.start.utcoffset() is None or o.end.utcoffset() is None:
                raise InvalidScenario(f"outage {o.start} to {o.end} has no time zone")
            if o.end <= o.start:
                raise InvalidScenario("outage end must be after start")
            if o.scope not in ("global", "vessel"):
                raise InvalidScenario(f"unknown outage scope {o.scope!r}")
            if o.scope == "vessel" and o.mmsi is None:
                raise InvalidScenario("vessel outage needs an mmsi")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        """The scenario a JSON document describes; InvalidScenario for one that is not a scenario."""
        if not isinstance(doc, dict):
            raise InvalidScenario(f"a scenario is a JSON object, not {type(doc).__name__}")
        try:
            return cls(
                seed=doc["seed"],
                center=tuple(doc.get("center", (34.45, 18.30))),
                error_p=doc.get("error_p", 0.0),
                cadence_underway_s=doc.get("cadence_underway_s", 10),
                cadence_stopped_s=doc.get("cadence_stopped_s", 180),
                static_interval_s=doc.get("static_interval_s", 1800),
                vessels=tuple(
                    VesselPlan(
                        mmsi=v["mmsi"],
                        name=v.get("name", f"VESSEL {v['mmsi']}"),
                        ship_type=v.get("ship_type", 70),
                        cruise_kn=v.get("cruise_kn", 11.0),
                        visits=tuple(
                            VisitPlan(
                                arrive=parse_ts(visit["arrive"]),
                                anchor_h=visit.get("anchor_h", 0.0),
                                moor_h=visit.get("moor_h", 12.0),
                                terminal=visit.get("terminal", 0),
                                anchor_rate_deg_h=visit.get("anchor_rate_deg_h"),
                            )
                            for visit in v["visits"]
                        ),
                    )
                    for v in doc["vessels"]
                ),
                outages=tuple(
                    OutagePlan(
                        scope=o["scope"],
                        start=parse_ts(o["start"]),
                        end=parse_ts(o["end"]),
                        mmsi=o.get("mmsi"),
                    )
                    for o in doc.get("outages", ())
                ),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidScenario(f"malformed scenario: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))


@dataclass(frozen=True)
class TruthPhase:
    mmsi: int
    kind: str  # "underway" | "anchored" | "moored"
    start: dt.datetime
    end: dt.datetime

    @property
    def duration(self) -> dt.timedelta:
        return self.end - self.start


@dataclass
class TruthLog:
    """Ground truth emitted alongside the NMEA stream."""

    vessels: dict[int, dict] = field(default_factory=dict)
    phases: list[TruthPhase] = field(default_factory=list)
    arrivals: dict[dt.date, dict[str, int]] = field(default_factory=dict)
    outages: list[OutagePlan] = field(default_factory=list)

    def status_at(self, mmsi: int, ts: dt.datetime) -> int | None:
        """True status of a vessel at an instant, None outside any phase."""
        for p in self.phases:
            if p.mmsi == mmsi and p.start <= ts < p.end:
                return _KIND_STATUS[p.kind]
        return None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for mmsi in sorted(self.vessels):
                doc = {"kind": "vessel", "mmsi": mmsi, **self.vessels[mmsi]}
                f.write(json.dumps(doc, sort_keys=True) + "\n")
            for p in self.phases:
                doc = {
                    "kind": "phase",
                    "mmsi": p.mmsi,
                    "phase": p.kind,
                    "start": format_ts(p.start),
                    "end": format_ts(p.end),
                }
                f.write(json.dumps(doc, sort_keys=True) + "\n")
            for date in sorted(self.arrivals):
                for cat, count in sorted(self.arrivals[date].items()):
                    doc = {"kind": "arrival", "date": date.isoformat(), "category": cat, "count": count}
                    f.write(json.dumps(doc, sort_keys=True) + "\n")
            for o in self.outages:
                doc = {
                    "kind": "outage",
                    "scope": o.scope,
                    "start": format_ts(o.start),
                    "end": format_ts(o.end),
                    "mmsi": o.mmsi,
                }
                f.write(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "TruthLog":
        truth = cls()
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                doc = json.loads(line)
                kind = doc.pop("kind")
                if kind == "vessel":
                    mmsi = doc.pop("mmsi")
                    truth.vessels[mmsi] = doc
                elif kind == "phase":
                    truth.phases.append(
                        TruthPhase(
                            mmsi=doc["mmsi"],
                            kind=doc["phase"],
                            start=parse_ts(doc["start"]),
                            end=parse_ts(doc["end"]),
                        )
                    )
                elif kind == "arrival":
                    date = dt.date.fromisoformat(doc["date"])
                    truth.arrivals.setdefault(date, {})[doc["category"]] = doc["count"]
                elif kind == "outage":
                    truth.outages.append(
                        OutagePlan(
                            scope=doc["scope"],
                            start=parse_ts(doc["start"]),
                            end=parse_ts(doc["end"]),
                            mmsi=doc.get("mmsi"),
                        )
                    )
        return truth


# ---------------------------------------------------------------------------
# track generation


def leg_seconds(a: tuple[float, float], b: tuple[float, float], speed_kn: float) -> int:
    """Whole-second duration of a straight leg at the given speed."""
    meters = _dist_m(a, b)
    mps = speed_kn * 0.514444
    return max(1, math.ceil(meters / mps))


def _uniform(lo: float, hi: float, r):
    """What rng.uniform(lo, hi) returns when its rng.random() draw is r, a float or an array of them."""
    return lo + (hi - lo) * r


def _offsets(point: tuple[float, float], north_m: np.ndarray, east_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_offset of one point by arrays of offsets, with the same float operations."""
    lat, lon = point
    return (lat + np.degrees(north_m / EARTH_RADIUS_M),
            lon + np.degrees(east_m / (EARTH_RADIUS_M * math.cos(math.radians(lat)))))


# positions encoded together; a chunk's columns and texts stay a few hundred kB
_CHUNK = 4096


class _Emitter:
    """Collects the lines in chunks, each with its (epoch, sequence) sort key, and applies outage drops.

    Each track segment is handed over as columns, and its positions and
    statics are encoded by codec a chunk at a time, so no per-line text is
    built in Python.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._slots = 0  # reports handed over so far
        # (start, end, mmsi or None for every vessel) of each outage, in epoch microseconds
        self._outages = [(epoch_us(o.start), epoch_us(o.end), o.mmsi if o.scope == "vessel" else None)
                         for o in scenario.outages]
        # (epoch, sequence, mmsi, reported status, sog, lat, lon, cog, heading) columns of each segment not yet encoded
        self._positions: list[tuple[np.ndarray, ...]] = []
        self._pending = 0  # rows in _positions
        self._statics: list[tuple[int, int, VesselPlan]] = []  # (epoch, sequence, vessel) of each static not yet encoded
        self._lines: list[str] = []
        self._keys: list[tuple[np.ndarray, np.ndarray]] = []  # (epochs, sequences) of each encoded run of _lines

    def segment(self, vessel: VesselPlan, epochs: np.ndarray, statics: list[int], status, sog, lat, lon, cog,
                heading) -> None:
        """Record one track segment of a vessel: its report times in epoch seconds and their values as columns,
        and the rows at which a static report falls due.

        Each report takes three sequence numbers in the order reports are handed over: the first two for the
        lines of a static due at it, and the third for its position. A report or static that an outage covers
        is dropped.
        """
        seq = 3 * np.arange(self._slots, self._slots + len(epochs))
        self._slots += len(epochs)
        time_us = epochs * 1_000_000
        kept = np.ones(len(epochs), dtype=bool)
        for start_us, end_us, mmsi in self._outages:
            if mmsi is None or mmsi == vessel.mmsi:
                kept &= (time_us < start_us) | (end_us <= time_us)
        self._statics += [(int(epochs[row]), int(seq[row]), vessel) for row in statics if kept[row]]
        columns = (epochs, seq + 2, np.full(len(epochs), vessel.mmsi), status, sog, lat, lon, cog, heading)
        self._positions.append(tuple(column[kept] for column in columns))
        self._pending += int(np.count_nonzero(kept))
        if self._pending >= _CHUNK:
            self._encode()

    def _encode(self) -> None:
        """Encode the positions and statics recorded since the last call."""
        if self._pending:
            epoch, seq, mmsi, status, sog, lat, lon, cog, heading = map(np.concatenate, zip(*self._positions))
            # the values the report's fields can send: SOG in whole 1/10 kn below the 1023 "not available", COG in
            # whole 1/10 degree, heading in whole degrees, and a rate of turn of 0
            sog_raw = np.clip(np.rint(sog * 10), 0, 1022).astype(np.int64)
            cog_raw = np.rint(cog * 10).astype(np.int64) % 3600
            heading_raw = np.rint(heading).astype(np.int64) % 360
            self._lines += encode_positions(Positions(epoch * 1_000_000, mmsi, status, lat, lon, sog_raw / 10.0,
                                                      cog_raw / 10.0, heading_raw.astype(np.float64),
                                                      np.zeros(len(mmsi))))
            self._keys.append((epoch, seq))
        self._positions, self._pending = [], 0
        if self._statics:
            epoch, seq, vessels = zip(*self._statics)
            self._statics = []
            mmsi, ship_type = np.array([(v.mmsi, v.ship_type) for v in vessels]).T
            statics = Statics(np.array(epoch) * 1_000_000, mmsi, ship_type, np.full_like(mmsi, 120),
                              np.full_like(mmsi, 20), np.array([v.name for v in vessels], dtype=object))
            self._lines += encode_statics(statics, mmsi % 10)
            # both lines of a static carry its time, and the sequence numbers seq and seq + 1
            self._keys.append((np.repeat(epoch, 2), np.repeat(seq, 2) + np.tile([0, 1], len(seq))))

    def lines(self) -> list[str]:
        """Every line recorded, ordered by time and then by the order they were made in."""
        self._encode()
        if not self._keys:
            return []
        epochs, seqs = (np.concatenate(column) for column in zip(*self._keys))
        return [self._lines[i] for i in np.lexsort((seqs, epochs)).tolist()]


def _random_point_in_box(rng: random.Random, box, margin: float = 0.8) -> tuple[float, float]:
    (clat, clon), height, width = box
    north = rng.uniform(-height / 2 * margin, height / 2 * margin)
    east = rng.uniform(-width / 2 * margin, width / 2 * margin)
    return _offset(clat, clon, north, east)


def _static_rows(start: int, end: int, cadence: int, due: int, interval: int) -> tuple[list[int], int]:
    """The rows of the reports at start, start + cadence, ... before end at which a static report falls due, and
    the time the next one falls due: the first due at the first report at or after `due`, and each next one at
    the first report at least `interval` seconds after the last."""
    rows = []
    row = max(0, -((start - due) // cadence))
    while start + row * cadence < end:
        rows.append(row)
        due = start + row * cadence + interval
        row = max(row + 1, -((start - due) // cadence))
    return rows, due


# the rng.random() draws each report of a segment kind makes, before its status error draw: the uniforms of the
# SOG and heading underway; of the north and east offsets, heading and SOG at anchor; of the offsets and heading
# at a berth
_DRAWS = {"underway": 2, "anchored": 4, "moored": 3}
# the statuses an error can report in place of each true one
_WRONG = {status: tuple(other for other in STATUS_KINDS if other != status) for status in STATUS_KINDS}


def _generate_visit(
    emitter: _Emitter,
    truth: TruthLog,
    layout: PortLayout,
    vessel: VesselPlan,
    visit: VisitPlan,
    rng: random.Random,
) -> None:
    scenario = emitter.scenario
    berth = layout.berths[visit.terminal % len(layout.berths)]
    berth_pos = (berth[0], berth[1])
    anchor_spot = _random_point_in_box(rng, layout.anchorage_box) if visit.anchor_h > 0 else None

    # waypoint schedule, in whole epoch seconds throughout
    arrive = epoch_us(visit.arrive) // 1_000_000
    t = arrive
    segments: list[tuple[str, int, int, tuple, tuple]] = []
    pos = layout.entry
    if anchor_spot is not None:
        t_leg = leg_seconds(pos, anchor_spot, vessel.cruise_kn)
        segments.append(("underway", t, t + t_leg, pos, anchor_spot))
        t += t_leg
        t_anchor = round(visit.anchor_h * 3600)
        segments.append(("anchored", t, t + t_anchor, anchor_spot, anchor_spot))
        t += t_anchor
        pos = anchor_spot
    t_leg = leg_seconds(pos, berth_pos, vessel.cruise_kn)
    segments.append(("underway", t, t + t_leg, pos, berth_pos))
    t += t_leg
    t_moor = round(visit.moor_h * 3600)
    segments.append(("moored", t, t + t_moor, berth_pos, berth_pos))
    t += t_moor
    t_leg = leg_seconds(berth_pos, layout.exit, vessel.cruise_kn)
    segments.append(("underway", t, t + t_leg, berth_pos, layout.exit))
    t += t_leg

    for kind, start, end, _, _ in segments:
        if end > start:
            truth.phases.append(TruthPhase(vessel.mmsi, kind, from_epoch_us(start * 1_000_000),
                                           from_epoch_us(end * 1_000_000)))
    date = from_epoch_us(arrive * 1_000_000).date()
    category = vessel_category(vessel.ship_type)
    truth.arrivals.setdefault(date, {})
    truth.arrivals[date][category] = truth.arrivals[date].get(category, 0) + 1

    anchor_heading = rng.uniform(0.0, 360.0)
    rate = visit.anchor_rate_deg_h
    if rate is None:
        rate = rng.uniform(10.0, 60.0)
    rate *= rng.choice((-1.0, 1.0))
    next_static = arrive
    draw, choice, error_p = rng.random, rng.choice, scenario.error_p

    for kind, start, end, p_from, p_to in segments:
        cadence = int(scenario.cadence_underway_s if kind == "underway" else scenario.cadence_stopped_s)
        epochs = np.arange(start, end, cadence, dtype=np.int64)
        statics, next_static = _static_rows(start, end, cadence, next_static, int(scenario.static_interval_s))
        # the sequential part: every report's draws, in the order the reports make them
        status, n, per_report = _KIND_STATUS[kind], len(epochs), range(_DRAWS[kind])
        if error_p > 0:
            draws, reported = [], []
            add, report = draws.append, reported.append
            wrong = _WRONG[status]
            for _ in range(n):
                for _ in per_report:
                    add(draw())
                report(choice(wrong) if draw() < error_p else status)
            reported = np.array(reported, dtype=np.int64)
        else:
            draws = [draw() for _ in range(n * len(per_report))]
            reported = np.full(n, status)
        u = np.array(draws, dtype=np.float64).reshape(n, len(per_report)).T

        # the columns, with the float operations of one report at a time
        elapsed = (epochs - start).astype(np.float64)
        if kind == "underway":
            f = elapsed / float(end - start)
            lat = p_from[0] + (p_to[0] - p_from[0]) * f
            lon = p_from[1] + (p_to[1] - p_from[1]) * f
            cog = np.full(n, _bearing_deg(p_from, p_to))
            sog = vessel.cruise_kn + _uniform(-0.4, 0.4, u[0])
            heading = np.remainder(cog + _uniform(-1.5, 1.5, u[1]), 360.0)
        elif kind == "anchored":
            lat, lon = _offsets(p_from, _uniform(-25.0, 25.0, u[0]), _uniform(-25.0, 25.0, u[1]))
            heading = np.remainder(anchor_heading + rate * (elapsed / 3600.0) + _uniform(-1.5, 1.5, u[2]), 360.0)
            sog = _uniform(0.0, 0.25, u[3])
            cog = heading
        else:  # moored
            lat, lon = _offsets(p_from, _uniform(-3.0, 3.0, u[0]), _uniform(-3.0, 3.0, u[1]))
            heading = np.remainder(berth[2] + _uniform(-2.0, 2.0, u[2]), 360.0)
            sog = np.zeros(n)
            cog = heading
        emitter.segment(vessel, epochs, statics, reported, sog, lat, lon, cog, heading)


def generate(scenario: Scenario) -> tuple[list[str], TruthLog]:
    """Produce the NMEA line stream and its truth log.

    Deterministic for a given scenario: running twice yields byte-identical
    lines.
    """
    rng = random.Random(scenario.seed)
    layout = build_port(scenario.center)
    truth = TruthLog(outages=list(scenario.outages))
    emitter = _Emitter(scenario)
    for vessel in scenario.vessels:
        truth.vessels[vessel.mmsi] = {
            "name": vessel.name,
            "ship_type": vessel.ship_type,
            "category": vessel_category(vessel.ship_type),
        }
        for visit in vessel.visits:
            _generate_visit(emitter, truth, layout, vessel, visit, rng)
    truth.phases.sort(key=lambda p: (p.mmsi, p.start))
    return emitter.lines(), truth


# ---------------------------------------------------------------------------
# preset scenarios


_SHIP_TYPES = (70, 74, 80, 82, 60, 64, 70, 89, 52, 60)


def mixed_port_scenario(
    *,
    n_vessels: int = 10,
    days: int = 3,
    error_p: float = 0.3,
    seed: int = 7,
    start: dt.datetime = dt.datetime(2019, 9, 1, tzinfo=UTC),
    outages: tuple[OutagePlan, ...] = (),
) -> Scenario:
    """A port with staggered arrivals across vessel categories.

    Anchorage stops, when present, last at least 3.5 h so rotation has time
    to show; berth stays run 8-16 h like typical cargo calls.
    """
    rng = random.Random(seed * 7919 + 13)
    vessels = []
    horizon = start + dt.timedelta(days=days)
    for i in range(n_vessels):
        mmsi = 219000001 + i
        ship_type = _SHIP_TYPES[i % len(_SHIP_TYPES)]
        cruise = rng.uniform(9.0, 13.5)
        visits = []
        t = start + dt.timedelta(hours=rng.uniform(0.0, 12.0))
        while t < horizon - dt.timedelta(hours=22):
            anchors = rng.random() < 0.7
            anchor_h = rng.uniform(3.5, 8.0) if anchors else 0.0
            moor_h = rng.uniform(8.0, 16.0)
            visits.append(
                VisitPlan(
                    arrive=t.replace(microsecond=0),
                    anchor_h=anchor_h,
                    moor_h=moor_h,
                    terminal=rng.randrange(2),
                )
            )
            away_h = rng.uniform(6.0, 14.0)
            t += dt.timedelta(hours=anchor_h + moor_h + 2.0 + away_h)
        if not visits:
            visits.append(VisitPlan(arrive=start + dt.timedelta(hours=i), anchor_h=4.0, moor_h=10.0))
        vessels.append(
            VesselPlan(
                mmsi=mmsi,
                name=f"TESTBED {i + 1}",
                ship_type=ship_type,
                cruise_kn=cruise,
                visits=tuple(visits),
            )
        )
    return Scenario(seed=seed, vessels=tuple(vessels), error_p=error_p, outages=outages)


def ferry_scenario(
    *,
    days: int = 10,
    skip_departure_day: int | None = 4,
    error_p: float = 0.0,
    seed: int = 3,
    start: dt.datetime = dt.datetime(2019, 9, 9, tzinfo=UTC),
) -> Scenario:
    """A high-speed ferry on a fixed daily rotation.

    Arrives early afternoon, departs 04:20 the next morning. Optionally one
    departure is skipped, so that stay runs a full day longer, which is the
    signature a schedule table should surface.
    """
    rng = random.Random(seed)
    layout = build_port()
    berth = layout.berths[0]
    approach_s = leg_seconds(layout.entry, (berth[0], berth[1]), 27.0)
    visits = []
    day = start.date()
    d = 0
    while d < days:
        arrive = dt.datetime.combine(day, dt.time(13, 50), tzinfo=UTC) + dt.timedelta(
            days=d, minutes=rng.randint(-8, 8)
        )
        moor_start = arrive + dt.timedelta(seconds=approach_s)
        depart_days = 2 if d == skip_departure_day else 1
        depart = dt.datetime.combine(day, dt.time(4, 20), tzinfo=UTC) + dt.timedelta(
            days=d + depart_days, minutes=rng.randint(-3, 3)
        )
        moor_h = (depart - moor_start).total_seconds() / 3600.0
        visits.append(VisitPlan(arrive=arrive, anchor_h=0.0, moor_h=moor_h, terminal=0))
        d += depart_days
    ferry = VesselPlan(
        mmsi=219000777,
        name="HIGHSPEED TEST",
        ship_type=60,
        cruise_kn=27.0,
        visits=tuple(visits),
    )
    return Scenario(seed=seed, vessels=(ferry,), error_p=error_p)
