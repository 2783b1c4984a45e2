"""Navigational-status validation and data-outage detection.

Three independent ways to decide whether a position report belongs to an
underway (0), anchored (1) or moored (5) vessel:

  geofence   stopped inside a terminal polygon -> moored, inside an
             anchorage polygon -> anchored, otherwise underway.
  kinematic  stopped vessels that keep rotating are anchored; vessels whose
             heading stays put are moored. Rotation is measured as the mean
             resultant length of the cyclically encoded headings over a
             trailing window of stopped samples.
  knn        nearest-neighbour vote over the locations of previously stopped
             vessels, labelled with their reported statuses.

The ensemble uses the geofence as the base answer, the kinematic vote
where there are no polygons, and the knn vote where neither answers or the
two disagree. A debounce filter suppresses single-message status flips so that
vessels hovering on a polygon border do not flap between states.

The stream is held as columns (`codec.Positions` in, `columnar.Validated`
out), never as one object per report: `validate_stream` sorts it once with
np.lexsort, takes the geofence vote of every stopped report in one array
pass per polygon, and gives its result as columns in output order. The
kinematic vote and the debounce filter work on runs of rows, not on single
reports: the vote takes running counts and sums within each stopped run,
one pass per run, and the filter keeps or overwrites each run of one
candidate status whole. Times are integer microseconds, and the windows
from the config are converted with the rounding timedelta uses.

The knn vote is exact without scanning every training point for every
report. `_stopped_candidates` asks it once, for all the reports it
decides, and each distinct position is searched once, in batches
(`knn.KnnIndex`): queries in one spatial cell share a box and one matrix
of squared distances to the distinct training positions inside it. A
row's k-th distance is certified when it is below the distance to the
nearest box edge; the other rows are searched again in a box just wider
than that k-th distance (Bentley, Stanat & Williams, "The complexity of
finding fixed-radius near neighbors", Inf. Process. Lett., 1977). Points
tied at the k-th distance are taken in training index order, as an
exhaustive scan sorted by (distance, index) takes them.
"""

import datetime as dt
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .codec import ANCHORED, MOORED, STATUS_KINDS, UNDERWAY, Positions
from .columnar import METHODS, Validated
from .geo import PortGeometry, haversine_m, project_local
from .knn import KnnIndex
from .table import INTEGER, TEXT, TIME, Field, Table, epoch_us, from_epoch_us


class TooFewPoints(ValueError):
    """Not enough stopped training points to fit the requested k."""


# The votes each method asks for a stopped report, in order of precedence. A
# vote is unavailable when its input is: the geofence without port polygons,
# the kinematic vote on a short or headingless stopped run, knn when too few
# stopped reports fit the model.
_VOTE_ORDER = {
    "geofence": ("geofence",),
    "kinematic": ("kinematic", "geofence"),
    "knn": ("knn", "geofence"),
    "ensemble": ("geofence", "kinematic", "knn"),
}
# the label of each vote in the output, by its code in validate_stream; "reported" when none is available
_LABELS = ("geofence", "kinematic", "knn", "reported")
_CODE = {name: code for code, name in enumerate(_LABELS)}
_LABEL_TEXT = np.array(_LABELS, dtype=object)

_US = dt.timedelta(microseconds=1)


@dataclass
class ValidationConfig:
    """Tunables for the status-correction pipeline.

    Loadable from a `key = value` text file; unknown keys are rejected so
    typos do not silently fall back to defaults.
    """

    method: str = "ensemble"
    stopped_threshold_kn: float = 0.5
    knn_k: int = 300
    rotation_window_h: float = 3.0
    rotation_rbar: float = 0.98
    hysteresis_msgs: int = 2
    hysteresis_min: float = 10.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number, got {getattr(self, f.name)!r}")
        for name, unit in (("rotation_window_h", "hours"), ("hysteresis_min", "minutes")):
            try:
                dt.timedelta(**{unit: getattr(self, name)})
            except OverflowError:
                raise ValueError(f"{name} must be at most 999999999 days, got {getattr(self, name)!r}") from None

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "ValidationConfig":
        casters = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            caster = casters.get(key)
            if caster is None:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = caster(value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ValidationConfig":
        mapping = {}
        with open(path, "r", encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


def _fallback_statuses(navstat: np.ndarray) -> np.ndarray:
    """Reported statuses coerced into {0, 1, 5}; anything else means underway."""
    return np.where(np.isin(navstat, tuple(STATUS_KINDS)), navstat, UNDERWAY)


def _geofence_votes(port: PortGeometry, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Moored in a terminal, else anchored in an anchorage, else underway, for each point."""
    votes = np.full(len(lat), UNDERWAY, dtype=np.int64)
    for status, polygons in ((ANCHORED, port.anchorages), (MOORED, port.terminals)):
        for poly in polygons:
            votes[poly.contains(lat, lon)] = status
    return votes


@dataclass(frozen=True)
class KnnModel:
    """Location-only k-nearest-neighbour status model for stopped vessels.

    The index the search reads is derived from xy and labels on first use,
    so a model built from its four fields directly searches like one from
    `fit_knn`.
    """

    k: int
    origin: tuple[float, float]
    xy: np.ndarray  # (n, 2) planar metres around origin
    labels: np.ndarray  # (n,) uint8 with values 1 (anchored) and 5 (moored)

    @cached_property
    def index(self) -> KnnIndex:
        """The training points, marked where anchored, as the batched search reads them."""
        return KnnIndex(self.xy, self.labels == ANCHORED)


def fit_knn(positions: Positions, k: int = 300, *, stopped_threshold_kn: float = 0.5) -> KnnModel:
    """Fit the model on stopped rows whose reported status is 1 or 5.

    The reported statuses double as labels; the projection origin is the
    centroid of the training points.
    """
    navstat = positions.navstat
    train = np.flatnonzero(((navstat == ANCHORED) | (navstat == MOORED)) & (positions.sog < stopped_threshold_kn))
    if k < 1:
        raise TooFewPoints(f"k must be >= 1, got {k}")
    if len(train) < k:
        raise TooFewPoints(f"{len(train)} stopped training points, need >= {k}")
    lat_arr = positions.lat[train]
    lon_arr = positions.lon[train]
    lat0 = float(lat_arr.mean())
    lon0 = float(lon_arr.mean())
    xy = np.column_stack(project_local(lat0, lon0, lat_arr, lon_arr))
    return KnnModel(k=k, origin=(lat0, lon0), xy=xy, labels=navstat[train].astype(np.uint8))


def knn_votes(model: KnnModel, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """The majority label of the k nearest training points of each (lat, lon); a tie goes to anchored.

    Each distinct position is projected and searched once, for whether at
    least half of its k nearest points are anchored.
    """
    order = np.lexsort((lon, lat))
    lat, lon = lat[order], lon[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (lat[1:] != lat[:-1]) | (lon[1:] != lon[:-1])
    anchored = model.index.majority(*project_local(model.origin[0], model.origin[1], lat[new], lon[new]), model.k)
    votes = np.empty(order.shape[0], dtype=np.int64)
    votes[order] = np.where(anchored, ANCHORED, MOORED)[np.cumsum(new) - 1]
    return votes


# ---------------------------------------------------------------------------
# outage detection

# A vessel silent for longer than HARD_GAP, or for longer than SOFT_GAP while
# it moved more than SOFT_GAP_MOVE_M, left the port and came back.
HARD_GAP = dt.timedelta(hours=24)
SOFT_GAP = dt.timedelta(hours=5)
SOFT_GAP_MOVE_M = 100.0


def left_and_returned(prev: Positions, cur: Positions) -> np.ndarray:
    """For each row pair, whether the silence from prev's row to cur's, two consecutive reports of one vessel,
    ends a port visit.

    That is a silence of over 24 hours, or of over 5 hours across which the
    vessel moved more than 100 metres. Voyages split there, and such a
    silence is the vessel's absence, not a data outage. The distance is
    taken, one pair at a time, only across silences of 5 to 24 hours.
    """
    gap = cur.time_us - prev.time_us
    left = gap > HARD_GAP // _US
    for i in np.flatnonzero(~left & (gap > SOFT_GAP // _US)).tolist():
        moved = haversine_m(float(prev.lat[i]), float(prev.lon[i]), float(cur.lat[i]), float(cur.lon[i]))
        left[i] = moved > SOFT_GAP_MOVE_M
    return left


@dataclass(frozen=True)
class Outage:
    """An interval in which a vessel, or the whole stream, went unheard.

    A vessel outage names the vessel's MMSI as its subject; a global outage
    has none.
    """

    scope: str  # "global" | "vessel"
    start: dt.datetime
    end: dt.datetime
    subject: int | None = None


class Outages(Table):
    """The fields of a stored outage, as outages.jsonl holds one per line."""

    scope = Field(TEXT)
    start = Field(TIME)
    end = Field(TIME)
    subject = Field(INTEGER, default=None)


def _recent_cadence_ok(times: np.ndarray, first: int, idx: int, max_cadence: int) -> bool:
    """True when the up to _CADENCE_LOOKBACK intervals ending at times[idx], none before times[first], are dense."""
    intervals = sorted(np.diff(times[max(first, idx - _CADENCE_LOOKBACK):idx + 1]).tolist())
    if len(intervals) < 2:
        return False
    return intervals[len(intervals) // 2] < max_cadence


# Silences longer than these are outages at each scope; a vessel must have
# been reporting at a median interval under _DENSE_CADENCE over its last
# _CADENCE_LOOKBACK intervals.
_GLOBAL_GAP = dt.timedelta(minutes=15)
_VESSEL_GAP = dt.timedelta(minutes=60)
_DENSE_CADENCE = dt.timedelta(minutes=5)
_CADENCE_LOOKBACK = 5


def _vessel_order(positions: Positions) -> tuple[np.ndarray, np.ndarray]:
    """The row order of each vessel's reports in time order, and where each vessel's run starts in it.

    Sorted by MMSI, then time; rows that tie on both keep their order.
    """
    order = np.lexsort((positions.time_us, positions.mmsi))
    mmsi = positions.mmsi[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = mmsi[1:] != mmsi[:-1]
    return order, starts


def detect_outages(positions: Positions) -> list[Outage]:
    """Find the silences in a message stream that data went missing in.

    A silence counts only when the vessels did not simply leave, which is
    what `left_and_returned` decides. A vessel outage is a vessel that was
    reporting densely (median interval under 5 minutes) going silent for
    over an hour and reappearing without having left the port. A global
    outage is a silence of the whole stream over 15 minutes that some vessel
    sat through without leaving; when every vessel was away, the port may
    simply have been empty.
    """
    order, starts = _vessel_order(positions)
    times = positions.time_us[order]
    silent = np.flatnonzero(~starts[1:] & (np.diff(times) > _GLOBAL_GAP // _US))
    stayed_at = silent[~left_and_returned(positions[order[silent]], positions[order[silent + 1]])].tolist()
    first = np.flatnonzero(starts)
    firsts = first[np.searchsorted(first, stayed_at, side="right") - 1].tolist()

    outages: list[Outage] = []
    stayed: list[tuple[int, int]] = []  # silences over _GLOBAL_GAP a vessel did not leave in
    for i, track_start in zip(stayed_at, firsts):
        start, end = int(times[i]), int(times[i + 1])
        stayed.append((start, end))
        if end - start > _VESSEL_GAP // _US and _recent_cadence_ok(times, track_start, i, _DENSE_CADENCE // _US):
            outages.append(Outage("vessel", from_epoch_us(start), from_epoch_us(end),
                                  subject=int(positions.mmsi[order[i]])))

    # No report falls inside a global silence, so a stayed silence that
    # starts at or before it and ends after its start spans all of it.
    stayed.sort()
    stream = np.sort(positions.time_us)
    j, reach = 0, None
    for i in np.flatnonzero(np.diff(stream) > _GLOBAL_GAP // _US).tolist():
        start, end = int(stream[i]), int(stream[i + 1])
        while j < len(stayed) and stayed[j][0] <= start:
            reach = stayed[j][1] if reach is None else max(reach, stayed[j][1])
            j += 1
        if reach is not None and reach >= end:
            outages.append(Outage("global", from_epoch_us(start), from_epoch_us(end)))
    outages.sort(key=lambda o: (o.start, o.scope, str(o.subject)))
    return outages


# ---------------------------------------------------------------------------
# stream validation


# Share of a stopped run's samples that must carry a heading for a kinematic vote.
_MIN_HEADING_FRACTION = 0.5


def _debounce(candidates: np.ndarray, times: np.ndarray, starts: np.ndarray, min_msgs: int,
              min_span: int) -> np.ndarray:
    """Debounce each vessel's candidate statuses, in vessel order with each vessel's first row marked in starts.

    A run is a vessel's consecutive rows with one candidate value. It is
    accepted when it is the vessel's first run, at least min_msgs rows long,
    or spans at least min_span from its first row's time to its last; an
    accepted change applies from its first row, so clean transitions are
    reproduced exactly. Every other run takes the value of the vessel's last
    accepted run, so short excursions are suppressed.
    """
    first = starts.copy()
    first[1:] |= candidates[1:] != candidates[:-1]
    begin = np.flatnonzero(first)
    length = np.diff(begin, append=len(candidates))
    accepted = starts[begin] | (length >= min_msgs) | (times[begin + length - 1] - times[begin] >= min_span)
    last = np.maximum.accumulate(np.where(accepted, np.arange(len(begin)), 0))
    return np.repeat(candidates[begin[last]], length)


def _gap_flags(times: np.ndarray, mmsi: np.ndarray, starts: np.ndarray, outages: Sequence[Outage]) -> np.ndarray:
    """For each row of vessel-ordered reports, whether an outage lies within the gap since the vessel's previous
    report: a global outage or the vessel's own.

    Containment (not mere overlap) is required: a vessel that kept
    transmitting underneath somebody else's outage window was not silenced
    by it.
    """
    flags = np.zeros(len(times), dtype=bool)
    prev, cur, pair = times[:-1], times[1:], ~starts[1:]
    for o in outages:
        start, end = epoch_us(o.start), epoch_us(o.end)
        inside = pair & (prev <= start) & (start < cur) & (end <= cur)
        if o.scope != "global":
            inside &= mmsi[1:] == o.subject
        flags[1:] |= inside
    return flags


def _heading_sums(headings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running counts over a stopped run's headings, in report order, and running sums of their unit vectors.

    Each heading h adds its (sin, cos) point on the unit circle, so h and h + 360 add the same one, and a NaN
    heading adds nothing. math's sin and cos make the points, added one after the other, so the sums do not
    depend on the CPU's vector math.
    """
    has = ~np.isnan(headings)
    angles = (2.0 * math.pi * (headings[has] % 360.0) / 360.0).tolist()
    sums = []
    for f in (math.sin, math.cos):
        points = np.zeros(len(headings))
        points[has] = np.fromiter(map(f, angles), float, len(angles))
        sums.append(np.cumsum(points))
    return np.cumsum(has), *sums


def _rbar(n_heading: np.ndarray, sum_s: np.ndarray, sum_c: np.ndarray) -> np.ndarray:
    """Mean resultant length of each row's headings from their count and sums: 1 when they all agree."""
    return np.fromiter(map(math.hypot, (sum_s / n_heading).tolist(), (sum_c / n_heading).tolist()), float)


def _kinematic_votes(times: np.ndarray, headings: np.ndarray, bounds: np.ndarray, min_window: int,
                     rbar_threshold: float) -> np.ndarray:
    """The kinematic vote of each stopped report, -1 where there is none.

    The reports are given in vessel order, and bounds holds where each stopped run starts, then their count. A
    report's vote reads its run up to itself: anchored when the headings rotate (rbar below rbar_threshold),
    moored when they hold still. There is none until the run spans min_window, nor while fewer than
    _MIN_HEADING_FRACTION of its reports so far carry a heading.
    """
    votes = np.full(len(times), -1, dtype=np.int64)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        n_heading, sum_s, sum_c = _heading_sums(headings[a:b])
        ok = (times[a:b] - times[a] >= min_window) & (n_heading > 0)
        ok &= n_heading >= _MIN_HEADING_FRACTION * np.arange(1, b - a + 1)
        rbar = _rbar(n_heading[ok], sum_s[ok], sum_c[ok])
        votes[a + np.flatnonzero(ok)] = np.where(rbar < rbar_threshold, ANCHORED, MOORED)
    return votes


def _stopped_candidates(stopped: Positions, bounds: np.ndarray, port: PortGeometry | None, model: KnnModel | None,
                        cfg: ValidationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The candidate status of each stopped report, in vessel order, and the code of the vote that gave it.

    The first available vote in the method's order decides, and the reported
    status stands when none is. When the geofence and kinematic votes
    disagree, the ensemble asks knn first and keeps the kinematic vote
    without a knn model. Knn is asked once, for the reports it decides.
    """
    votes = {}
    if port is not None:
        votes["geofence"] = _geofence_votes(port, stopped.lat, stopped.lon)
    if cfg.method in ("kinematic", "ensemble"):
        votes["kinematic"] = _kinematic_votes(stopped.time_us, stopped.heading, bounds,
                                              dt.timedelta(hours=cfg.rotation_window_h) // _US, cfg.rotation_rbar)
    status = _fallback_statuses(stopped.navstat)
    code = np.full(len(stopped), _CODE["reported"])
    todo = np.ones(len(stopped), dtype=bool)
    orders = [(_VOTE_ORDER[cfg.method], todo)]
    if cfg.method == "ensemble" and len(votes) == 2:
        geo, kin = votes["geofence"], votes["kinematic"]
        disagree = (kin >= 0) & (geo != kin)
        orders = [(("knn", "kinematic"), disagree), (_VOTE_ORDER[cfg.method], ~disagree)]
    for order, rows in orders:
        for name in order:
            if name == "knn" and model is not None:
                decided = np.flatnonzero(rows & todo)
            elif name in votes:
                decided = np.flatnonzero(rows & todo & (votes[name] >= 0))
                status[decided] = votes[name][decided]
            else:
                continue
            code[decided] = _CODE[name]
            todo[decided] = False
    knn = np.flatnonzero(code == _CODE["knn"])
    if knn.size:
        status[knn] = knn_votes(model, stopped.lat[knn], stopped.lon[knn])
    return status, code


def stream_order(positions: Positions) -> np.ndarray:
    """The rows of validate_stream's output, in order: by (timestamp, mmsi), rows that tie on both in input order."""
    return np.lexsort((positions.mmsi, positions.time_us))


def validate_stream(
    positions: Positions,
    port: PortGeometry | None = None,
    config: ValidationConfig | None = None,
    *,
    outages: Sequence[Outage] | None = None,
) -> Validated:
    """Correct the status of every report; nothing is dropped.

    The input is processed per vessel in timestamp order; the output is the
    whole stream in stream_order. Outages are detected on the stream itself
    unless supplied, and the knn model is fitted from the stream's own
    stopped reports when the method needs one.
    """
    cfg = config or ValidationConfig()
    positions = positions[stream_order(positions)]
    if outages is None:
        outages = detect_outages(positions)
    model = None
    if cfg.method in ("knn", "ensemble"):
        try:
            model = fit_knn(positions, cfg.knn_k, stopped_threshold_kn=cfg.stopped_threshold_kn)
        except TooFewPoints:
            model = None

    order, starts = _vessel_order(positions)
    sog, times = positions.sog[order], positions.time_us[order]
    threshold = cfg.stopped_threshold_kn
    moving = sog >= threshold
    stopped = np.flatnonzero(sog < threshold)
    base_label = "geofence" if port is not None else cfg.method if cfg.method != "ensemble" else "kinematic"
    candidates = np.where(moving, UNDERWAY, _fallback_statuses(positions.navstat[order]))
    codes = np.where(moving, _CODE[base_label], _CODE["reported"])
    # a stopped run ends at a moving report or a new vessel; a report without SOG neither extends nor ends it
    runs = np.cumsum(moving | starts)[stopped]
    bounds = np.flatnonzero(np.diff(runs, prepend=-1, append=-1))  # where each stopped run starts, then the count
    candidates[stopped], codes[stopped] = _stopped_candidates(positions[order[stopped]], bounds, port, model, cfg)
    corrected = _debounce(candidates, times, starts, cfg.hysteresis_msgs,
                          dt.timedelta(minutes=cfg.hysteresis_min) // _US)
    gap_flags = _gap_flags(times, positions.mmsi[order], starts, outages)

    out = np.empty(len(order), dtype=np.int64)  # each output row's place in vessel order
    out[order] = np.arange(len(order))
    corrected = corrected[out]
    return Validated(*positions.columns(), corrected, _LABEL_TEXT[codes[out]], corrected == positions.navstat,
                     gap_flags[out])
