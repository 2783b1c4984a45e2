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

The stream is held as columns (`codec.Positions` in,
`columnar.Validated` out), never as one object per report: `validate_stream` sorts it once
with np.lexsort, takes the geofence vote of every stopped report in one
array pass per polygon, and gives its result as columns in output order.
Only the trailing stopped run behind the kinematic vote and the debounce
filter walk each vessel's reports in turn, over plain lists. Times are
integer microseconds, and the windows from the config are converted with
the rounding timedelta uses.

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
from .columnar import Validated
from .geo import PortGeometry, haversine_m, project_local
from .knn import KnnIndex
from .table import epoch_us, from_epoch_us


class TooFewPoints(ValueError):
    """Not enough stopped training points to fit the requested k."""


METHODS = ("geofence", "kinematic", "knn", "ensemble")

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
        with open(path, "r", encoding="utf-8") as f:
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

    Each distinct position is projected and searched once.
    """
    order = np.lexsort((lon, lat))
    lat, lon = lat[order], lon[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (lat[1:] != lat[:-1]) | (lon[1:] != lon[:-1])
    ones, total = model.index.neighbour_counts(*project_local(model.origin[0], model.origin[1], lat[new], lon[new]),
                                               model.k)
    votes = np.empty(order.shape[0], dtype=np.int64)
    votes[order] = np.where(2 * ones >= total, ANCHORED, MOORED)[np.cumsum(new) - 1]
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

    @property
    def duration(self) -> dt.timedelta:
        return self.end - self.start


def _recent_cadence_ok(times: np.ndarray, first: int, idx: int, max_cadence: int, lookback: int = 5) -> bool:
    """True when the up-to-`lookback` intervals ending at times[idx], none before times[first], are dense."""
    intervals = sorted(np.diff(times[max(first, idx - lookback):idx + 1]).tolist())
    if len(intervals) < 2:
        return False
    return intervals[len(intervals) // 2] < max_cadence


# Silences longer than these are outages at each scope; a vessel must have
# been reporting at a median interval under _DENSE_CADENCE.
_GLOBAL_GAP = dt.timedelta(minutes=15)
_VESSEL_GAP = dt.timedelta(minutes=60)
_DENSE_CADENCE = dt.timedelta(minutes=5)


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


class _StopRun:
    """Incremental view of the trailing contiguous run of stopped samples.

    Each heading h adds (sin, cos) of h on the unit circle, so h and h + 360
    count the same.
    """

    __slots__ = ("start", "end", "n", "n_heading", "sum_s", "sum_c")

    def __init__(self):
        self.reset()

    def reset(self):
        self.start = None
        self.end = None
        self.n = 0
        self.n_heading = 0
        self.sum_s = 0.0
        self.sum_c = 0.0

    def add(self, ts: int, heading: float | None):
        if self.start is None:
            self.start = ts
        self.end = ts
        self.n += 1
        if heading is not None:
            angle = 2.0 * math.pi * (heading % 360.0) / 360.0
            self.sum_s += math.sin(angle)
            self.sum_c += math.cos(angle)
            self.n_heading += 1

    def rbar(self) -> float:
        """Mean resultant length of the run's headings: 1 when they all agree."""
        return math.hypot(self.sum_s / self.n_heading, self.sum_c / self.n_heading)

    def kinematic_vote(self, min_window: int, rbar_threshold: float) -> int | None:
        """Anchored when the run's headings rotate, moored when they hold still.

        None when the run is shorter than min_window or fewer than
        _MIN_HEADING_FRACTION of its samples carry a heading.
        """
        if (
            self.n_heading == 0
            or self.n_heading < _MIN_HEADING_FRACTION * self.n
            or self.end - self.start < min_window
        ):
            return None
        return ANCHORED if self.rbar() < rbar_threshold else MOORED


def _apply_hysteresis(candidates: list[int], times: list, min_msgs: int, min_span) -> list[int]:
    """Debounce a per-vessel candidate status sequence.

    A new value becomes the accepted status once it persists for min_msgs
    consecutive messages or min_span of elapsed time (in the unit of
    `times`); a confirmed change applies from its first message, so clean
    transitions are reproduced exactly. Shorter excursions are rewritten to
    the previously accepted status.
    """
    n = len(candidates)
    out = list(candidates)
    if n == 0:
        return out
    accepted = out[0]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and out[j + 1] == out[i]:
            j += 1
        value = out[i]
        if value != accepted:
            if (j - i + 1) >= min_msgs or (times[j] - times[i]) >= min_span:
                accepted = value
            else:
                for idx in range(i, j + 1):
                    out[idx] = accepted
        i = j + 1
    return out


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


def _kinematic_votes(times: list[int], headings: list[float], runs: list[int], min_window: int,
                     rbar_threshold: float) -> np.ndarray:
    """The kinematic vote of each stopped report, -1 where there is none.

    The reports are given in vessel order with the number of the stopped
    run each belongs to; each vote reads the run up to its report.
    """
    votes = []
    run, current = _StopRun(), None
    for t, heading, number in zip(times, headings, runs):
        if number != current:
            run.reset()
            current = number
        run.add(t, None if heading != heading else heading)
        vote = run.kinematic_vote(min_window, rbar_threshold)
        votes.append(-1 if vote is None else vote)
    return np.array(votes, dtype=np.int64)


def _stopped_candidates(stopped: Positions, runs: np.ndarray, port: PortGeometry | None, model: KnnModel | None,
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
        votes["kinematic"] = _kinematic_votes(stopped.time_us.tolist(), stopped.heading.tolist(), runs.tolist(),
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


def validate_stream(
    positions: Positions,
    port: PortGeometry | None = None,
    config: ValidationConfig | None = None,
    *,
    outages: Sequence[Outage] | None = None,
) -> Validated:
    """Correct the status of every report; nothing is dropped.

    The input is processed per vessel in timestamp order; the output is the
    whole stream sorted by (timestamp, mmsi), rows that tie on both in input
    order. Outages are detected on the stream itself unless supplied, and
    the knn model is fitted from the stream's own stopped reports when the
    method needs one.
    """
    cfg = config or ValidationConfig()
    positions = positions[np.lexsort((positions.mmsi, positions.time_us))]
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
    candidates[stopped], codes[stopped] = _stopped_candidates(positions[order[stopped]], runs, port, model, cfg)

    corrected = []
    if len(order):
        min_span = dt.timedelta(minutes=cfg.hysteresis_min) // _US
        candidates = candidates.tolist()
        bounds = np.flatnonzero(starts).tolist() + [len(order)]
        for a, b in zip(bounds, bounds[1:]):
            corrected += _apply_hysteresis(candidates[a:b], times[a:b], cfg.hysteresis_msgs, min_span)
    gap_flags = _gap_flags(times, positions.mmsi[order], starts, outages)

    out = np.empty(len(order), dtype=np.int64)  # each output row's place in vessel order
    out[order] = np.arange(len(order))
    corrected = np.array(corrected, dtype=np.int64)[out]
    return Validated(*positions.columns(), corrected, _LABEL_TEXT[codes[out]], corrected == positions.navstat,
                     gap_flags[out])
