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

The knn search is exact without scanning every training point: the model
keeps its points sorted by x, and a query computes distances only inside
the strip |x' - x| <= r, which is certified once its k-th distance is below
the x-distance to the nearest point left out (Friedman, Baskett & Shustek,
"An algorithm for finding nearest neighbors", IEEE Trans. Computers, 1975).
A stream validation asks for one vote per distinct position and starts each
search from the previous query's k-th distance.
"""

import datetime as dt
import math
import operator
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import ANCHORED, MOORED, STATUS_KINDS, UNDERWAY, PositionReport
from .geo import PortGeometry, haversine_m, project_local


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


def _fallback_status(code: int) -> int:
    """Reported status coerced into {0, 1, 5}; anything else means underway."""
    return code if code in STATUS_KINDS else UNDERWAY


def _geofence_vote(port: PortGeometry, report: PositionReport) -> int:
    if port.terminal_at(report.lat, report.lon) is not None:
        return MOORED
    if port.anchorage_at(report.lat, report.lon) is not None:
        return ANCHORED
    return UNDERWAY


@dataclass(frozen=True)
class KnnModel:
    """Location-only k-nearest-neighbour status model for stopped vessels.

    The x-sorted view the search scans is derived from xy here, so a model
    built from its four fields directly searches like one from `fit_knn`.
    """

    k: int
    origin: tuple[float, float]
    xy: np.ndarray  # (n, 2) planar metres around origin
    labels: np.ndarray  # (n,) uint8 with values 1 (anchored) and 5 (moored)
    order: np.ndarray = field(init=False, repr=False, compare=False)  # index into xy of each x-sorted point
    xs: np.ndarray = field(init=False, repr=False, compare=False)  # x of the points in x order
    ys: np.ndarray = field(init=False, repr=False, compare=False)  # y of the points in x order
    r0: float = field(init=False, repr=False, compare=False)  # first strip half-width

    def __post_init__(self):
        order = np.argsort(self.xy[:, 0])
        xs = self.xy[order, 0]
        n = xs.shape[0]
        # the half-width at which a strip would hold about k points if the
        # training points were spread evenly along x
        r0 = float(xs[-1] - xs[0]) * self.k / (2 * n) if n else 0.0
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", self.xy[order, 1])
        object.__setattr__(self, "r0", r0 if r0 > 0.0 else math.inf)


def fit_knn(reports: Iterable[PositionReport], k: int = 300, *, stopped_threshold_kn: float = 0.5) -> KnnModel:
    """Fit the model on stopped reports whose reported status is 1 or 5.

    The reported statuses double as labels; the projection origin is the
    centroid of the training points.
    """
    lats, lons, labels = [], [], []
    for r in reports:
        if r.navstat in (ANCHORED, MOORED) and r.sog is not None and r.sog < stopped_threshold_kn:
            lats.append(r.lat)
            lons.append(r.lon)
            labels.append(r.navstat)
    if k < 1:
        raise TooFewPoints(f"k must be >= 1, got {k}")
    if len(labels) < k:
        raise TooFewPoints(f"{len(labels)} stopped training points, need >= {k}")
    lat_arr = np.asarray(lats, dtype=np.float64)
    lon_arr = np.asarray(lons, dtype=np.float64)
    lat0 = float(lat_arr.mean())
    lon0 = float(lon_arr.mean())
    xy = np.column_stack(project_local(lat0, lon0, lat_arr, lon_arr))
    return KnnModel(k=k, origin=(lat0, lon0), xy=xy, labels=np.asarray(labels, dtype=np.uint8))


# Relative widening of the retry strip beyond sqrt(dk): rounding in x -/+ r
# then cannot leave a point at the k-th distance outside, so the retry
# certifies at once.
_STRIP_EPS = 1e-9


def _neighbor_indices(model: KnnModel, x: float, y: float, r: float) -> tuple[np.ndarray, float]:
    """Indices of the k nearest training points, ties broken by index, and
    the squared distance of the k-th.

    Equivalent to sorting every point by (squared distance, index) and
    taking the first k, which keeps the vote identical to an exhaustive scan
    even with duplicate training points. Only the strip of x-sorted points
    with |x' - x| <= r is scanned. Its k-th squared distance dk is certified
    when it is below the squared x-distance to the nearest point left out on
    either side: every point outside the strip is at least that far, so none
    can tie or beat dk. That bound is computed with the same float operations
    as the distances, so rounding at the strip edge cannot drop a point.
    Otherwise the search retries with r just above sqrt(dk), an upper bound
    on the true k-th distance, so the retry certifies; a strip with fewer
    than k points doubles r (from model.r0 when r is 0). r is only a
    starting guess and does not change the result. When k >= n every point
    is returned and dk reads 0.
    """
    xs, k = model.xs, model.k
    n = xs.shape[0]
    if k >= n:
        return np.arange(n), 0.0
    while True:
        if r < math.inf:
            lo = int(np.searchsorted(xs, x - r, "left"))
            hi = int(np.searchsorted(xs, x + r, "right"))
        else:
            lo, hi = 0, n
        if hi - lo >= k:
            d2 = (xs[lo:hi] - x) ** 2 + (model.ys[lo:hi] - y) ** 2
            dk = float(np.partition(d2, k - 1)[k - 1])
            gap2 = math.inf
            if lo > 0:
                dx = float(xs[lo - 1]) - x
                gap2 = dx * dx
            if hi < n:
                dx = float(xs[hi]) - x
                gap2 = min(gap2, dx * dx)
            if dk < gap2 or (lo == 0 and hi == n):
                break
            r_next = math.sqrt(dk) * (1.0 + _STRIP_EPS)
            if r_next > r:
                r = r_next
                continue
        # fewer than k points in the strip, or rounding left one at dk outside
        r = 2.0 * r if r > 0.0 else model.r0
    window = model.order[lo:hi]
    strict = window[d2 < dk]
    ties = np.sort(window[d2 == dk])
    return np.concatenate([strict, ties[: k - strict.shape[0]]]), dk


class _KnnVotes:
    """Knn votes for one stream, with one neighbour search per distinct position.

    A vote is a pure function of the position and the fixed model, so it is
    kept by (lat, lon) for the voter's lifetime. Each search starts from the
    previous one's k-th distance: consecutive queries come from the same
    vessel and usually from the same spot.
    """

    __slots__ = ("model", "votes", "r")

    def __init__(self, model: KnnModel):
        self.model = model
        self.votes: dict[tuple[float, float], int] = {}
        self.r = model.r0

    def vote(self, report: PositionReport) -> int:
        """Majority label of the k nearest training points; ties go to anchored."""
        key = (report.lat, report.lon)
        vote = self.votes.get(key)
        if vote is None:
            model = self.model
            x, y = project_local(model.origin[0], model.origin[1], report.lat, report.lon)
            idx, dk = _neighbor_indices(model, x, y, self.r)
            self.r = math.sqrt(dk)
            ones = int(np.count_nonzero(model.labels[idx] == ANCHORED))
            vote = self.votes[key] = ANCHORED if ones >= idx.shape[0] - ones else MOORED
        return vote


# ---------------------------------------------------------------------------
# outage detection

# A vessel silent for longer than HARD_GAP, or for longer than SOFT_GAP while
# it moved more than SOFT_GAP_MOVE_M, left the port and came back.
HARD_GAP = dt.timedelta(hours=24)
SOFT_GAP = dt.timedelta(hours=5)
SOFT_GAP_MOVE_M = 100.0


def left_and_returned(prev: PositionReport, cur: PositionReport) -> bool:
    """True when the silence between two consecutive reports of one vessel ends a port visit.

    That is a silence of over 24 hours, or of over 5 hours across which the
    vessel moved more than 100 metres. Voyages split there, and such a
    silence is the vessel's absence, not a data outage.
    """
    gap = cur.timestamp - prev.timestamp
    return gap > HARD_GAP or (gap > SOFT_GAP and haversine_m(prev.lat, prev.lon, cur.lat, cur.lon) > SOFT_GAP_MOVE_M)


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


def _recent_cadence_ok(times: list[dt.datetime], idx: int, max_cadence: dt.timedelta, lookback: int = 5) -> bool:
    """True when the up-to-`lookback` intervals ending at times[idx] are dense."""
    start = max(0, idx - lookback)
    intervals = [times[i + 1] - times[i] for i in range(start, idx)]
    if len(intervals) < 2:
        return False
    intervals.sort()
    return intervals[len(intervals) // 2] < max_cadence


# Silences longer than these are outages at each scope; a vessel must have
# been reporting at a median interval under _DENSE_CADENCE.
_GLOBAL_GAP = dt.timedelta(minutes=15)
_VESSEL_GAP = dt.timedelta(minutes=60)
_DENSE_CADENCE = dt.timedelta(minutes=5)


def detect_outages(reports: Iterable[PositionReport]) -> list[Outage]:
    """Find the silences in a message stream that data went missing in.

    A silence counts only when the vessels did not simply leave, which is
    what `left_and_returned` decides. A vessel outage is a vessel that was
    reporting densely (median interval under 5 minutes) going silent for
    over an hour and reappearing without having left the port. A global
    outage is a silence of the whole stream over 15 minutes that some vessel
    sat through without leaving; when every vessel was away, the port may
    simply have been empty.
    """
    msgs = sorted(reports, key=operator.attrgetter("timestamp"))
    by_vessel: dict[int, list[PositionReport]] = {}
    for m in msgs:
        by_vessel.setdefault(m.mmsi, []).append(m)

    outages: list[Outage] = []
    stayed: list[tuple[dt.datetime, dt.datetime]] = []  # silences over _GLOBAL_GAP a vessel did not leave in
    for mmsi, track in by_vessel.items():
        times = [m.timestamp for m in track]
        for i in range(len(track) - 1):
            gap = times[i + 1] - times[i]
            if gap <= _GLOBAL_GAP or left_and_returned(track[i], track[i + 1]):
                continue
            stayed.append((times[i], times[i + 1]))
            if gap > _VESSEL_GAP and _recent_cadence_ok(times, i, _DENSE_CADENCE):
                outages.append(Outage("vessel", times[i], times[i + 1], subject=mmsi))

    # No report falls inside a global silence, so a stayed silence that
    # starts at or before it and ends after its start spans all of it.
    stayed.sort()
    j, reach = 0, None
    for prev, cur in zip(msgs, msgs[1:]):
        start, end = prev.timestamp, cur.timestamp
        if end - start <= _GLOBAL_GAP:
            continue
        while j < len(stayed) and stayed[j][0] <= start:
            reach = stayed[j][1] if reach is None else max(reach, stayed[j][1])
            j += 1
        if reach is not None and reach >= end:
            outages.append(Outage("global", start, end))
    outages.sort(key=lambda o: (o.start, o.scope, str(o.subject)))
    return outages


# ---------------------------------------------------------------------------
# stream validation


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

    def add(self, ts: dt.datetime, heading: float | None):
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

    def kinematic_vote(self, min_window: dt.timedelta, rbar_threshold: float) -> int | None:
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


def _apply_hysteresis(
    candidates: list[int], times: list[dt.datetime], min_msgs: int, min_minutes: float
) -> list[int]:
    """Debounce a per-vessel candidate status sequence.

    A new value becomes the accepted status once it persists for min_msgs
    consecutive messages or min_minutes of elapsed time; a confirmed change
    applies from its first message, so clean transitions are reproduced
    exactly. Shorter excursions are rewritten to the previously accepted
    status.
    """
    n = len(candidates)
    out = list(candidates)
    if n == 0:
        return out
    min_span = dt.timedelta(minutes=min_minutes)
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


class _VesselOutages:
    """The global outages and one vessel's own, for the gaps between its reports.

    Report times are non-decreasing within a vessel, so a moving pointer
    over the start-sorted intervals keeps the per-report check O(1).
    """

    __slots__ = ("intervals", "_idx")

    def __init__(self, outages: Sequence[Outage], mmsi: int):
        self.intervals = sorted((o.start, o.end) for o in outages if o.scope == "global" or o.subject == mmsi)
        self._idx = 0

    def gap_flag(self, prev_ts: dt.datetime | None, cur_ts: dt.datetime) -> bool:
        """True when the gap between the vessel's reports at prev_ts and cur_ts contains an outage.

        Containment (not mere overlap) is required: a vessel that kept
        transmitting underneath somebody else's outage window was not
        silenced by it.
        """
        if prev_ts is None:
            return False
        intervals = self.intervals
        n = len(intervals)
        i = self._idx
        while i < n and intervals[i][1] <= prev_ts:
            i += 1
        self._idx = i
        j = i
        while j < n and intervals[j][0] < cur_ts:
            if intervals[j][0] >= prev_ts and intervals[j][1] <= cur_ts:
                return True
            j += 1
        return False


def _stopped_candidate(
    report: PositionReport,
    run: _StopRun,
    port: PortGeometry | None,
    knn: _KnnVotes | None,
    cfg: ValidationConfig,
    min_window: dt.timedelta,
) -> tuple[int, str]:
    """Candidate status for a stopped report and the vote that gave it.

    The first available vote in the method's order decides, and the reported
    status stands when none is. When the geofence and kinematic votes
    disagree, the ensemble asks knn first and keeps the kinematic vote
    without a knn model.
    """
    geo_vote = _geofence_vote(port, report) if port is not None else None
    kin_vote = None
    if cfg.method in ("kinematic", "ensemble"):
        kin_vote = run.kinematic_vote(min_window, cfg.rotation_rbar)
    order = _VOTE_ORDER[cfg.method]
    if cfg.method == "ensemble" and geo_vote is not None and kin_vote is not None and geo_vote != kin_vote:
        order = ("knn", "kinematic")
    for name in order:
        if name == "geofence":
            vote = geo_vote
        elif name == "kinematic":
            vote = kin_vote
        else:
            vote = knn.vote(report) if knn is not None else None
        if vote is not None:
            return vote, name
    return _fallback_status(report.navstat), "reported"


def validate_stream(
    reports: Iterable[PositionReport],
    port: PortGeometry | None = None,
    config: ValidationConfig | None = None,
    *,
    outages: Sequence[Outage] | None = None,
) -> list[ValidatedMessage]:
    """Correct the status of every report; nothing is dropped.

    The input is processed per vessel in timestamp order; the output is the
    whole stream sorted by (timestamp, mmsi). Outages are detected on the
    stream itself unless supplied, and the knn model is fitted from the
    stream's own stopped reports when the method needs one.
    """
    cfg = config or ValidationConfig()
    msgs = sorted(reports, key=operator.attrgetter("timestamp", "mmsi"))
    if outages is None:
        outages = detect_outages(msgs)
    model = None
    if cfg.method in ("knn", "ensemble"):
        try:
            model = fit_knn(msgs, cfg.knn_k, stopped_threshold_kn=cfg.stopped_threshold_kn)
        except TooFewPoints:
            model = None
    knn = _KnnVotes(model) if model is not None else None

    base_label = "geofence" if port is not None else cfg.method if cfg.method != "ensemble" else "kinematic"
    by_vessel: dict[int, list[int]] = {}
    for i, m in enumerate(msgs):
        by_vessel.setdefault(m.mmsi, []).append(i)

    corrected = [0] * len(msgs)
    methods = [""] * len(msgs)
    gap_flags = [False] * len(msgs)
    threshold = cfg.stopped_threshold_kn
    min_window = dt.timedelta(hours=cfg.rotation_window_h)
    for mmsi, indices in by_vessel.items():
        vessel_outages = _VesselOutages(outages, mmsi)
        run = _StopRun()
        candidates: list[int] = []
        times: list[dt.datetime] = []
        for i in indices:
            m = msgs[i]
            gap_flags[i] = vessel_outages.gap_flag(times[-1] if times else None, m.timestamp)
            if m.sog is None:
                cand, meth = _fallback_status(m.navstat), "reported"
            elif m.sog >= threshold:
                run.reset()
                cand, meth = UNDERWAY, base_label
            else:
                run.add(m.timestamp, m.heading)
                cand, meth = _stopped_candidate(m, run, port, knn, cfg, min_window)
            candidates.append(cand)
            times.append(m.timestamp)
            methods[i] = meth
        final = _apply_hysteresis(candidates, times, cfg.hysteresis_msgs, cfg.hysteresis_min)
        for i, value in zip(indices, final):
            corrected[i] = value

    return [
        ValidatedMessage(m, corrected[i], methods[i], corrected[i] == m.navstat, gap_flags[i])
        for i, m in enumerate(msgs)
    ]
