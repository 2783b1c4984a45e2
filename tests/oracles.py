"""Independent reference implementations used only by the tests.

Everything here is written from the protocol definitions directly, without
reusing the package's tables or helpers, so the tests exercise two separate
code paths: the hand-rolled encoder feeds the decoder, the brute-force
scanners check the optimized classifiers and splitters. The one exception is
the section of row objects the package no longer builds: the static report,
the dict codecs of single messages and the table of row objects, kept in
the form the package had them as the references its tables are checked
against.
"""

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from portcall.codec import BlockRun, PositionReport, Positions, Statics
from portcall.table import from_epoch_us

UTC = dt.timezone.utc


# --- NMEA / AIS encoding -----------------------------------------------------


def xor_checksum(text: str) -> int:
    c = 0
    for ch in text:
        c ^= ord(ch)
    return c


def armor_char(value: int) -> str:
    assert 0 <= value < 64
    return chr(value + 48) if value < 40 else chr(value + 56)


def pack_bits(fields) -> str:
    """Concatenate (value, width) pairs into a bit string, two's complement."""
    out = []
    for value, width in fields:
        out.append(format(value & ((1 << width) - 1), f"0{width}b"))
    return "".join(out)


def bits_to_payload(bitstr: str) -> tuple[str, int]:
    fill = (6 - len(bitstr) % 6) % 6
    bitstr = bitstr + "0" * fill
    payload = "".join(armor_char(int(bitstr[i : i + 6], 2)) for i in range(0, len(bitstr), 6))
    return payload, fill


def sentence(payload: str, fill: int, frag_count=1, frag_index=1, message_id=None, channel="A", talker="AIVDM") -> str:
    mid = "" if message_id is None else str(message_id)
    body = f"{talker},{frag_count},{frag_index},{mid},{channel},{payload},{fill}"
    return f"!{body}*{xor_checksum(body):02X}"


def position_bits(
    *,
    msg_type=1,
    repeat=0,
    mmsi,
    navstat,
    rot_raw,
    sog_raw,
    accuracy=0,
    lon_raw,
    lat_raw,
    cog_raw,
    heading_raw,
    second=0,
    maneuver=0,
    raim=0,
    radio=0,
) -> str:
    return pack_bits(
        [
            (msg_type, 6),
            (repeat, 2),
            (mmsi, 30),
            (navstat, 4),
            (rot_raw, 8),
            (sog_raw, 10),
            (accuracy, 1),
            (lon_raw, 28),
            (lat_raw, 27),
            (cog_raw, 12),
            (heading_raw, 9),
            (second, 6),
            (maneuver, 2),
            (0, 3),
            (raim, 1),
            (radio, 19),
        ]
    )


def position_sentence(**kwargs) -> str:
    payload, fill = bits_to_payload(position_bits(**kwargs))
    return sentence(payload, fill)


def sixbit_char(ch: str) -> int:
    o = ord(ch)
    if 64 <= o <= 95:
        return o - 64
    if 32 <= o <= 63:
        return o
    raise ValueError(f"{ch!r} not representable in 6-bit ASCII")


def static_bits(*, mmsi, name, ship_type, to_bow=0, to_stern=0, to_port=0, to_starboard=0, epfd=0) -> str:
    padded = (name + "@" * 20)[:20]
    fields = [(5, 6), (0, 2), (mmsi, 30), (0, 2), (0, 30)]
    fields += [(sixbit_char("@"), 6)] * 7  # call sign
    fields += [(sixbit_char(c), 6) for c in padded]
    fields += [
        (ship_type, 8),
        (to_bow, 9),
        (to_stern, 9),
        (to_port, 6),
        (to_starboard, 6),
        (epfd, 4),
        (0, 20),
        (0, 8),
    ]
    fields += [(sixbit_char("@"), 6)] * 20  # destination
    fields += [(0, 1), (0, 1)]
    return pack_bits(fields)


def static_sentences(message_id=1, first_chars=None, **kwargs) -> list[str]:
    """Two fragments; the first holds `first_chars` payload characters, half of them by default."""
    payload, fill = bits_to_payload(static_bits(**kwargs))
    cut = len(payload) // 2 if first_chars is None else first_chars
    return [
        sentence(payload[:cut], 0, frag_count=2, frag_index=1, message_id=message_id),
        sentence(payload[cut:], fill, frag_count=2, frag_index=2, message_id=message_id),
    ]


def tag_block(line: str, epoch: int) -> str:
    body = f"c:{epoch}"
    return f"\\{body}*{xor_checksum(body):02X}\\{line}"


# --- brute-force classifiers and splitters -----------------------------------


def brute_neighbors(xy, k: int, qx: float, qy: float) -> list[int]:
    """Exhaustive k-NN: the first k indices sorted by (squared distance, index)."""

    def d2(i):
        dx = xy[i][0] - qx
        dy = xy[i][1] - qy
        return dx * dx + dy * dy

    return sorted(range(len(xy)), key=lambda i: (d2(i), i))[:k]


def brute_knn(xy, labels, k: int, qx: float, qy: float) -> int:
    """Exhaustive k-NN vote over brute_neighbors; a tie goes to anchored."""
    votes = [labels[i] for i in brute_neighbors(xy, k, qx, qy)]
    ones = sum(1 for v in votes if v == 1)
    return 1 if ones >= len(votes) - ones else 5


def resultant_length(headings) -> float:
    """Mean resultant length of headings in degrees: 1 when they all agree, near 0 when spread evenly."""
    vectors = [(math.sin(math.radians(h)), math.cos(math.radians(h))) for h in headings]
    return math.hypot(sum(s for s, _ in vectors) / len(vectors), sum(c for _, c in vectors) / len(vectors))


class StopRun:
    """The trailing contiguous run of a vessel's stopped reports, added one report at a time.

    Each heading h adds (sin, cos) of h on the unit circle, so h and h + 360
    count the same.
    """

    def __init__(self):
        self.start = self.end = None
        self.n = self.n_heading = 0
        self.sum_s = self.sum_c = 0.0

    def add(self, ts, heading):
        """Extend the run by a report at time ts, heading None when it has none."""
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

    def kinematic_vote(self, min_window, rbar_threshold) -> int | None:
        """Anchored (1) when the run's headings rotate, moored (5) when they hold still.

        None when the run spans less than min_window or fewer than half of
        its reports carry a heading.
        """
        if self.n_heading == 0 or self.n_heading < 0.5 * self.n or self.end - self.start < min_window:
            return None
        return 1 if self.rbar() < rbar_threshold else 5


def apply_hysteresis(candidates, times, min_msgs, min_span) -> list:
    """Debounce one vessel's candidate status sequence, one run of equal values after the other.

    A new value becomes the accepted status once it persists for min_msgs
    consecutive messages or min_span of elapsed time (in the unit of
    `times`); a confirmed change applies from its first message. Shorter
    excursions are rewritten to the previously accepted status.
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


def kinematic_statuses(rows, stopped_kn, min_window, rbar_threshold, min_msgs, min_span) -> list:
    """(corrected status, deciding vote) of each row by the kinematic method without port polygons, in row order.

    rows are (mmsi, time, sog, heading, navstat) tuples, sog and heading None
    when missing. Each vessel's rows are walked in time order, rows that tie
    on both in row order. A moving row is underway and ends the vessel's
    stopped run; a row without SOG keeps its reported status and leaves the
    run as it is; a stopped row extends the run and takes its kinematic
    vote, or its reported status where there is none. A reported status
    other than 0, 1 or 5 reads as underway. Each vessel's statuses are then
    debounced.
    """
    order = sorted(range(len(rows)), key=lambda i: (rows[i][0], rows[i][1]))
    out = [None] * len(rows)
    vessels = {}
    for i in order:
        vessels.setdefault(rows[i][0], []).append(i)
    for indices in vessels.values():
        run, candidates, votes = StopRun(), [], []
        for i in indices:
            _, ts, sog, heading, navstat = rows[i]
            reported = navstat if navstat in (0, 1, 5) else 0
            if sog is None:
                status, vote = reported, "reported"
            elif sog >= stopped_kn:
                run = StopRun()
                status, vote = 0, "kinematic"
            else:
                run.add(ts, heading)
                status = run.kinematic_vote(min_window, rbar_threshold)
                status, vote = (reported, "reported") if status is None else (status, "kinematic")
            candidates.append(status)
            votes.append(vote)
        times = [rows[i][1] for i in indices]
        for i, status, vote in zip(indices, apply_hysteresis(candidates, times, min_msgs, min_span), votes):
            out[i] = (status, vote)
    return out


def polygon_contains(ring, lat: float, lon: float, eps: float = 1e-9) -> bool:
    """The even-odd ray-crossing rule for one point and a ring of (lat, lon) vertices, one edge after the other.

    A point within eps of an edge, by the cross product and the edge's box widened by eps, is inside at once;
    so is nothing outside the ring's box widened by eps.
    """
    lats, lons = [p[0] for p in ring], [p[1] for p in ring]
    if not (min(lats) - eps <= lat <= max(lats) + eps and min(lons) - eps <= lon <= max(lons) + eps):
        return False
    inside = False
    for i in range(len(ring)):
        alat, alon = ring[i]
        blat, blon = ring[i - 1]
        cross = (blon - alon) * (lat - alat) - (blat - alat) * (lon - alon)
        if (not abs(cross) > eps and min(alat, blat) - eps <= lat <= max(alat, blat) + eps
                and min(alon, blon) - eps <= lon <= max(alon, blon) + eps):
            return True
        if (alat > lat) != (blat > lat):
            if lon < alon + (lat - alat) * (blon - alon) / (blat - alat):
                inside = not inside
    return inside


def haversine_ref(lat1, lon1, lat2, lon2) -> float:
    r = 6371000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def brute_voyage_bounds(messages) -> list[tuple[int, int]]:
    """Voyage boundaries as (start, end) index pairs over the sorted stream.

    Splits between consecutive same-vessel messages when the gap exceeds
    24 hours, or exceeds 5 hours with more than 100 m of displacement.
    """
    ordered = sorted(
        range(len(messages)),
        key=lambda i: (messages[i].report.mmsi, messages[i].report.timestamp),
    )
    bounds = []
    start = 0
    for pos in range(1, len(ordered) + 1):
        split = pos == len(ordered)
        if not split:
            a = messages[ordered[pos - 1]].report
            b = messages[ordered[pos]].report
            if a.mmsi != b.mmsi:
                split = True
            else:
                gap = b.timestamp - a.timestamp
                if gap > dt.timedelta(hours=24):
                    split = True
                elif gap > dt.timedelta(hours=5) and haversine_ref(a.lat, a.lon, b.lat, b.lon) > 100.0:
                    split = True
        if split:
            bounds.append((start, pos))
            start = pos
    return [(tuple(ordered[a:b])) for a, b in bounds]


def outage_gap_flagged(messages, outages) -> bool:
    """The voyage gap flag decided from the outage list.

    `messages` are one voyage's validated messages in time order. An outage
    that overlaps the voyage flags it when the vessel sent nothing strictly
    inside the outage window, the outage concerns the vessel (global scope
    or its own MMSI), and the vessel was not anchored or moored on both
    sides within 100 m of where it stopped.
    """
    arrival, departure = messages[0].report.timestamp, messages[-1].report.timestamp
    for o in outages:
        if not (o.start < departure and o.end > arrival):
            continue
        before = after = None
        interior = False
        for m in messages:
            ts = m.report.timestamp
            if ts <= o.start:
                before = m
            elif ts < o.end:
                interior = True
                break
            else:
                after = m
                break
        if interior:
            continue
        if o.scope == "vessel" and o.subject != messages[0].report.mmsi:
            continue
        if before is None or after is None:
            return True
        moved = haversine_ref(before.report.lat, before.report.lon, after.report.lat, after.report.lon)
        stopped = {1, 5}  # anchored, moored
        if moved > 100.0 or not {before.corrected_navstat, after.corrected_navstat} <= stopped:
            return True
    return False


# --- JSONL text ----------------------------------------------------------------


def strftime_ts(t: dt.datetime) -> str:
    """A stored timestamp as strftime writes it: UTC, whole seconds, trailing Z."""
    return t.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def iso_ts(t: dt.datetime) -> str:
    """A stored timestamp as isoformat writes it: UTC, whole seconds, trailing Z."""
    return t.astimezone(UTC).replace(microsecond=0, tzinfo=None).isoformat() + "Z"


def parse_iso_ts(s: str) -> dt.datetime:
    return dt.datetime.fromisoformat(s.replace("Z", "+00:00")).astimezone(UTC)


# --- row objects of single messages, which the package hands on as table rows -------------------------------


@dataclass(slots=True)
class StaticReport:
    """Decoded static/voyage data (type 5): identity and vessel type."""

    mmsi: int
    vessel_name: str
    ship_type: int
    length: int | None = None
    width: int | None = None
    timestamp: dt.datetime | None = None


def static_report(time_us: int, mmsi: int, ship_type: int, length: int, width: int, name: str) -> StaticReport:
    """The StaticReport of one Statics row's values: a length or width of 0 is None."""
    return StaticReport(mmsi, name, ship_type, length or None, width or None, from_epoch_us(time_us))


def reports(table) -> list:
    """The report of each row of a Positions or a Statics table, in order."""
    if isinstance(table, Statics):
        return list(map(static_report, *(c.tolist() for c in table.columns())))
    return list(table)


def of_rows(table: type, rows) -> object:
    """The table of the given row objects, in order: each field's column of their attribute values."""
    return table(*(f.rule.column([getattr(r, f.row) for r in rows]) for f in table.fields))


def run_of(messages) -> BlockRun:
    """The run of the given PositionReports and StaticReports, in order."""
    static = [isinstance(m, StaticReport) for m in messages]
    return BlockRun(of_rows(Positions, [m for m, s in zip(messages, static) if not s]),
                    of_rows(Statics, [m for m, s in zip(messages, static) if s]), np.array(static, dtype=bool))


def lines(table, texts=None) -> list[str]:
    """The stored document of each row of a table, as its JSONL writer (`Table.jsonl`) writes it, without the
    newlines."""
    return table.jsonl(texts).decode("ascii").split("\n")[:-1]


def block(lines) -> tuple:
    """Lines as MessageDecoder.feed_block takes them, each without its line end: their UTF-8 bytes in one buffer,
    each followed by a newline, and the start and end of each line in it."""
    data = [line.rstrip("\r\n").encode() for line in lines]
    sizes = np.array(list(map(len, data)), dtype=np.int64)
    ends = np.cumsum(sizes + 1) - 1
    return b"".join(d + b"\n" for d in data), ends - sizes, ends


def message_to_dict(msg) -> dict:
    """The stored document of a PositionReport or a StaticReport, as the dict codec wrote it."""
    return (Positions if isinstance(msg, PositionReport) else Statics).to_dict(msg)


def message_from_dict(doc: dict):
    """The PositionReport or StaticReport a stored document holds; a ValueError as a stored line's malformed
    error gives it."""
    kind = doc.get("type")
    if kind == Positions.doc_type:
        return PositionReport(**Positions.values(doc))
    if kind == Statics.doc_type:
        return StaticReport(**Statics.values(doc))
    raise ValueError(f"unknown message type {kind!r}")


# --- the synthetic truth ----------------------------------------------------------------------------------------

STATUS_OF_KIND = {"underway": 0, "anchored": 1, "moored": 5}


def status_at(truth, mmsi: int, ts: dt.datetime) -> int | None:
    """The true status of a vessel at an instant, by a scan of a synth truth log's phases; None outside every
    phase."""
    for p in truth.phases:
        if p.mmsi == mmsi and p.start <= ts < p.end:
            return STATUS_OF_KIND[p.kind]
    return None


# --- stored voyages and outages: the dict codecs as they were written by hand, field by field ----------------

PHASE_KINDS = ("underway", "anchored", "moored")


def voyage_to_dict(voyage) -> dict:
    return {
        "mmsi": voyage.mmsi,
        "arrival": iso_ts(voyage.arrival),
        "departure": iso_ts(voyage.departure),
        "n_messages": len(voyage.messages) or sum(p.n_messages for p in voyage.phases),
        "gap_flagged": voyage.gap_flagged,
        "phases": [
            {
                "kind": p.kind,
                "start": iso_ts(p.start),
                "end": iso_ts(p.end),
                "mean_sog": p.mean_sog,
                "lat": p.lat,
                "lon": p.lon,
                "n_messages": p.n_messages,
                "n_sog": p.n_sog,
            }
            for p in voyage.phases
        ],
    }


def voyage_from_dict(doc: dict, voyage_type, phase_type):
    """The voyage_type a stored document holds, with its phases as phase_type; a phase kind it does not know is a
    ValueError."""
    phases = []
    for p in doc.get("phases", []):
        if p["kind"] not in PHASE_KINDS:
            raise ValueError(f"phase kind {p['kind']!r} is not one of {sorted(PHASE_KINDS)}")
        mean_sog = p.get("mean_sog")
        phases.append(
            phase_type(
                kind=p["kind"],
                start=parse_iso_ts(p["start"]),
                end=parse_iso_ts(p["end"]),
                mean_sog=None if mean_sog is None else float(mean_sog),
                lat=float(p["lat"]),
                lon=float(p["lon"]),
                n_messages=p.get("n_messages", 0),
                n_sog=p.get("n_sog", 0),
            )
        )
    return voyage_type(
        mmsi=doc["mmsi"],
        arrival=parse_iso_ts(doc["arrival"]),
        departure=parse_iso_ts(doc["departure"]),
        messages=[],
        phases=phases,
        gap_flagged=doc.get("gap_flagged", False),
    )


def outage_to_dict(o) -> dict:
    return {
        "scope": o.scope,
        "start": iso_ts(o.start),
        "end": iso_ts(o.end),
        "subject": o.subject,
    }


# --- scenario files ----------------------------------------------------------------------------------------


def scenario_to_json_dict(scenario) -> dict:
    """The JSON document of a synth scenario, as `Scenario.load` reads it."""
    return {
        "seed": scenario.seed,
        "center": list(scenario.center),
        "error_p": scenario.error_p,
        "cadence_underway_s": scenario.cadence_underway_s,
        "cadence_stopped_s": scenario.cadence_stopped_s,
        "static_interval_s": scenario.static_interval_s,
        "vessels": [
            {
                "mmsi": v.mmsi,
                "name": v.name,
                "ship_type": v.ship_type,
                "cruise_kn": v.cruise_kn,
                "visits": [
                    {
                        "arrive": iso_ts(visit.arrive),
                        "anchor_h": visit.anchor_h,
                        "moor_h": visit.moor_h,
                        "terminal": visit.terminal,
                        "anchor_rate_deg_h": visit.anchor_rate_deg_h,
                    }
                    for visit in v.visits
                ],
            }
            for v in scenario.vessels
        ],
        "outages": [
            {"scope": o.scope, "start": iso_ts(o.start), "end": iso_ts(o.end), "mmsi": o.mmsi}
            for o in scenario.outages
        ],
    }
