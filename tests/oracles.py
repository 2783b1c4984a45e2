"""Independent reference implementations used only by the tests.

Everything here is written from the protocol definitions directly, without
reusing the package's tables or helpers, so the tests exercise two separate
code paths: the hand-rolled encoder feeds the decoder, the brute-force
scanners check the optimized classifiers and splitters.
"""

import datetime as dt
import math

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


def static_bits(*, mmsi, name, ship_type, to_bow=0, to_stern=0, to_port=0, to_starboard=0) -> str:
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
        (0, 4),
        (0, 20),
        (0, 8),
    ]
    fields += [(sixbit_char("@"), 6)] * 20  # destination
    fields += [(0, 1), (0, 1)]
    return pack_bits(fields)


def static_sentences(message_id=1, **kwargs) -> list[str]:
    payload, fill = bits_to_payload(static_bits(**kwargs))
    half = len(payload) // 2
    return [
        sentence(payload[:half], 0, frag_count=2, frag_index=1, message_id=message_id),
        sentence(payload[half:], fill, frag_count=2, frag_index=2, message_id=message_id),
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
    inside the outage window, the outage concerns the vessel (global scope,
    its own MMSI, or the area cell of the last report at or before the window
    or of the first at or after it), and the vessel was not anchored or
    moored on both sides within 100 m of where it stopped.
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
        if o.scope == "vessel":
            concerns = o.subject == messages[0].report.mmsi
        elif o.scope == "area":
            cell = tuple(int(v) for v in o.subject.split(","))
            concerns = any(
                m is not None
                and (math.floor(m.report.lat / o.cell_deg), math.floor(m.report.lon / o.cell_deg)) == cell
                for m in (before, after)
            )
        else:
            concerns = True
        if not concerns:
            continue
        if before is None or after is None:
            return True
        moved = haversine_ref(before.report.lat, before.report.lon, after.report.lat, after.report.lon)
        stopped = {1, 5}  # anchored, moored
        if moved > 100.0 or not {before.corrected_navstat, after.corrected_navstat} <= stopped:
            return True
    return False
