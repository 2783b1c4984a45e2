"""NMEA 0183 AIVDM/AIVDO decoding and encoding for class-A AIS traffic.

Covers checksum verification, 6-bit payload de-armoring, multi-sentence
reassembly, and bit-level field extraction for message types 1-3 (position
reports) and type 5 (static and voyage data). Other message types are
counted and skipped. Receiver-assigned timestamps are attached at decode
time; the AIS payload itself only carries a seconds-of-minute field.

MessageDecoder.feed_block is the one decode path for live and replayed lines
alike, read from bytes. It decodes the common line shapes, tagged or bare,
for a whole block of lines at once with numpy: single-sentence position
reports, and two-sentence type 5 reports whose fragments sit on adjacent
lines. Where many lines of a block share a length, it learns the shape of
those lines from one regex match and finds every line that fits it at once;
every other line takes the regex on its own. All the block's lines are then
read together from where the regex's groups lie in each. Checksums are an
XOR reduction, payloads are de-armored through a lookup table, and fields
and TAG times are read as integer columns. The positions and type 5 pairs
this pass decodes leave as one Positions and one Statics table, placed among
the block's outcomes (DecodedBlock), and no object is built per position or
pair. Every other line goes in its place to MessageDecoder.feed, the general
parser of one line, so a block gives what feeding its lines one by one
would: malformed, orphaned and rare lines, and a pair that a block boundary
splits. What feed gives stays an outcome, a message it decodes carried as a
run of one row.

Positions is the one table (`table.Table`) of decoded positions that
every stage carries, and Statics holds the block's static reports; each
declares its fields once, with their JSON keys and checks. A receive time
is integer microseconds since the epoch, MMSI and status are integers, and
every other position field is the float64 value it reads as, NaN for "not
available" (_field_values maps the raw fields). A Positions row gives a
PositionReport only when one is asked for.

Each message type's fields are declared once, in _POSITION_LAYOUT and
_STATIC_LAYOUT, and this module owns both directions of each layout. One
reader, _read_rows, reads them from rows of 6-bit values: the block's
payloads as columns, and the one complete payload feed decodes as a row of
its own. encode_positions and encode_statics write them for a batch of
messages at once (_write_rows, the inverse of _read_rows), TAG blocks and
checksums included, as whole lines; synth makes its streams with them.

Field offsets follow the standard ITU-R M.1371 layout as documented in the
public AIVDM/AIVDO protocol notes:

    types 1/2/3 (168 bits)        type 5 (424 bits)
      0   6  message type           0   6  message type
      8  30  MMSI                   8  30  MMSI
     38   4  navigational status   40  30  IMO number
     42   8  rate of turn          70  42  call sign (7 ch)
     50  10  SOG, 1/10 kn         112 120  vessel name (20 ch)
     61  28  longitude, 1e-4 min  232   8  ship type
     89  27  latitude,  1e-4 min  240  30  dimensions (A/B/C/D)
    116  12  COG, 1/10 deg
    128   9  true heading
    137   6  UTC second
"""

import datetime as dt
import functools
import itertools
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .table import (DIMENSION, EPOCH, INTEGER, LATITUDE, LONGITUDE, NUMBER, RATE, TEXT, TIME, UTC,
                    Field, Table, epoch_us, from_epoch_us, join_rows)


class BadChecksum(ValueError):
    """Computed XOR checksum does not match the declared one."""

    error = "bad_checksum"


class Malformed(ValueError):
    """Line does not follow the expected NMEA structure."""

    error = "malformed"


class DuplicateFragment(ValueError):
    """A fragment index appears twice in one group."""

    error = "duplicate_fragment"


# 6-bit armoring alphabet: values 0-39 map to ASCII 48-87, 40-63 to 96-119.
ARMOR_ALPHABET = "".join(chr(v + 48) if v < 40 else chr(v + 56) for v in range(64))
# deletes every armoring character; whatever survives is invalid
_ARMOR_DELETE = {ord(c): None for c in ARMOR_ALPHABET}

# the last whole second a datetime holds, 9999-12-31T23:59:59, in seconds since the epoch
_MAX_EPOCH_S = (dt.datetime.max.replace(tzinfo=UTC) - EPOCH) // dt.timedelta(seconds=1)


# The AIS navigational status codes this toolkit acts on, and the phase kind
# each one names. Every other code is treated as underway.
UNDERWAY, ANCHORED, MOORED = 0, 1, 5
STATUS_KINDS = {UNDERWAY: "underway", ANCHORED: "anchored", MOORED: "moored"}


@dataclass(frozen=True)
class RawSentence:
    """One parsed AIVDM/AIVDO sentence, checksum already verified."""

    talker: str
    fragment_count: int
    fragment_index: int
    message_id: int | None
    channel: str
    payload: str
    fill_bits: int
    checksum: int


@dataclass(slots=True)
class PositionReport:
    """One decoded dynamic position report (types 1-3)."""

    mmsi: int
    timestamp: dt.datetime
    lat: float
    lon: float
    sog: float | None
    cog: float | None
    heading: float | None
    navstat: int
    rot: int | None


def nmea_checksum(body: str) -> int:
    """XOR of all characters between the leading '!'/'$' and the '*'."""
    return functools.reduce(operator.xor, body.encode("ascii"), 0)


def _parse_fields(line: str) -> tuple:
    """Checksum-verified field split, its numbers ASCII digits and its channel one _BLOCK_LINE admits; the tuple
    matches RawSentence order."""
    if not line:
        raise Malformed("empty line")
    if line[0] not in "!$":
        line = line.strip()
        if not line:
            raise Malformed("empty line")
        if line[0] not in "!$":
            raise Malformed("line does not start with '!' or '$'")
    elif line[-1] in " \t\r\n":
        line = line.strip()
    star = line.rfind("*")
    if star == -1 or len(line) - star != 3:
        raise Malformed("missing or short checksum field")
    body = line[1:star]
    try:
        declared = int(line[star + 1 :], 16)
    except ValueError:
        raise Malformed(f"checksum {line[star + 1:]!r} is not hex") from None
    try:
        computed = nmea_checksum(body)
    except UnicodeEncodeError:
        raise Malformed("non-ASCII characters in sentence") from None
    if computed != declared:
        raise BadChecksum(f"computed {computed:02X}, declared {declared:02X}")
    fields = body.split(",")
    if len(fields) != 7:
        raise Malformed(f"expected 7 comma-separated fields, got {len(fields)}")
    talker, frag_count_s, frag_index_s, msg_id_s, channel, payload, fill_s = fields
    # the body is ASCII, where only 0-9 are digits; int() would also take spaces, a sign or underscores
    if not (frag_count_s.isdigit() and frag_index_s.isdigit() and fill_s.isdigit()):
        raise Malformed("non-integer fragment/fill field")
    fragment_count, fragment_index, fill_bits = int(frag_count_s), int(frag_index_s), int(fill_s)
    if fragment_count < 1 or fragment_index < 1:
        raise Malformed("fragment numbers must be >= 1")
    if fragment_index > fragment_count:
        raise Malformed(f"fragment index {fragment_index} > count {fragment_count}")
    if not 0 <= fill_bits <= 5:
        raise Malformed(f"fill bits {fill_bits} outside 0..5")
    message_id = None
    if msg_id_s:
        if not msg_id_s.isdigit():
            raise Malformed(f"message id {msg_id_s!r} is not an integer")
        message_id = int(msg_id_s)
    if channel not in ("", "A", "B", "1", "2"):
        raise Malformed(f"channel {channel!r} is not A, B, 1 or 2")
    if fragment_count > 1 and message_id is None:
        raise Malformed("multi-sentence group without a message id")
    if not payload:
        raise Malformed("empty payload")
    bad = payload.translate(_ARMOR_DELETE)
    if bad:
        raise Malformed(f"payload character {bad[0]!r} outside the armoring alphabet")
    return (talker, fragment_count, fragment_index, message_id, channel, payload, fill_bits, declared)


# The fields the decoder reads, in the order it reads them: (first bit,
# width, two's complement). _read_rows reads a layout from rows of 6-bit
# values, a block's payloads or the one payload feed decodes.
_POSITION_LAYOUT = (
    (0, 6, False),  # message type
    (8, 30, False),  # MMSI
    (38, 4, False),  # navigational status
    (42, 8, True),  # rate of turn
    (50, 10, False),  # SOG, 1/10 kn
    (61, 28, True),  # longitude, 1/10000 min
    (89, 27, True),  # latitude, 1/10000 min
    (116, 12, False),  # COG, 1/10 deg
    (128, 9, False),  # true heading
)
_STATIC_LAYOUT = (
    (0, 6, False),  # message type
    (8, 30, False),  # MMSI
    *((112 + 6 * k, 6, False) for k in range(20)),  # vessel name, 20 six-bit characters
    (232, 8, False),  # ship type
    (240, 9, False),  # dimension to bow
    (249, 9, False),  # to stern
    (258, 6, False),  # to port
    (264, 6, False),  # to starboard
)
_STATIC_BITS = 270  # every field of _STATIC_LAYOUT; a report of 240-269 bits lacks the four dimensions


def _row_plan(layout) -> tuple:
    """How _read_rows reads `layout`: for each field, the 6-bit value it starts in, and its shift, mask and sign.

    Every field of these layouts fits in the 36 bits from the 6-bit value it starts in.
    """
    return (np.array([start // 6 for start, _, _ in layout]),
            np.array([36 - start % 6 - width for start, width, _ in layout]),
            np.array([(1 << width) - 1 for _, width, _ in layout]),
            np.array([1 << width if signed else 0 for _, width, signed in layout]))


_POSITION_ROWS = _row_plan(_POSITION_LAYOUT)
_STATIC_ROWS = _row_plan(_STATIC_LAYOUT)


def _read_rows(six: np.ndarray, plan) -> np.ndarray:
    """The fields of a layout (planned by _row_plan) in each row of an array of 6-bit values, one column each."""
    columns, shifts, masks, signs = plan
    padded = np.concatenate((six, np.zeros((len(six), 5), dtype=np.uint8)), axis=1)
    windows = padded[:, columns].astype(np.int64) << 30  # the 36 bits from the 6-bit value each field starts in
    for j in range(1, 6):
        windows |= padded[:, columns + j].astype(np.int64) << (30 - 6 * j)
    fields = (windows >> shifts) & masks
    fields -= (2 * fields >= signs) * signs  # 0 for unsigned fields
    return fields


def _write_rows(fields: np.ndarray, plan, width: int) -> np.ndarray:
    """The inverse of _read_rows: rows of `width` 6-bit values, one for each row of `fields`, that hold its
    fields (one column each of a layout planned by _row_plan) modulo 2**field width, and 0 in every other bit."""
    columns, shifts, masks, _ = plan
    windows = (fields & masks) << shifts  # each field in the 36 bits from the 6-bit value it starts in
    six = np.zeros((len(fields), width + 5), dtype=np.int64)
    for j, column in enumerate(columns.tolist()):
        for k in range(6):
            six[:, column + k] |= (windows[:, j] >> (30 - 6 * k)) & 63
    return six[:, :width]


def _in_range(lat, lon):
    """Whether degrees lie on the globe, for scalars or numpy columns; the 91/181 sentinels do not."""
    return (abs(lat) <= 90.0) & (abs(lon) <= 180.0)


# What the SOG, COG, heading and rate of turn fields read as, by raw value: SOG and COG in tenths, heading in
# degrees, rate of turn as sent, and NaN for "not available": SOG 1023, COG 3600 and up (indexed by
# min(raw, 3600)), heading 360 and up, rate of turn -128 (indexed by raw + 128).
_SOG = np.append(np.arange(1023) / 10.0, np.nan)
_COG = np.append(np.arange(3600) / 10.0, np.nan)
_HEADING = np.append(np.arange(360.0), np.full(152, np.nan))
_ROT = np.append(np.nan, np.arange(-127.0, 128.0))


def _field_values(sog, cog, heading, rot) -> tuple:
    """SOG, COG, heading and rate of turn as float64, NaN where not available, from their raw values (ints or
    int64 columns)."""
    return _SOG[sog], _COG[np.minimum(cog, 3600)], _HEADING[heading], _ROT[rot + 128]


class Positions(Table, doc_type="position"):
    """Position reports as columns, one row per report, in order: the form in which a run carries them.

    time_us holds the receive time in int64 microseconds since 1970-01-01
    UTC, mmsi and navstat int64; lat, lon, sog, cog, heading and rot hold
    float64 values, NaN where the report has None. feed_block gives the
    positions it decodes as one table, validate and voyages read the
    columns, and each row's stored document is written from them. An int
    index gives the row's PositionReport.
    """

    time_us = Field(TIME, key="ts", row="timestamp")
    mmsi = Field(INTEGER)
    navstat = Field(INTEGER)
    lat = Field(LATITUDE)
    lon = Field(LONGITUDE)
    sog = Field(NUMBER, default=None)
    cog = Field(NUMBER, default=None)
    heading = Field(NUMBER, default=None)
    rot = Field(RATE, default=None)

    @staticmethod
    def row(time_us: int, mmsi: int, navstat: int, lat: float, lon: float, *optional: float) -> PositionReport:
        """The PositionReport of one row's values as Python numbers, NaN for None."""
        sog, cog, heading, rot = (None if v != v else v for v in optional)
        return PositionReport(mmsi, from_epoch_us(time_us), lat, lon, sog, cog, heading, navstat,
                              None if rot is None else int(rot))


def _position_rows(time_us, mmsi, navstat, rot, sog, lon, lat, cog, heading) -> Positions:
    """The table of position fields as _read_rows reads them (_POSITION_LAYOUT after the type), longitude and
    latitude in 1/10000 minute."""
    sog, cog, heading, rot = _field_values(sog, cog, heading, rot)
    return Positions(time_us, mmsi, navstat, lat / 600000.0, lon / 600000.0, sog, cog, heading, rot)


class Statics(Table, doc_type="static"):
    """Static reports (type 5) as columns, one row per report, in order.

    time_us holds the receive time in int64 microseconds since 1970-01-01
    UTC; mmsi, ship_type, length and width are int64, length and width 0
    where the report has None (a decoded length or width of 0 is "not
    available"); name is an object array of str. feed_block gives the type 5
    pairs it decodes as one table, and each row's stored document is written
    from the columns.
    """

    time_us = Field(TIME, key="ts", row="timestamp", default=None)
    mmsi = Field(INTEGER)
    ship_type = Field(INTEGER, default=0)
    length = Field(DIMENSION, default=None)
    width = Field(DIMENSION, default=None)
    name = Field(TEXT, row="vessel_name", default="")


# bytes.translate table of 6-bit text: values 0-31 are '@' and the letters, 32-63 space, digits and punctuation
_SIXBIT_TEXT = bytes.maketrans(bytes(range(64)), bytes(v + 64 if v < 32 else v for v in range(64)))
_NAME_CHARS = 20


def _static_rows(time_us: np.ndarray, fields: np.ndarray) -> Statics:
    """The table of static fields as _read_rows reads them, one row each: _STATIC_LAYOUT after the type."""
    mmsi, ship_type, to_bow, to_stern, to_port, to_starboard = fields[:, [0, *range(21, 26)]].T
    text = fields[:, 1:21].astype(np.uint8).tobytes().translate(_SIXBIT_TEXT).decode("ascii")
    names = np.array([text[k : k + _NAME_CHARS].rstrip("@ ") for k in range(0, len(text), _NAME_CHARS)],
                     dtype=object)
    return Statics(time_us, mmsi, np.where(ship_type <= 99, ship_type, 0),  # reserved codes: "not available"
                   to_bow + to_stern, to_port + to_starboard, names)


# The encoder writes the fields of _POSITION_LAYOUT and _STATIC_LAYOUT, and besides them a position report's UTC
# second and a static report's EPFD type, which no decoder reads. Every other bit it leaves 0.
_POSITION_WRITE = _row_plan(_POSITION_LAYOUT + ((137, 6, False),))  # UTC second
_STATIC_WRITE = _row_plan(_STATIC_LAYOUT + ((270, 4, False),))  # EPFD type
_STATIC_CHARS = 71  # the 424 bits of a type 5 report and 2 fill bits
_ARMOR_BYTES = np.frombuffer(ARMOR_ALPHABET.encode(), dtype=np.uint8)
_HEX_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)


def encode_positions(positions: Positions) -> list[str]:
    """The line of each row of a table, in order: the inverse of feed_block's position rows.

    Each line is a type 1 report in one sentence on channel A, behind a TAG
    block whose c: field is the row's receive time in whole seconds (time_us
    rounded down). The payload holds the row's fields as sent: latitude and
    longitude rounded to 1/600000 degree, SOG and COG rounded to tenths,
    heading and rate of turn rounded, NaN as the "not available" sentinel
    (SOG 1023, COG 3600, heading 511, rate of turn -128), and every field
    modulo 2**width; and the UTC second of the receive time.
    """
    p = positions
    seconds = p.time_us // 1_000_000
    fields = np.stack((np.ones(len(p), dtype=np.int64), p.mmsi, p.navstat, _sent(p.rot, 1, -128),
                       _sent(p.sog, 10, 1023), np.rint(p.lon * 600000).astype(np.int64),
                       np.rint(p.lat * 600000).astype(np.int64),
                       _sent(p.cog, 10, 3600), _sent(p.heading, 1, 511), seconds % 60), axis=1)
    payloads = _ARMOR_BYTES[_write_rows(fields, _POSITION_WRITE, 28)]
    parts = [*_tag(seconds), b"!", *_checked(b"AIVDM,1,1,,A,", payloads, b",0"), b"\n"]
    return join_rows(len(p), parts).decode("ascii").split("\n")[:-1]


def _sent(values: np.ndarray, scale: int, sentinel: int) -> np.ndarray:
    """The raw field of each float64 value: the value times `scale`, rounded, and `sentinel` for NaN."""
    return np.where(np.isnan(values), sentinel, np.rint(values * scale)).astype(np.int64)


def encode_statics(statics: Statics, message_ids) -> list[str]:
    """The two lines of each row of a table, in order: the inverse of feed_block's type 5 pairs.

    Each row becomes a type 5 message in two sentences on channel A with
    its one-digit message id (0-9), the first holding 36 payload characters
    and the second the other 35 and 2 fill bits, each behind a TAG block whose
    c: field is the row's receive time in whole seconds. The name is written
    in upper case, cut or padded with '@' to 20 characters, with '@' for a
    character 6-bit text cannot hold. Length and width are split evenly
    between the dimensions to bow and stern and to port and starboard. The
    EPFD type is 1 (GPS).
    """
    ids = np.asarray(message_ids, dtype=np.int64)
    if ((ids < 0) | (ids > 9)).any():
        raise ValueError("message ids must be single digits")
    s = statics
    names, name_rows = np.unique(s.name, return_inverse=True)
    name_fields = np.zeros((len(names), _NAME_CHARS), dtype=np.int64)  # each distinct name's 6-bit values, made once
    for k, name in enumerate(names.tolist()):
        values = [ord(u) & 63 if len(u := c.upper()) == 1 and 32 <= ord(u) <= 95 else 0 for c in name[:_NAME_CHARS]]
        name_fields[k, : len(values)] = values
    fields = np.column_stack((np.full(len(s), 5), s.mmsi, name_fields[name_rows], s.ship_type, s.length // 2,
                              s.length - s.length // 2, s.width // 2, s.width - s.width // 2, np.ones_like(s.mmsi)))
    payloads = _ARMOR_BYTES[_write_rows(fields, _STATIC_WRITE, _STATIC_CHARS)]
    ids = (ids + ord("0")).astype(np.uint8).reshape(-1, 1)
    tag = _tag(s.time_us // 1_000_000)
    parts = [*tag, b"!", *_checked(b"AIVDM,2,1,", ids, b",A,", payloads[:, :36], b",0"), b"\n",
             *tag, b"!", *_checked(b"AIVDM,2,2,", ids, b",A,", payloads[:, 36:], b",2"), b"\n"]
    return join_rows(len(s), parts).decode("ascii").split("\n")[:-1]


def _tag(seconds: np.ndarray) -> list:
    """The parts (join_rows) of a TAG block holding each c: time in whole seconds."""
    size = np.abs(seconds)
    powers = 10 ** np.arange(len(str(int(size.max(initial=0)))) - 1, -1, -1, dtype=np.int64)
    digits = ((size[:, None] // powers) % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][size[:, None] < powers[:-1]] = 0  # leading zeros, dropped
    sign = np.where(seconds < 0, ord("-"), 0).astype(np.uint8).reshape(-1, 1)
    return [b"\\", *_checked(b"c:", sign, digits), b"\\"]


def _checked(*parts) -> list:
    """The parts (join_rows) of an NMEA body followed by '*' and the two hex digits of its XOR checksum."""
    xor = 0
    for part in parts:
        xor = xor ^ (functools.reduce(operator.xor, part, 0) if isinstance(part, bytes)
                     else np.bitwise_xor.reduce(part, axis=1))
    return [*parts, b"*", _HEX_DIGITS[np.stack((xor >> 4, xor & 15), axis=1)]]


def split_tag_block(line: str) -> tuple[dt.datetime | None, str]:
    """Strip a leading NMEA TAG block, returning its c: timestamp if present.

    TAG blocks look like ``\\c:1567692251*5F\\!AIVDM,...``; only the ``c``
    (receive time, unix seconds or milliseconds) field is interpreted, the
    rest is passed through.
    """
    if not line.startswith("\\"):
        return None, line
    end = line.find("\\", 1)
    if end == -1:
        raise Malformed("unterminated TAG block")
    tag = line[1:end]
    rest = line[end + 1 :]
    star = tag.rfind("*")
    if star == -1 or len(tag) - star != 3:
        raise Malformed("TAG block without checksum")
    try:
        declared = int(tag[star + 1 :], 16)
    except ValueError:
        raise Malformed("TAG block checksum is not hex") from None
    body = tag[:star]
    try:
        computed = nmea_checksum(body)
    except UnicodeEncodeError:
        raise Malformed("non-ASCII characters in TAG block") from None
    if computed != declared:
        raise Malformed("TAG block checksum mismatch")
    return _tag_time(body), rest


def _tag_time(body: str) -> dt.datetime | None:
    """The time of a checked TAG block body's c: field, unix seconds or milliseconds; None without one."""
    rx = None
    for part in (body,) if "," not in body else body.split(","):
        if part.startswith("c:"):
            # a checked body is ASCII, where only 0-9 are digits; a time before 1970 is written with a minus sign
            if not part[2:].removeprefix("-").isdigit():
                raise Malformed(f"TAG block time {part!r} is not an integer")
            epoch = int(part[2:])
            if epoch >= 10**12:  # milliseconds
                epoch //= 1000
            try:
                rx = dt.datetime.fromtimestamp(epoch, tz=UTC)
            except (OverflowError, OSError, ValueError):
                raise Malformed(f"TAG block time {part!r} is out of range") from None
    return rx


# The lines MessageDecoder.feed_block reads itself: an AIVDM/AIVDO sentence,
# bare or behind a TAG block of printable ASCII, that is either a single
# sentence or a fragment of a two-sentence group with a one-digit message id.
# Groups: TAG block body, its time digits when the body is a bare c:<digits>
# of up to 15 digits (every time a datetime holds, in seconds or
# milliseconds), TAG checksum, sentence body, fragment index (None for a
# single sentence), message id, channel, payload, fill bits, sentence
# checksum. Of these, feed_block decodes a single sentence with a
# 28-character (168-bit) payload and no fill bits, and a fragment 1 and 2 of
# one group on adjacent lines; every other line goes to the general parser.
# This is the only grammar, a pattern of bytes. _scan matches it once for
# each shape it learns (_shape, per block, where _SHAPE_LINES lines of one
# length fit it), and once for every line that fits no shape.
_BLOCK_LINE = re.compile(
    rb"(?:\\(c:([0-9]{1,15})(?=\*[0-9A-Fa-f]{2}\\)|[ -\[\]-~]+)\*([0-9A-Fa-f]{2})\\)?"
    rb"!(AIVD[MO],(?:1,1,|2,([12]),([0-9])),([AB12]?),([0-9:;<=>?@A-W`a-w]+),([0-5]))\*([0-9A-Fa-f]{2})"
)
# byte -> 6-bit value of an armoring character, and byte -> hex digit value;
# _BLOCK_LINE admits only bytes these tables define
_SIXBIT = np.zeros(256, dtype=np.uint8)
_SIXBIT[list(ARMOR_ALPHABET.encode())] = np.arange(64)
_HEX = np.zeros(256, dtype=np.int64)
_HEX[list(b"0123456789ABCDEF")] = _HEX[list(b"0123456789abcdef")] = np.arange(16)
# the bytes each group of _BLOCK_LINE admits where a shape does not hold a line's bytes fixed, by group number, and
# under 0 the M or O of AIVDM/AIVDO: three (low, high) ranges of byte values each, one repeated where there are fewer
_GROUP_RANGES = {g: np.frombuffer(ranges, dtype=np.uint8).reshape(3, 2) for g, ranges in {
    0: b"MMOOOO", 2: b"090909", 3: b"09AFaf", 5: b"121212", 6: b"090909", 7: b"AB1212", 8: b"0W`w`w", 9: b"050505",
    10: b"09AFaf"}.items()}
_SHAPE_LINES = 16  # _scan learns shapes where this many lines share a length, until one fits fewer
_PAYLOAD_CHARS = _STATIC_BITS // 6  # the most of a payload that the block pass reads
_SCAN = np.dtype([("ok", bool), ("time_us", np.int64), ("timed", bool), ("fragment", np.int64),  # read by _scan
                  ("message_id", np.int64), ("channel", np.int64), ("fill", np.int64), ("size", np.int64),
                  ("payload", np.uint8, (_PAYLOAD_CHARS,))])


def _shape(m: re.Match) -> tuple[np.ndarray, np.ndarray]:
    """The shape of a _BLOCK_LINE match of a bare line or one behind a c:<digits> TAG block: at each position of a
    line of its length, three ranges of the bytes that may stand there, as their lows and their spans (high minus
    low), one uint8 row per range. The lines that fit are those that match with the same spans: each byte outside
    the groups is m's own, but for the M or O of AIVDM/AIVDO."""
    text = np.frombuffer(m.string, dtype=np.uint8)
    ranges = np.repeat(np.stack((text, text), axis=1)[None], 3, axis=0)
    for group, group_ranges in _GROUP_RANGES.items():  # an absent group spans -1..-1, which holds no position
        start, end = (m.start(4) + 4, m.start(4) + 5) if group == 0 else m.span(group)
        ranges[:, start:end] = group_ranges[:, None]
    return ranges[:, :, 0], ranges[:, :, 1] - ranges[:, :, 0]


def _fits(lines: np.ndarray, shape: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Whether each row of a uint8 matrix of lines fits a _shape: whether each of its bytes lies in one of its
    position's ranges. The bytes stay uint8, in which one below a range's low wraps past the range's span."""
    lows, spans = shape
    fit = lines - lows[0] <= spans[0]
    for low, span in zip(lows[1:], spans[1:]):
        fit |= lines - low <= span
    return fit.all(1)


def _scan(data: bytes, starts: np.ndarray, ends: np.ndarray, rx_us: np.ndarray) -> np.ndarray:
    """What each line data[starts[k]:ends[k]] of a block reads as, one _SCAN record each: whether it matches
    _BLOCK_LINE and its checksums hold (ok), its receive time (its TAG time if any) and whether that reads (timed),
    its fragment index (0 for a single sentence), message id, channel byte (0 for none), fill bits, size and payload.

    The spans of each line's groups come first. Of at least _SHAPE_LINES
    lines of one length, the first is matched, and every line that fits
    the shape of its match (_shape) takes its spans; the rest take the next
    line's, in turn, until a shape fits fewer than _SHAPE_LINES lines or
    the next line does not match or has a TAG block other than a bare
    c:<digits>. Every other line is matched on its own; a TAG time of
    another TAG block is read by _tag_time. A line that is not ASCII
    matches nothing. Every line is then read from its spans.
    """
    n = len(starts)
    s = np.zeros(n, dtype=_SCAN)
    s["time_us"], s["timed"] = rx_us, True
    first, last = (int(starts[0]), int(ends[-1])) if n else (0, 0)
    text = np.frombuffer(data[first:last] + bytes(_PAYLOAD_CHARS), dtype=np.uint8)  # and room for a payload
    sizes, high = ends - starts, np.flatnonzero(text >= 128) + first
    rows = np.searchsorted(starts, high, side="right") - 1  # a line that is not ASCII reads as one without bytes
    sizes[rows[high < ends[rows]]] = 0
    table = [((-1, -1),) * 11]  # the spans of _BLOCK_LINE's groups that lines match with, once per layout
    layouts = {}  # the place in table of each layout
    spans = np.zeros(n, dtype=np.int64)  # the place in table of each line's spans

    def layout(m: re.Match) -> int:  # the groups between these have fixed widths, so these fix every span
        key = m.end(1), m.start(2), m.start(5), m.span(7), m.end()
        if key not in layouts:
            layouts[key] = len(table)
            table.append(m.regs)
        return layouts[key]

    rest = []  # the lines to match one by one
    by_size = np.argsort(sizes, kind="stable")
    starts = starts - first  # where each line starts in text
    for rows in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1) if n else ():
        learn = sizes[rows[0]] and len(rows) >= _SHAPE_LINES
        lines = np.lib.stride_tricks.sliding_window_view(text, sizes[rows[0]])[starts[rows]] if learn else None
        while learn and len(rows):
            m = _BLOCK_LINE.fullmatch(lines[0].tobytes())
            if m is None or m.start(2) == -1 != m.start(1):
                break
            fit = _fits(lines, _shape(m))
            spans[rows[fit]] = layout(m)
            learn = np.count_nonzero(fit) >= _SHAPE_LINES
            rows, lines = rows[~fit], lines[~fit]
        rest += rows.tolist()
    time_us, timed = s["time_us"], s["timed"]
    for k, start, size in zip(rest, (starts[rest] + first).tolist(), sizes[rest].tolist()):
        m = _BLOCK_LINE.fullmatch(data[start : start + size])
        if m is None:
            continue
        spans[k] = layout(m)
        if m.start(2) == -1 != m.start(1):
            try:
                rx = _tag_time(m[1].decode("ascii"))
            except Malformed:
                timed[k] = False
            else:
                time_us[k] = time_us[k] if rx is None else epoch_us(rx)
    # every line read at once from its spans, those of a group that is absent standing at the line's start
    table = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(table)), dtype=np.int64)
    table = table.reshape(-1, 11, 2)
    windows = np.lib.stride_tricks.sliding_window_view(text, _PAYLOAD_CHARS)  # windows[j]: text from j on

    def present(group: int) -> np.ndarray:
        return (table[:, group, 0] != -1).take(spans)

    def at(group: int, end: int = 0) -> np.ndarray:  # where each line's group starts (or ends)
        return starts + np.maximum(table[:, group, end], 0).take(spans)

    def holds(body: int, checksum: int, rows=slice(None)) -> np.ndarray:  # in lines rows, whether the XOR of
        hex_digits = _HEX.take(windows[at(checksum)[rows], :2])  # group body is group checksum's hex number
        bounds = starts[:, None] + np.maximum(table[:, body], 0).take(spans, axis=0)
        return np.bitwise_xor.reduceat(text, bounds[rows].ravel())[::2] == hex_digits[:, 0] * 16 + hex_digits[:, 1]

    s["ok"] = present(0) & holds(4, 10)
    tagged = np.flatnonzero(present(1))
    s["ok"][tagged] &= holds(1, 3, tagged)
    bare = np.flatnonzero(present(2))  # the lines with a bare c:<digits>, their times read at once
    places, first = np.arange(15), at(2)[bare]
    width = at(2, 1)[bare] - first
    digits = np.where(places < width[:, None], windows[first, :15] - 48.0, 0)  # floats, exact below 2**53
    seconds = (digits @ 10.0 ** (14 - places)).astype(np.int64) // 10 ** (15 - width)
    seconds = np.where(seconds >= 10**12, seconds // 1000, seconds)  # milliseconds
    time_us[bare], timed[bare] = seconds * 1_000_000, seconds <= _MAX_EPOCH_S
    s["fragment"] = np.where(present(5), text[at(5)] - ord("0"), 0)
    s["message_id"] = np.where(present(5), text[at(6)] - ord("0"), 0)
    s["fill"] = text[at(9)] - ord("0")
    s["channel"] = np.where(at(7, 1) > at(7), text[at(7)], 0)
    s["size"] = at(8, 1) - at(8)
    s["payload"] = windows[at(8)]  # what follows a shorter payload is never read
    return s


@dataclass(slots=True)
class DecodeOutcome:
    """What became of one input line (or of an expired fragment group).

    kind is one of "position", "static", "buffered", "skipped", "error".
    Every fed line produces exactly one outcome; timeout outcomes for
    expired fragment groups are reported in addition, attributed to the
    first line of the group. A position or static outcome carries its
    message as a run of one row.
    """

    kind: str
    run: "BlockRun | None" = None
    error: str | None = None
    detail: str | None = None
    raw: str | None = None


@dataclass(eq=False)
class BlockRun:
    """A run of a block's rows in receive order: position rows and static rows, static[k] telling which one the
    k-th row is. texts, once the run's lines are written, holds the JSON text of its positions' fields by
    attribute, one byte matrix per field (`table.Table.texts`) row-aligned with positions, and None before."""

    positions: Positions
    statics: Statics
    static: np.ndarray  # bool, one per row
    texts: dict[str, np.ndarray] | None = field(default=None, kw_only=True)

    def __len__(self) -> int:
        return len(self.static)

    def utc_days(self) -> np.ndarray:
        """The proleptic Gregorian ordinal of each row's UTC day, in order."""
        days = np.empty(len(self), dtype=np.int64)
        days[~self.static] = self.positions.utc_days()
        days[self.static] = self.statics.utc_days()
        return days

    @staticmethod
    def concat(runs: list["BlockRun"]) -> "BlockRun":
        """The rows of every run, in order, without texts."""
        return BlockRun(Positions.concat([r.positions for r in runs]), Statics.concat([r.statics for r in runs]),
                        np.concatenate([r.static for r in runs]))

    def run(self, start: int, stop: int) -> "BlockRun":
        """Rows start..stop, with their texts."""
        first, last = (int(np.count_nonzero(self.static[:k])) for k in (start, stop))
        return BlockRun(self.positions[start - first : stop - last], self.statics[first:last],
                        self.static[start:stop],
                        texts=None if self.texts is None
                        else {name: t[start - first : stop - last] for name, t in self.texts.items()})


@dataclass(eq=False)
class DecodedBlock(BlockRun):
    """What feed_block made of a block of lines.

    Its rows are the messages that feed_block's own pass decoded, in order,
    as a BlockRun. outcomes holds every outcome that feed() or the pass gave
    otherwise, in order, the positions and statics feed() decoded included;
    rows[j] is the number of rows that come before outcomes[j]. Read in that
    order, they are the outcomes of feeding the block's lines one by one: a
    position row stands for a position outcome, and a static row for
    fragment 1's buffered outcome followed by fragment 2's static outcome.
    """

    outcomes: list[DecodeOutcome]
    rows: list[int]


# a multi-sentence group not completed within this time of its first
# fragment is dropped and reported as a timeout
_REASSEMBLY_WINDOW_US = 30_000_000


@dataclass(slots=True)
class _PendingGroup:
    first_rx: int  # microseconds since the epoch
    count: int
    raw: str  # the first fragment's line, to which a timeout is attributed
    sentences: dict[int, RawSentence] = field(default_factory=dict)


class MessageDecoder:
    """Stateful line-to-message decoder with fragment reassembly.

    feed_block() decodes a block of lines, with the common line shapes
    decoded for the whole block at once; live and replayed input both
    arrive this way. feed() is the general parser of one line that
    feed_block() hands every other line to. Either one precedes a line's
    outcome with timeout outcomes for the fragment groups that expired
    before the line arrived. Multi-sentence groups are buffered keyed by
    (channel, message id). Counters accumulate across the decoder's
    lifetime.
    """

    def __init__(self):
        self._pending: dict[tuple[str, int | None], _PendingGroup] = {}
        self.lines = 0
        self.positions = 0
        self.statics = 0
        self.buffered = 0
        self.skipped = 0
        self.errors = 0

    @property
    def counts(self) -> dict:
        return {
            "lines": self.lines,
            "positions": self.positions,
            "statics": self.statics,
            "buffered": self.buffered,
            "skipped": self.skipped,
            "errors": self.errors,
        }

    def _error(self, error: str, detail: str, raw: str) -> DecodeOutcome:
        self.errors += 1
        return DecodeOutcome("error", None, error, detail, raw)

    def _timeouts(self, groups: list[_PendingGroup], when: str) -> list[DecodeOutcome]:
        """One timeout error for each dropped group."""
        self.errors += len(groups)
        return [DecodeOutcome("error", None, "timeout", f"{len(g.sentences)}/{g.count} fragments {when}", g.raw)
                for g in groups]

    def _expire(self, now_us: int) -> list[DecodeOutcome]:
        stale = [key for key, group in self._pending.items() if now_us - group.first_rx > _REASSEMBLY_WINDOW_US]
        return self._timeouts([self._pending.pop(key) for key in stale], "within window") if stale else []

    def _add_fragment(self, sentence: RawSentence, rx: dt.datetime, raw: str) -> tuple[str, int] | None:
        """Buffer one fragment; its group's joined payload and fill bits once the group is complete, else None."""
        key = (sentence.channel, sentence.message_id)
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = _PendingGroup(epoch_us(rx), sentence.fragment_count, raw)
        if sentence.fragment_index in group.sentences:
            raise DuplicateFragment(
                f"fragment {sentence.fragment_index}/{sentence.fragment_count} repeated for {key}"
            )
        if sentence.fragment_count != group.count:
            raise Malformed(f"fragment count changed mid-group for {key}")
        group.sentences[sentence.fragment_index] = sentence
        if len(group.sentences) < group.count:
            return None
        del self._pending[key]
        # indices lie in 1..count (_parse_fields) and none repeats, so all are here
        payload = "".join(group.sentences[i].payload for i in range(1, group.count + 1))
        return payload, group.sentences[group.count].fill_bits

    def feed(self, line: str, rx_time: dt.datetime) -> list[DecodeOutcome]:
        """Process one line; eviction of stale fragment groups runs on the
        same clock as the line itself (TAG-block time when present)."""
        self.lines += 1
        raw = line if (line and line[-1] not in "\r\n") else line.rstrip("\r\n")
        rx = rx_time
        sentence_text = raw
        if raw.startswith("\\"):
            try:
                tag_time, sentence_text = split_tag_block(raw)
            except Malformed as exc:
                return [self._error(exc.error, str(exc), raw)]
            if tag_time is not None:
                rx = tag_time
        outcomes = self._expire(epoch_us(rx)) if self._pending else []
        outcomes.append(self._sentence(sentence_text, rx, raw))
        return outcomes

    def _sentence(self, text: str, rx: dt.datetime, raw: str) -> DecodeOutcome:
        """The outcome of a line's sentence, the text behind its TAG block, received at rx."""
        try:
            fields = _parse_fields(text)
        except (BadChecksum, Malformed) as exc:
            return self._error(exc.error, str(exc), raw)
        if fields[1] == 1:  # single-sentence message: skip RawSentence
            return self._decode(fields[5], fields[6], rx, raw)
        try:
            joined = self._add_fragment(RawSentence(*fields), rx, raw)
        except (DuplicateFragment, Malformed) as exc:
            return self._error(exc.error, str(exc), raw)
        if joined is None:
            self.buffered += 1
            return DecodeOutcome("buffered", None, None, None, raw)
        return self._decode(*joined, rx, raw)

    def feed_block(self, data: bytes, starts, ends, rx_us) -> DecodedBlock:
        """What feed(line i, rx_us[i]) for each line in order would give, as a DecodedBlock.

        Line i is data[starts[i]:ends[i]], without its line end, received at
        rx_us[i] microseconds since the epoch; only a line feed() takes becomes a str.
        Single-sentence position lines, and two-sentence type 5 groups whose
        fragments 1 and 2 sit on adjacent lines, are checksummed and decoded
        together, TAG times included (_scan: one match of _BLOCK_LINE for each
        line shape that many lines share, and one for each other line); they
        become rows of a Positions and a Statics table without any per-row
        object. A position line goes to feed() in its place when a checksum or
        its TAG time fails, its type is not 1-3 or it lies out of range. A
        pair goes to feed() when a checksum or TAG time fails, it holds fewer
        than 270 bits or another type, or fragment 2 arrives more than the
        reassembly window after fragment 1; and, checked pair by pair only
        while a group is pending, when its (channel, message id) key is still
        pending after expiring at fragment 1's time, or a group would expire
        at fragment 2's. Every other line goes to feed() too, and what feed()
        gives, positions and statics included, joins the outcomes.
        """
        rx_us = np.asarray(rx_us, dtype=np.int64)
        scan = _scan(data, starts, ends, rx_us)
        ok, fragment, timed, size, payload = (scan[name] for name in ("ok", "fragment", "timed", "size", "payload"))
        # the position rows: the line of each, its receive time, and its fields (_POSITION_LAYOUT after the type)
        position_lines = np.flatnonzero(ok & (fragment == 0) & (scan["fill"] == 0) & (size == 28))
        mtype, *fields = _read_rows(_SIXBIT.take(payload[position_lines, :28]), _POSITION_ROWS).T
        on_globe = _in_range(fields[5] / 600000.0, fields[4] / 600000.0)
        keep = np.flatnonzero((mtype >= 1) & (mtype <= 3) & on_globe & timed[position_lines])
        position_lines, fields = position_lines[keep], [column[keep] for column in fields]
        position_times = scan["time_us"][position_lines]
        # the type 5 pairs: fragment 1's line, each fragment's receive time, and the fields of each (_STATIC_LAYOUT
        # after the type), read from fragment 1's payload continued by fragment 2's
        pair_lines = np.flatnonzero(ok[:-1] & ok[1:] & (fragment[:-1] == 1) & (fragment[1:] == 2)
                                    & (scan["message_id"][:-1] == scan["message_id"][1:])
                                    & (scan["channel"][:-1] == scan["channel"][1:])
                                    & (6 * (size[:-1] + size[1:]) - scan["fill"][1:] >= _STATIC_BITS))
        chars, cut = np.arange(_PAYLOAD_CHARS), size[pair_lines, None]
        joined = np.where(chars < cut, payload[pair_lines],
                          np.take_along_axis(payload[pair_lines + 1], np.maximum(chars - cut, 0), axis=1))
        read = _read_rows(_SIXBIT.take(joined), _STATIC_ROWS)
        first_times, static_times = scan["time_us"][pair_lines], scan["time_us"][pair_lines + 1]
        keep = np.flatnonzero((read[:, 0] == 5) & timed[pair_lines] & timed[pair_lines + 1]
                              & (static_times - first_times <= _REASSEMBLY_WINDOW_US))
        pair_lines, first_times, static_times = pair_lines[keep], first_times[keep], static_times[keep]
        static_fields = read[keep, 1:]
        # the rows in line order, and the time of each one's first line
        order = np.argsort(np.concatenate((position_lines, pair_lines)), kind="stable")
        static = order >= len(position_lines)
        row_lines = np.concatenate((position_lines, pair_lines))[order]
        times = np.concatenate((position_times, first_times))[order]
        kept = np.ones(len(order), dtype=bool)  # False for a pair that goes to feed() after all
        outcomes: list[DecodeOutcome] = []
        at: list[int] = []  # the number of rows before each outcome

        def put(got: list[DecodeOutcome], row: int) -> None:
            """Outcomes that come after `row` rows."""
            outcomes.extend(got)
            at.extend([row] * len(got))

        def fed(i: int) -> list[DecodeOutcome]:
            return self.feed(data[starts[i] : ends[i]].decode("utf-8", "replace"), from_epoch_us(int(rx_us[i])))

        def take(start: int, stop: int) -> None:
            """Rows start..stop, each after the timeouts its first line's time expires. While a group is pending, a
            pair whose key is pending then goes to feed() instead, and a pair at whose fragment 2 a group expires
            gives the outcomes feed() would, its sentences taking feed()'s own steps after the line parse: the rows
            cannot hold the timeouts between its fragments."""
            while self._pending and start < stop:
                deadline = min(group.first_rx for group in self._pending.values()) + _REASSEMBLY_WINDOW_US
                late = np.flatnonzero(static[start:stop] | (times[start:stop] > deadline))
                if not len(late):
                    return
                start += int(late[0])
                put(self._expire(int(times[start])), start)
                if static[start] and self._pending:
                    pair = int(order[start]) - len(position_lines)
                    i, rx2 = int(pair_lines[pair]), int(static_times[pair])
                    channel = int(scan["channel"][i])
                    if (chr(channel) if channel else "", int(scan["message_id"][i])) in self._pending:
                        kept[start] = False
                        put(fed(i) + fed(i + 1), start)
                    elif rx2 - _REASSEMBLY_WINDOW_US > min(group.first_rx for group in self._pending.values()):
                        kept[start] = False
                        self.lines += 2
                        raws = [data[starts[j] : ends[j]].decode("utf-8", "replace") for j in (i, i + 1)]
                        first, second = (raw.rpartition("\\")[2] for raw in raws)
                        put([self._sentence(first, from_epoch_us(int(times[start])), raws[0]), *self._expire(rx2),
                             self._sentence(second, from_epoch_us(rx2), raws[1])], start)
                start += 1

        # every line that is not in a row, with the number of rows before it
        rest = np.ones(len(starts), dtype=bool)
        rest[row_lines] = rest[pair_lines + 1] = False
        stops = np.flatnonzero(rest)
        done = 0
        for i, row in zip(stops.tolist(), np.searchsorted(row_lines, stops).tolist()):
            take(done, row)
            done = row
            put(fed(i), row)
        take(done, len(order))
        if not kept.all():
            at = np.concatenate(([0], np.cumsum(kept)))[at].tolist()
            static, pairs_kept = static[kept], kept[static]
            static_times, static_fields = static_times[pairs_kept], static_fields[pairs_kept]
        self.lines += len(position_times) + 2 * len(static_times)
        self.positions += len(position_times)
        self.statics += len(static_times)
        self.buffered += len(static_times)
        return DecodedBlock(_position_rows(position_times, *fields), _static_rows(static_times, static_fields),
                            static, outcomes, at)

    def _decode(self, payload: str, fill: int, rx: dt.datetime, raw: str) -> DecodeOutcome:
        """The outcome of a complete, checked payload whose last `fill` bits are fill, received at rx.

        Its fields are read as a table of one row, as the block's rows are
        (_read_rows, _position_rows, _static_rows). A position must lie on the
        globe, which the "position unavailable" sentinels (91/181 degrees) do
        not; a static of 240-269 bits reads no dimensions.
        """
        nbits = 6 * len(payload) - fill
        six = _SIXBIT[np.frombuffer(payload.encode("ascii"), dtype=np.uint8)][None]
        mtype = int(six[0, 0]) if nbits >= 6 else -1
        rx_us = np.array([epoch_us(rx)])
        if mtype in (1, 2, 3):
            if nbits < 168:
                return self._error("truncated_buffer", f"position report needs 168 bits, got {nbits}", raw)
            positions = _position_rows(rx_us, *_read_rows(six, _POSITION_ROWS)[:, 1:].T)
            lat, lon = positions.lat.item(), positions.lon.item()
            if not _in_range(lat, lon):
                return self._error("out_of_range_position", f"lat={lat:.5f} lon={lon:.5f}", raw)
            self.positions += 1
            return DecodeOutcome("position", BlockRun(positions, Statics.empty(), np.zeros(1, dtype=bool)), raw=raw)
        if mtype == 5:
            # the name ends at bit 232 and the ship type at 240; the dimensions are optional
            if nbits < 240:
                return self._error("truncated_buffer", f"static report needs at least 240 bits, got {nbits}", raw)
            whole = _STATIC_BITS // 6 if nbits >= _STATIC_BITS else 40  # the 6-bit values of the fields it holds
            padded = np.zeros((1, _STATIC_BITS // 6), dtype=np.uint8)
            padded[:, :whole] = six[:, :whole]
            self.statics += 1
            statics = _static_rows(rx_us, _read_rows(padded, _STATIC_ROWS)[:, 1:])
            return DecodeOutcome("static", BlockRun(Positions.empty(), statics, np.ones(1, dtype=bool)), raw=raw)
        self.skipped += 1
        return DecodeOutcome("skipped", None, None, f"unsupported message type {mtype}", raw)

    def finish(self) -> list[DecodeOutcome]:
        """Flush pending fragment groups at end of input as timeouts."""
        groups = list(self._pending.values())
        self._pending.clear()
        return self._timeouts(groups, "at end of input")
