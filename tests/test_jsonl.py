"""The byte-matrix writers against the dict codecs and `dumps` they stand in for."""

import dataclasses
import datetime as dt
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_fed, expanded, message_of, static_columns, validated_columns
from oracles import StaticReport
from portcall import cli, codec, columnar, ingest, jsonl, table
from portcall.codec import STATUS_KINDS, PositionReport, Positions

# floats that json and a hand-rolled formatter are apt to write differently
AWKWARD = (1e-07, -0.0, 5e-324)


def floats(limit: float) -> st.SearchStrategy:
    """Finite floats in [-limit, limit], as the decoder and the stored-document reader give them."""
    return st.floats(-limit, limit) | st.sampled_from(AWKWARD + (-limit, limit))


def numbers(limit: float) -> st.SearchStrategy:
    """Finite numbers in [-limit, limit], ints among them, as stored JSONL from another tool can hold."""
    return floats(limit) | st.integers(-int(limit), int(limit))


# fixed UTC offsets up to a day either way; the bounds keep the UTC year in 1000-9999
timestamps = st.datetimes(
    min_value=dt.datetime(1000, 1, 2), max_value=dt.datetime(9999, 12, 30),
    timezones=st.just(dt.timezone.utc) | st.builds(
        dt.timezone, st.timedeltas(min_value=dt.timedelta(hours=-23, minutes=-59),
                                   max_value=dt.timedelta(hours=23, minutes=59))),
)

def position_reports(number) -> st.SearchStrategy:
    """Position reports whose lat, lon, sog, cog and heading are drawn by number(limit)."""
    return st.builds(
        PositionReport,
        mmsi=st.integers(0, 999999999),
        timestamp=timestamps,
        lat=number(90.0),
        lon=number(180.0),
        sog=st.none() | number(1e16),
        cog=st.none() | number(1e16),
        heading=st.none() | number(1e16),
        navstat=st.integers(0, 15),
        # the rates of turn a float64 column holds exactly reach 2**53 either way
        rot=st.none() | st.integers(-720, 720) | st.sampled_from((-(1 << 53), 1 << 53)),
    )


reports = position_reports(floats)

validated = st.builds(
    columnar.ValidatedMessage,
    report=reports,
    corrected_navstat=st.sampled_from(sorted(STATUS_KINDS)),
    method=st.sampled_from(("geofence", "kinematic", "knn", "reported")),
    agreed_with_reported=st.booleans(),
    gap_flag=st.booleans(),
)


# what validate adds to a position: corrected status, method, agreement and gap flag
validated_fields = st.tuples(st.sampled_from(sorted(STATUS_KINDS)),
                             st.sampled_from(("geofence", "kinematic", "knn", "reported")), st.booleans(),
                             st.booleans())


def whole_seconds(r: PositionReport) -> PositionReport:
    """The report as stored: its time cut to the second in UTC (an offset may hold microseconds)."""
    return dataclasses.replace(r, timestamp=r.timestamp.astimezone(dt.timezone.utc).replace(microsecond=0))


@settings(max_examples=500, deadline=None)
@given(timestamps)
def test_format_ts_is_the_strftime_text(t):
    assert table.format_ts(t) == oracles.strftime_ts(t)


@settings(max_examples=500, deadline=None)
@given(reports)
def test_position_dict_codec_round_trips(r):
    """A report's stored document reads back as the report, its time cut to the second."""
    assert jsonl.message_from_dict(json.loads(jsonl.dumps(jsonl.message_to_dict(r)))) == whole_seconds(r)


@settings(max_examples=300, deadline=None)
@given(st.lists(position_reports(numbers), max_size=8))
def test_stored_reports_round_trip_to_the_column_writers_line(rs):
    """A report as message_from_dict reads it from a stored document, ints in its float fields among them, is
    written alike by the dict codec and by the line writer from its row."""
    read = [jsonl.message_from_dict(json.loads(json.dumps(jsonl.message_to_dict(r)))) for r in rs]
    written = [jsonl.dumps(jsonl.message_to_dict(r)) for r in read]
    assert written == oracles.lines(oracles.of_rows(Positions, read))
    assert [jsonl.message_from_dict(json.loads(line)) for line in written] == read
    assert all(type(v) is float for r in read for v in (r.lat, r.lon, r.sog, r.cog, r.heading) if v is not None)


@settings(max_examples=500, deadline=None)
@given(validated)
def test_validated_line_is_the_dict_codec_text(vm):
    (line,) = oracles.lines(validated_columns([vm]))
    assert line == jsonl.dumps(cli.validated_to_dict(vm))
    assert cli.validated_from_dict(json.loads(line)) == dataclasses.replace(vm, report=whole_seconds(vm.report))


@pytest.mark.parametrize("t, text", [
    (dt.datetime(2019, 12, 31, 23, 59, 59, 999999, tzinfo=dt.timezone.utc), "2019-12-31T23:59:59Z"),
    (dt.datetime(1000, 1, 1, tzinfo=dt.timezone.utc), "1000-01-01T00:00:00Z"),
    (dt.datetime(9999, 12, 31, 23, 59, 59, tzinfo=dt.timezone.utc), "9999-12-31T23:59:59Z"),
    (dt.datetime(2019, 7, 1, 12, 30, 5), None),  # naive: local time
    (dt.datetime(2020, 3, 1, 1, 0, 7, tzinfo=dt.timezone(dt.timedelta(hours=5))), "2020-02-29T20:00:07Z"),
    (dt.datetime(2019, 12, 31, 22, 15, tzinfo=dt.timezone(dt.timedelta(hours=-5))), "2020-01-01T03:15:00Z"),
], ids=["last-microsecond-of-the-year", "year-1000", "year-9999", "naive", "offset-day-back", "offset-day-forward"])
def test_format_ts_edges(t, text):
    """Each edge twice: once filling the cached text of its day, once reading it."""
    assert table.format_ts(t) == table.format_ts(t) == oracles.strftime_ts(t)
    assert text is None or table.format_ts(t) == text


# --- the block writer ------------------------------------------------------------

# receive times and the raw fields of _POSITION_LAYOUT after the type, as codec._position_rows takes them: each
# field's extremes and sentinels, the off-globe 91/181 degrees among them
raw_rows = st.tuples(
    st.integers(codec.epoch_us(dt.datetime(1, 1, 2, tzinfo=dt.timezone.utc)),
                codec.epoch_us(dt.datetime(9999, 12, 30, tzinfo=dt.timezone.utc))),  # receive time, pre-1970 too
    st.integers(0, (1 << 30) - 1),  # MMSI
    st.integers(0, 15),  # navigational status
    st.sampled_from((-128, 127, 0)) | st.integers(-128, 127),  # rate of turn
    st.sampled_from((1023, 1022, 0)) | st.integers(0, 1023),  # SOG
    st.sampled_from((181 * 600000, -108000000, 0)) | st.integers(-(1 << 27), (1 << 27) - 1),  # longitude
    st.sampled_from((91 * 600000, -54000000, 0)) | st.integers(-(1 << 26), (1 << 26) - 1),  # latitude
    st.sampled_from((3600, 3599, 4095)) | st.integers(0, 4095),  # COG
    st.sampled_from((511, 360, 359)) | st.integers(0, 511),  # heading
)


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_rows, min_size=1, max_size=30))
def test_position_lines_are_the_dict_codec_text(rows):
    positions = codec._position_rows(*(np.array(c, dtype=np.int64) for c in zip(*rows)))
    assert oracles.lines(positions) == [jsonl.dumps(jsonl.message_to_dict(r)) for r in positions]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(raw_rows, validated_fields), min_size=1, max_size=30))
def test_block_rows_are_written_from_their_columns(rows):
    """A block's rows keep no document of their own: the texts of their values give the validated lines that the
    dict codec writes for each row's ValidatedMessage."""
    raw, fields = zip(*rows)
    positions = codec._position_rows(*(np.array(c, dtype=np.int64) for c in zip(*raw)))
    corrected, method, agreed, gap_flag = zip(*fields)
    rows = columnar.Validated(*positions.columns(), np.array(corrected), np.array(method, dtype=object),
                              np.array(agreed), np.array(gap_flag))
    assert oracles.lines(rows) == [jsonl.dumps(cli.validated_to_dict(vm)) for vm in rows]


# names holding what a JSON string escapes: quotes, backslashes, control characters and characters past ASCII,
# astral ones included, among any others
INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
statics = st.builds(
    StaticReport,
    mmsi=INT64,
    vessel_name=st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f6a2 @Z') | st.characters(), max_size=24),
    ship_type=INT64,
    # a Statics row holds None as 0, the length or width the decoder reads as "not available"
    length=st.none() | st.integers(1, (1 << 63) - 1),
    width=st.none() | st.integers(1, (1 << 63) - 1),
    # every Statics row has a receive time: feed_block gives each pair fragment 2's
    timestamp=timestamps,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(statics, max_size=12))
def test_static_lines_are_the_dict_codec_text(rs):
    """The static line writer writes each row as `dumps` writes its report's dict, the name escaped alike."""
    assert oracles.lines(static_columns(rs)) == [jsonl.dumps(oracles.message_to_dict(r)) for r in rs]


# one line of a replayed file: a position's raw fields, and its TAG time in seconds or milliseconds (None for
# a bare line), some past the last second a datetime holds
LAST_S = 253402300799  # 9999-12-31T23:59:59Z
replayed_lines = st.tuples(
    st.builds(dict, mmsi=st.integers(0, (1 << 30) - 1), navstat=st.integers(0, 15),
              rot_raw=st.sampled_from((-128, 5)), sog_raw=st.sampled_from((1023, 0, 123)),
              lon_raw=st.integers(-108000000, 108000000), lat_raw=st.integers(-54000000, 54000000),
              cog_raw=st.sampled_from((3600, 4000, 0, 1234)), heading_raw=st.sampled_from((511, 400, 0, 359))),
    st.none() | st.sampled_from((0, LAST_S, LAST_S + 1, 10**12 - 1, 10**12, LAST_S * 1000 + 999, (LAST_S + 1) * 1000))
    | st.integers(0, LAST_S) | st.integers(10**12, LAST_S * 1000 + 999),
)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(replayed_lines, min_size=1, max_size=40),
       raw_start=st.sampled_from(("1969-12-31T23:59:45Z", "1900-02-28T23:59:59Z", "2000-01-01T00:00:00Z")),
       cadence=st.sampled_from((0.5, 1.0, 1 / 3)))
def test_decoded_block_writes_what_feeding_each_line_writes(lines, raw_start, cadence):
    """The block pass's table and writer against feed's outcomes and the dict codec, with the receive times
    of untagged lines at a fractional cadence from a pre-1970 start, and TAG times in seconds or milliseconds."""
    text = [oracles.position_sentence(**fields) if stamp is None
            else oracles.tag_block(oracles.position_sentence(**fields), stamp) for fields, stamp in lines]
    start = table.parse_ts(raw_start)
    per_line = codec.MessageDecoder()
    expected = [o for i, line in enumerate(text)
                for o in per_line.feed(line, start + dt.timedelta(seconds=i * cadence))]
    block = codec.MessageDecoder().feed_block(*oracles.block(text),
                                              ingest._raw_times(codec.epoch_us(start), range(len(text)), cadence))
    assert expanded(block) == as_fed(expected)
    assert oracles.lines(block.positions) == [jsonl.dumps(jsonl.message_to_dict(message_of(o)))
                                              for o in expected if o.kind == "position"]


def test_the_writers_keep_signed_zeros_and_null_apart():
    """Stored rows holding 0.0 and -0.0 in every number and None in every optional field, written in one chunk,
    where each value's text is made once for the rows that share its bit pattern, and again one row at a time."""
    t = dt.datetime(2019, 9, 1, tzinfo=dt.timezone.utc)
    reports = [PositionReport(1, t, zero, zero, sog, sog, sog, 0, rot)
               for zero in (0.0, -0.0) for sog, rot in ((zero, 0), (None, None))]
    messages = [columnar.ValidatedMessage(r, 0, "reported", True, False) for r in reports]
    expected = [jsonl.dumps(cli.validated_to_dict(vm)) for vm in messages]
    assert {'"lat":0.0', '"lat":-0.0', '"sog":null', '"sog":-0.0'} <= set(",".join(expected).split(","))
    rows = validated_columns(messages)
    assert oracles.lines(rows) == expected
    assert [line for k in range(len(rows)) for line in oracles.lines(rows[k:k + 1])] == expected
    assert [Positions.lat.rule.texts(rows.lat[k:k + 1]).tobytes() for k in range(len(rows))] \
        == [b"0.0", b"0.0", b"-0.0", b"-0.0"]


# --- the byte-matrix writer at its edges ----------------------------------------

T0 = dt.datetime(2019, 9, 1, tzinfo=dt.timezone.utc)
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# where repr switches between positional and scientific notation, the smallest subnormal, and a signed zero
REPR_SWITCHES = (1e16, 9999999999999998.0, 1e-05, 0.0001, 5e-324, -0.0)
# where the latitude and longitude writer (`table.shortest_reprs`) changes its binary exponent or its whole digits,
# with their neighbours (the float after 1.0 among them), the largest float it writes, and the globe's edges; the
# float below 1.0 is written by repr, and so is 1.000030517578125, an exact tie of two 15-digit decimals
KERNEL_EDGES = tuple(float(x) for p in [2.0 ** e for e in range(10)] + [10.0, 100.0]
                     for x in (np.nextafter(p, 0.0), p, np.nextafter(p, 1000.0))) \
    + (999.9999999999999, 90.0, -180.0, 1.000030517578125)


@pytest.mark.parametrize("name", ["", "\x00", "a\x00b", "\x01\x1f\x7f", "\n\t\r\x0b", '"\\/',
                                  "\u00e9\u20ac\U0001f6a2", "\u2028\ufeff", "x" * 40])
def test_a_name_with_nul_control_or_non_ascii_characters_is_the_dict_codec_text(name):
    """A string is escaped as `dumps` escapes it: NUL is written as \\u0000, so no text holds the 0 byte that
    pads the writer's rows."""
    rs = [StaticReport(1, name, 70, None, None, T0), StaticReport(2, "B", 70, None, None, T0)]
    lines = oracles.lines(static_columns(rs))
    assert lines == [jsonl.dumps(oracles.message_to_dict(r)) for r in rs]
    assert json.loads(lines[0])["name"] == name


@pytest.mark.parametrize("value", REPR_SWITCHES + tuple(-v for v in REPR_SWITCHES) + (math.nan,)
                         + KERNEL_EDGES + tuple(-v for v in KERNEL_EDGES))
def test_a_float_at_a_repr_switch_is_the_dict_codec_text(value):
    """Each number field holding the value, lat and lon where it lies on the globe, beside a row of ordinary
    values, in position and validated lines; NaN is an optional field's None, written as null."""
    number = None if value != value else value
    lat = number if number is not None and abs(number) <= 90 else 1.5
    lon = number if number is not None and abs(number) <= 180 else -2.25
    rs = [PositionReport(1, T0, lat, lon, number, number, number, 0, None),
          PositionReport(2, T0, 45.123456, -120.5, 12.3, 359.9, 511.0, 5, -127)]
    lines = oracles.lines(oracles.of_rows(Positions, rs))
    assert lines == [jsonl.dumps(jsonl.message_to_dict(r)) for r in rs]
    assert json.loads(lines[0])["sog"] == number
    vms = [columnar.ValidatedMessage(r, 0, "reported", True, False) for r in rs]
    assert oracles.lines(validated_columns(vms)) == [jsonl.dumps(cli.validated_to_dict(vm)) for vm in vms]


# floats the latitude and longitude writer formats itself, of either sign: any bit pattern with 1 <= |v| < 1000, and
# the k / 600000 degrees the decoder gives
kernel_floats = st.builds(
    lambda v, negative: -v if negative else v,
    st.integers(0x3FF0000000000000, 0x408F3FFFFFFFFFFF).map(lambda bits: float(np.int64(bits).view(np.float64)))
    | st.integers(600_000, 108_000_000).map(lambda k: k / 600_000),
    st.booleans())


def kernel_texts(values) -> list[str | None]:
    """The text `table.shortest_reprs` makes of each value, None where it declines."""
    rows, made = table.shortest_reprs(np.array(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode() if m else None for row, m in zip(rows, made)]


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_floats, min_size=1, max_size=40))
def test_the_coordinate_kernel_makes_repr_wherever_it_does_not_decline(values):
    assert [text or repr(v) for v, text in zip(values, kernel_texts(values))] == list(map(repr, values))


def test_the_coordinate_kernel_at_its_edges():
    """Every edge in range is made, and is repr; the tie and the values out of range are declined."""
    edges = KERNEL_EDGES + tuple(-v for v in KERNEL_EDGES)
    declined = {v for v in edges if abs(v) < 1.0} | {1.000030517578125, -1.000030517578125}
    assert {v for v, text in zip(edges, kernel_texts(edges)) if text is None} == declined
    assert [text for v, text in zip(edges, kernel_texts(edges)) if v not in declined] \
        == [repr(v) for v in edges if v not in declined]


def test_the_coordinate_kernel_tables_are_the_f_string_tables():
    heads, quads = table._digit_texts()
    expected_heads, expected_quads = oracles.digit_texts()
    assert heads.dtype == expected_heads.dtype and quads.dtype == expected_quads.dtype
    assert np.array_equal(heads, expected_heads) and np.array_equal(quads, expected_quads)


# each rule that reads texts off a grid: the per-value text it stands in for, and the grid's values, the only ones
# it may leave out of the per-value fallback (`table._texts_of`)
GRIDS = {
    "NUMBER": (table.NUMBER, table._number_text, np.append(np.arange(3601) / 10.0, np.nan)),
    "RATE": (table.RATE, lambda v: "null" if v != v else repr(int(v)), np.append(np.arange(-127.0, 128.0), np.nan)),
    "INTEGER": (table.INTEGER, str, np.arange(1024)),
    "DIMENSION": (table.DIMENSION, lambda v: "null" if v == 0 else str(v), np.arange(1024)),
}
FLOAT_OFF_GRID = (-1.0, 1024.0, 2.0 ** 53, 12.345, -0.0, 5e-324, 1e308, -1e308)


def gridded_texts(rule, column) -> tuple[list[str], np.ndarray]:
    """The texts the rule writes for a column, and the values it hands the per-value fallback, in order."""
    with mock.patch.object(table, "_texts_of", wraps=table._texts_of) as fallback:
        rows = rule.texts(column)
    assert rows.shape[0] == len(column)
    handed = [c.args[0] for c in fallback.call_args_list]
    return ([bytes(row).replace(b"\0", b"").decode() for row in rows],
            np.concatenate(handed) if handed else column[:0])


def assert_gridded(name: str, column: np.ndarray) -> None:
    """The rule's texts are the per-value texts byte for byte, and exactly the values whose bit pattern is not a
    grid value's take the fallback."""
    rule, text, grid = GRIDS[name]
    texts, handed = gridded_texts(rule, column)
    assert texts == [text(v) for v in column.tolist()]
    off_grid = column[~np.isin(column.view(np.int64), grid.view(np.int64))]
    assert np.array_equal(handed.view(np.int64), off_grid.view(np.int64))


def float_bits(name: str) -> st.SearchStrategy:
    """The bit pattern of a float: a grid value, its neighbours, a NaN of any payload and sign, an awkward value off
    the grid, or any float, infinite ones for NUMBER only (no rate of turn is infinite, and int() takes none)."""
    finite = name == "RATE"
    grid = GRIDS[name][2]
    on_grid = st.sampled_from(grid.view(np.int64).tolist()) | st.just(grid[-1:].view(np.int64).item())  # NaN
    neighbours = st.builds(lambda v, up: np.nextafter(v, math.inf if up else -math.inf).view(np.int64).item(),
                           st.sampled_from(grid[:-1]), st.booleans())
    nans = st.builds(lambda sign, payload: (sign << 63 | 0x7FF << 52 | payload) - (sign << 64),
                     st.integers(0, 1), st.integers(1, (1 << 52) - 1))
    others = (st.sampled_from(FLOAT_OFF_GRID + (() if finite else (math.inf, -math.inf)))
              | st.floats(allow_infinity=not finite)).map(lambda v: np.float64(v).view(np.int64).item())
    return on_grid | neighbours | nans | others


def int_values(name: str) -> st.SearchStrategy:
    """An int64: a grid value, one next to the grid, an extreme, or any."""
    grid = GRIDS[name][2]
    return (st.sampled_from(grid.tolist()) | st.sampled_from((-1, 1024, 1 << 53, INT64_MIN, INT64_MAX))
            | st.integers(-1, 1024) | INT64)


@settings(max_examples=200, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_a_gridded_rule_writes_the_per_value_text(name, data):
    """Columns mixing grid values, their neighbours, -0.0, NaNs of other payloads and signs and values off the
    grid: each value's text is its per-value text, and only the values off the grid take the fallback."""
    if GRIDS[name][0].dtype is np.float64:
        column = np.array(data.draw(st.lists(float_bits(name), max_size=60)), dtype=np.int64).view(np.float64)
    else:
        column = np.array(data.draw(st.lists(int_values(name), max_size=60)), dtype=np.int64)
    assert_gridded(name, column)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_every_grid_value_and_its_neighbours_write_the_per_value_text(name):
    """Every grid value, in one column and in reverse, takes its grid row; every neighbour of one takes the
    fallback."""
    grid = GRIDS[name][2]
    assert_gridded(name, grid)
    assert_gridded(name, grid[::-1].copy())
    if grid.dtype == np.float64:
        numbers = grid[:-1]
        assert_gridded(name, np.concatenate([np.nextafter(numbers, -math.inf), numbers,
                                             np.nextafter(numbers, math.inf)]))
    else:
        assert_gridded(name, np.concatenate([grid - 1, grid, grid + 1]))


@pytest.mark.parametrize("kind", [Positions, codec.Statics, columnar.Validated], ids=lambda kind: kind.__name__)
def test_an_empty_table_writes_no_bytes(kind):
    """A table of no rows writes b"", and each field's texts are a matrix of no rows: no rule takes the least or
    the greatest value of an empty column, which numpy refuses."""
    rows = kind.empty()
    assert rows.jsonl() == b""
    assert all(t.shape[0] == 0 for t in rows.texts().values())


def test_int64_min_and_max_are_the_dict_codec_text():
    rs = [StaticReport(INT64_MIN, "A", INT64_MAX, INT64_MAX, 1, T0),
          StaticReport(INT64_MAX, "B", INT64_MIN, 1, None, T0)]
    assert oracles.lines(static_columns(rs)) == [jsonl.dumps(oracles.message_to_dict(r)) for r in rs]
    ps = [PositionReport(mmsi, T0, 0.0, 0.0, None, None, None, navstat, None)
          for mmsi, navstat in ((INT64_MIN, INT64_MAX), (INT64_MAX, INT64_MIN))]
    assert oracles.lines(oracles.of_rows(Positions, ps)) == [jsonl.dumps(jsonl.message_to_dict(r)) for r in ps]


@pytest.mark.parametrize("rows", [0, 1])
def test_an_empty_or_one_row_table_is_the_dict_codec_text(rows):
    """Every table the pipeline writes from columns, with no rows and with one; none of their text is handed
    on, and then every field's is."""
    report = PositionReport(7, T0, -0.0, 5e-324, None, 1e16, 0.0001, 1, None)
    vm = columnar.ValidatedMessage(report, 1, "kn\x00n", False, True)
    static = StaticReport(7, "\x00", 0, None, 3, T0)
    for table_rows, expected in ((oracles.of_rows(Positions, [report] * rows), [jsonl.message_to_dict(report)] * rows),
                                 (validated_columns([vm] * rows), [cli.validated_to_dict(vm)] * rows),
                                 (static_columns([static] * rows), [oracles.message_to_dict(static)] * rows)):
        lines = [jsonl.dumps(doc) for doc in expected]
        assert oracles.lines(table_rows) == lines
        assert table_rows.jsonl() == "".join(line + "\n" for line in lines).encode()
        assert oracles.lines(table_rows, table_rows.texts()) == lines
    assert oracles.lines(validated_columns([vm] * rows),
                         oracles.of_rows(Positions, [report] * rows).texts(["lat", "lon"])) \
        == [jsonl.dumps(cli.validated_to_dict(vm))] * rows


def test_a_byte_order_mark_changes_nothing(tmp_path):
    """A stage input saved with a UTF-8 byte-order mark reads as the same file without one."""
    reports = [PositionReport(mmsi=k, timestamp=dt.datetime(2019, 9, 1, 0, k, tzinfo=dt.timezone.utc), lat=1.5,
                              lon=-2.25, sog=None, cog=90.0, heading=None, navstat=5, rot=None) for k in range(3)]
    text = "".join(jsonl.dumps(jsonl.message_to_dict(r)) + "\n" for r in reports)
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert list(jsonl.read_jsonl(marked)) == list(jsonl.read_jsonl(plain))
    assert [jsonl.message_from_dict(doc) for doc in jsonl.read_jsonl(marked)] == reports
