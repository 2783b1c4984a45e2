"""The fixed-template writers against the dict codecs and `dumps` they stand in for."""

import dataclasses
import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from portcall import cli, jsonl, validate
from portcall.codec import STATUS_KINDS, PositionReport

# floats that json and a hand-rolled formatter are apt to write differently
AWKWARD = (1e-07, -0.0, 5e-324)


def numbers(limit: float) -> st.SearchStrategy:
    """Finite numbers in [-limit, limit], ints among them, as stored JSONL can hold."""
    return (st.floats(-limit, limit) | st.integers(-int(limit), int(limit))
            | st.sampled_from(AWKWARD + (-limit, limit)))


# fixed UTC offsets up to a day either way; the bounds keep the UTC year in 1000-9999
timestamps = st.datetimes(
    min_value=dt.datetime(1000, 1, 2), max_value=dt.datetime(9999, 12, 30),
    timezones=st.just(dt.timezone.utc) | st.builds(
        dt.timezone, st.timedeltas(min_value=dt.timedelta(hours=-23, minutes=-59),
                                   max_value=dt.timedelta(hours=23, minutes=59))),
)

reports = st.builds(
    PositionReport,
    mmsi=st.integers(0, 999999999),
    timestamp=timestamps,
    lat=numbers(90.0),
    lon=numbers(180.0),
    sog=st.none() | numbers(1e16),
    cog=st.none() | numbers(1e16),
    heading=st.none() | numbers(1e16),
    navstat=st.integers(0, 15),
    rot=st.none() | st.integers(-720, 720),
)

validated = st.builds(
    validate.ValidatedMessage,
    report=reports,
    corrected_navstat=st.sampled_from(sorted(STATUS_KINDS)),
    method=st.sampled_from(("geofence", "kinematic", "knn", "reported")),
    agreed_with_reported=st.booleans(),
    gap_flag=st.booleans(),
)


def whole_seconds(r: PositionReport) -> PositionReport:
    """The report as stored: its time cut to the second in UTC (an offset may hold microseconds)."""
    return dataclasses.replace(r, timestamp=r.timestamp.astimezone(dt.timezone.utc).replace(microsecond=0))


@settings(max_examples=500, deadline=None)
@given(timestamps)
def test_format_ts_is_the_strftime_text(t):
    assert jsonl.format_ts(t) == oracles.strftime_ts(t)


@settings(max_examples=500, deadline=None)
@given(reports)
def test_position_line_is_the_dict_codec_text(r):
    line = jsonl.position_line(r)
    assert line == jsonl.dumps(jsonl.message_to_dict(r))
    assert jsonl.message_from_dict(json.loads(line)) == whole_seconds(r)


@settings(max_examples=500, deadline=None)
@given(validated)
def test_validated_line_is_the_dict_codec_text(vm):
    line = jsonl.validated_line(vm)
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
    assert jsonl.format_ts(t) == jsonl.format_ts(t) == oracles.strftime_ts(t)
    assert text is None or jsonl.format_ts(t) == text
