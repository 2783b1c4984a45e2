import datetime as dt
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import columns, validated_columns
from portcall import jsonl, table, validate, voyage
from portcall.codec import PositionReport
from portcall.columnar import ValidatedMessage
from portcall.validate import Outage

UTC = dt.timezone.utc
T0 = dt.datetime(2019, 9, 1, tzinfo=UTC)
KINEMATIC = validate.ValidationConfig(method="kinematic")


def vmsg(ts, mmsi=219000001, lat=10.0, lon=20.0, sog=0.0, status=0, gap_flag=False):
    rep = PositionReport(mmsi=mmsi, timestamp=ts, lat=lat, lon=lon, sog=sog,
                         cog=None, heading=None, navstat=status, rot=0)
    return ValidatedMessage(rep, status, "geofence", True, gap_flag)


def offset_m(meters):
    # metres of latitude in degrees
    return meters / 111195.0


class TestSplitRules:
    def test_26h_gap_splits_even_when_stationary(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=26))]
        assert len(voyage.extract_voyages(validated_columns(msgs))) == 2

    def test_6h_gap_50m_moved_stays_one_voyage(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=6), lat=10.0 + offset_m(50))]
        assert len(voyage.extract_voyages(validated_columns(msgs))) == 1

    def test_6h_gap_5km_moved_splits(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=6), lat=10.0 + offset_m(5000))]
        assert len(voyage.extract_voyages(validated_columns(msgs))) == 2

    def test_short_gap_large_move_stays(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=4), lat=10.0 + offset_m(5000))]
        assert len(voyage.extract_voyages(validated_columns(msgs))) == 1

    def test_continuous_visit_is_one_voyage(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i)) for i in range(600)]
        out = voyage.extract_voyages(validated_columns(msgs))
        assert len(out) == 1
        assert out[0].arrival == T0
        assert out[0].departure == T0 + dt.timedelta(minutes=599)

    def test_different_vessels_never_merge(self):
        msgs = [vmsg(T0, mmsi=1), vmsg(T0 + dt.timedelta(seconds=1), mmsi=2)]
        assert len(voyage.extract_voyages(validated_columns(msgs))) == 2

    def test_empty_input(self):
        assert voyage.extract_voyages(validated_columns([])) == []


def random_stream(rng, n_msgs, n_vessels=4):
    msgs = []
    for v in range(n_vessels):
        mmsi = 219000001 + v
        ts = T0 + dt.timedelta(minutes=rng.randrange(600))
        lat, lon = 10.0 + rng.random(), 20.0 + rng.random()
        for _ in range(n_msgs // n_vessels):
            choice = rng.random()
            if choice < 0.6:
                ts += dt.timedelta(seconds=rng.randrange(30, 1200))
            elif choice < 0.85:
                ts += dt.timedelta(hours=rng.uniform(4.5, 8.0))
            else:
                ts += dt.timedelta(hours=rng.uniform(20.0, 30.0))
            if rng.random() < 0.5:
                lat += offset_m(rng.uniform(-120.0, 120.0))
            else:
                lat += offset_m(rng.uniform(-6000.0, 6000.0))
            msgs.append(vmsg(ts, mmsi=mmsi, lat=lat, lon=lon))
    rng.shuffle(msgs)
    return msgs


def left_and_returned(a, b) -> bool:
    """validate.left_and_returned on the pair of two validated messages' reports."""
    return bool(validate.left_and_returned(columns([a.report]), columns([b.report]))[0])


class TestSplitProperties:
    def test_partition_no_loss_no_duplication(self):
        rng = random.Random(7)
        msgs = random_stream(rng, 400)
        voyages = voyage.extract_voyages(validated_columns(msgs))
        total = sum(len(v.messages) for v in voyages)
        assert total == len(msgs)
        seen = set()
        for v in voyages:
            for m in v.messages:
                key = (m.report.mmsi, m.report.timestamp, m.report.lat)
                assert key not in seen
                seen.add(key)

    def test_matches_brute_force_boundaries(self):
        rng = random.Random(13)
        for _ in range(10):
            msgs = random_stream(rng, rng.randrange(50, 500))
            voyages = voyage.extract_voyages(validated_columns(msgs))
            expected = oracles.brute_voyage_bounds(msgs)
            got = []
            # a message is known by its vessel, time and latitude, as the partition test finds
            index_of = {(m.report.mmsi, m.report.timestamp, m.report.lat): i for i, m in enumerate(msgs)}
            assert len(index_of) == len(msgs)
            for v in voyages:
                got.append(tuple(index_of[m.report.mmsi, m.report.timestamp, m.report.lat] for m in v.messages))
            assert sorted(got) == sorted(expected)

    def test_shuffle_invariance(self):
        rng = random.Random(3)
        msgs = random_stream(rng, 300)
        a = voyage.extract_voyages(validated_columns(msgs))
        shuffled = list(msgs)
        rng.shuffle(shuffled)
        b = voyage.extract_voyages(validated_columns(shuffled))
        assert [(v.mmsi, v.arrival, v.departure, len(v.messages)) for v in a] == [
            (v.mmsi, v.arrival, v.departure, len(v.messages)) for v in b
        ]

    def test_no_internal_splits_and_boundaries_justified(self):
        rng = random.Random(21)
        msgs = random_stream(rng, 400)
        voyages = voyage.extract_voyages(validated_columns(msgs))
        for v in voyages:
            for a, b in zip(v.messages, v.messages[1:]):
                assert not left_and_returned(a, b)
        by_vessel = {}
        for v in voyages:
            by_vessel.setdefault(v.mmsi, []).append(v)
        for vs in by_vessel.values():
            vs.sort(key=lambda v: v.arrival)
            for a, b in zip(vs, vs[1:]):
                assert left_and_returned(a.messages[-1], b.messages[0])


class TestPhases:
    def test_run_length_segmentation(self):
        statuses = [0, 0, 1, 1, 1, 5, 5, 0]
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=s, sog=(8.0 if s == 0 else 0.1))
                for i, s in enumerate(statuses)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert [p.kind for p in v.phases] == ["underway", "anchored", "moored", "underway"]

    def test_all_moored_single_phase(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=5) for i in range(20)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert len(v.phases) == 1
        assert v.phases[0].kind == "moored"
        assert v.phases[0].duration == dt.timedelta(minutes=57)

    def test_phases_tile_voyage(self):
        rng = random.Random(5)
        statuses = []
        for block in range(12):
            statuses += [rng.choice([0, 1, 5])] * rng.randrange(1, 9)
        msgs = [vmsg(T0 + dt.timedelta(minutes=2 * i), status=s) for i, s in enumerate(statuses)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert v.phases[0].start == v.arrival
        assert v.phases[-1].end == v.departure
        for a, b in zip(v.phases, v.phases[1:]):
            assert a.end == b.start

    def test_mean_sog_and_location(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i), status=0, sog=10.0 + i, lat=10.0 + i, lon=20.0)
                for i in range(3)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        phase = v.phases[0]
        assert phase.mean_sog == pytest.approx(11.0)
        assert phase.lat == pytest.approx(11.0)
        assert phase.n_messages == 3

    def test_empty_sog_gives_none(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i), status=5) for i in range(3)]
        for m in msgs:
            m.report.sog = None
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert v.phases[0].mean_sog is None
        assert v.phases[0].n_sog == 0


def make_voyage(statuses, step_min=3, move_after=None, move_m=0.0):
    msgs = []
    lat = 10.0
    for i, s in enumerate(statuses):
        if move_after is not None and i >= move_after:
            lat = 10.0 + offset_m(move_m)
        msgs.append(vmsg(T0 + dt.timedelta(minutes=step_min * i), status=s, lat=lat,
                         sog=(8.0 if s == 0 else 0.1)))
    return voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])


def flagged(v, outages=()):
    """flag_gaps on v once validate_stream has set its messages' gap flags for these outages.

    The voyage is one vessel's messages in time order, which validate_stream keeps.
    """
    out = validate.validate_stream(v.messages.positions, config=KINEMATIC, outages=list(outages))
    v.messages.gap_flag[:] = out.gap_flag
    return voyage.flag_gaps(v).gap_flagged


class TestFlagGaps:
    def outage(self, start_min, end_min, scope="global", subject=None):
        return Outage(scope, T0 + dt.timedelta(minutes=start_min), T0 + dt.timedelta(minutes=end_min),
                      subject=subject)

    def test_no_outages_no_flag(self):
        v = make_voyage([5] * 20)
        assert not flagged(v)

    def test_outage_inside_moored_phase_ignored(self):
        # vessel silent during the window but moored and stationary across it
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=5) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=5) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert not flagged(v, [self.outage(27, 120)])
        assert v.messages[10].gap_flag

    def test_outage_during_transit_flags(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=0, sog=9.0,
                     lat=10.0 + offset_m(300.0 * i)) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=0, sog=9.0,
                      lat=10.0 + offset_m(6000 + 300.0 * i)) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert flagged(v, [self.outage(27, 120)])

    def test_moved_while_stopped_flags(self):
        # statuses stopped on both sides but the hull shifted 500 m
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=1, sog=0.1) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=1, sog=0.1,
                      lat=10.0 + offset_m(500)) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert flagged(v, [self.outage(27, 120)])

    def test_vessel_scope_must_match(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=0, sog=9.0) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=0, sog=9.0) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(validated_columns(msgs))[0])
        assert not flagged(v, [self.outage(27, 120, scope="vessel", subject=999999999)])
        assert flagged(v, [self.outage(27, 120, scope="vessel", subject=v.mmsi)])

    def test_vessel_reporting_through_window_not_flagged(self):
        # a window overlaps the voyage but the vessel kept talking
        v = make_voyage([0] * 30)
        assert not flagged(v, [self.outage(10, 50)])

    def test_gap_flag_on_the_first_message_is_not_the_voyages(self):
        # the silence before the first message lies before the voyage began
        v = make_voyage([0] * 5)
        v.messages.gap_flag[0] = True
        assert not voyage.flag_gaps(v).gap_flagged
        v.messages.gap_flag[1] = True
        assert voyage.flag_gaps(v).gap_flagged


def random_outages(rng, msgs, mmsis):
    """Global and vessel outages, some starting or ending on a report's timestamp."""
    times = [m.timestamp for m in msgs]
    lo, hi = min(times) - dt.timedelta(hours=1), max(times) + dt.timedelta(hours=1)
    outages = []
    for _ in range(rng.randrange(6)):
        if rng.random() < 0.4:
            start = rng.choice(times)
        else:
            start = lo + (hi - lo) * rng.random()
        end = start + dt.timedelta(minutes=rng.uniform(1.0, 360.0))
        if rng.random() < 0.3:
            later = [t for t in times if t > start]
            end = rng.choice(later) if later else end
        if rng.choice(("global", "vessel")) == "global":
            outages.append(Outage("global", start, end))
        else:
            outages.append(Outage("vessel", start, end, subject=rng.choice(mmsis + [999999999])))
    return outages


def random_reports(rng):
    """Reports of a few vessels: ties, short and long silences, hulls that stay put, creep or jump."""
    mmsis = [219000001 + v for v in range(rng.randrange(1, 4))]
    reports = []
    for mmsi in mmsis:
        ts = T0 + dt.timedelta(minutes=rng.randrange(120))
        lat, lon = 10.0 + 0.12 * rng.random(), 20.0 + 0.12 * rng.random()
        for _ in range(rng.randrange(2, 25)):
            step = rng.random()
            if step < 0.1:
                pass  # same timestamp
            elif step < 0.6:
                ts += dt.timedelta(seconds=rng.randrange(30, 1200))
            elif step < 0.9:
                ts += dt.timedelta(hours=rng.uniform(1.0, 4.0))
            else:
                ts += dt.timedelta(hours=rng.uniform(4.5, 26.0))
            move = rng.random()
            if move < 0.2:
                lat += offset_m(rng.uniform(-60.0, 60.0))
            elif move < 0.5:
                lat, lon = 10.0 + 0.12 * rng.random(), 20.0 + 0.12 * rng.random()
            reports.append(PositionReport(mmsi=mmsi, timestamp=ts, lat=lat, lon=lon, sog=rng.choice((0.1, 9.0)),
                                          cog=None, heading=None, navstat=rng.choice((0, 1, 5)), rot=0))
    rng.shuffle(reports)
    return reports, mmsis


def test_flag_gaps_matches_the_outage_oracle():
    """Voyage flags from validate's message gap flags equal the flags decided from the outages."""
    rng = random.Random(17)
    n_voyages = n_flagged = n_exempt = 0
    for _ in range(300):
        reports, mmsis = random_reports(rng)
        outages = random_outages(rng, reports, mmsis)
        validated = validate.validate_stream(columns(reports), config=KINEMATIC, outages=outages)
        validated.corrected_navstat[:] = [rng.choice((0, 1, 5)) for _ in range(len(validated))]
        for v in voyage.extract_voyages(validated):
            got = voyage.flag_gaps(v).gap_flagged
            assert got == oracles.outage_gap_flagged(v.messages, outages)
            n_voyages += 1
            n_flagged += got
            n_exempt += not got and any(m.gap_flag for m in v.messages[1:])
    assert n_voyages > 500 and n_flagged > 40 and n_exempt > 20


class TestSerialization:
    def test_voyage_roundtrip(self):
        v = make_voyage([0, 0, 1, 1, 5, 5, 0])
        doc = voyage.voyage_to_dict(v)
        back = voyage.voyage_from_dict(doc)
        assert back.mmsi == v.mmsi
        assert back.arrival == v.arrival
        assert back.departure == v.departure
        assert len(back.phases) == len(v.phases)
        for p, q in zip(back.phases, v.phases):
            assert (p.kind, p.start, p.end, p.n_messages, p.n_sog) == (
                q.kind, q.start, q.end, q.n_messages, q.n_sog)
            assert p.mean_sog == q.mean_sog


# times of every offset the stored text converts to UTC, microseconds included, whose UTC day stays in the years
# 1-9999
stored_times = st.datetimes(min_value=dt.datetime(2, 1, 1), max_value=dt.datetime(9998, 12, 31),
                            timezones=st.sampled_from([UTC, dt.timezone(dt.timedelta(hours=5, minutes=30)),
                                                       dt.timezone(dt.timedelta(hours=-8))]))
phases = st.builds(voyage.Phase, kind=st.sampled_from(oracles.PHASE_KINDS), start=stored_times, end=stored_times,
                   mean_sog=st.none() | st.sampled_from([-0.0, 1e-07, 5e-324]) | st.floats(allow_nan=False,
                                                                                          allow_infinity=False),
                   lat=st.floats(-90, 90), lon=st.floats(-180, 180), n_messages=st.integers(1, 10**6),
                   n_sog=st.just(0) | st.integers(0, 10**6))
voyages = st.builds(voyage.Voyage, mmsi=st.integers(0, 10**9), arrival=stored_times, departure=stored_times,
                    messages=st.just([]), phases=st.lists(phases, max_size=4), gap_flagged=st.booleans())
OPTIONAL_KEYS = ("gap_flagged", "phases", "mean_sog", "n_messages", "n_sog")


@settings(max_examples=300, deadline=None)
@given(v=voyages, left_out=st.sets(st.sampled_from(OPTIONAL_KEYS)))
def test_declared_voyage_codec_is_the_hand_written_one(v, left_out):
    """voyage_to_dict gives the hand-written codec's document and text, and voyage_from_dict reads a stored one,
    its optional keys left out or not, as it read it."""
    doc = voyage.voyage_to_dict(v)
    assert doc == oracles.voyage_to_dict(v)
    assert jsonl.dumps(doc) == jsonl.dumps(oracles.voyage_to_dict(v))
    stored = json.loads(jsonl.dumps(doc))
    stored = {key: value for key, value in stored.items() if key not in left_out}
    for p in stored.get("phases", []):
        for key in left_out:
            p.pop(key, None)
    back = voyage.voyage_from_dict(stored)
    want = oracles.voyage_from_dict(stored, voyage.Voyage, voyage.Phase)
    assert (back, repr(back)) == (want, repr(want))
    assert jsonl.dumps(voyage.voyage_to_dict(back)) == jsonl.dumps(oracles.voyage_to_dict(want))


PHASE_DOC = {"kind": "moored", "start": "2019-09-01T00:00:00Z", "end": "2019-09-01T01:00:00Z", "mean_sog": 0.1,
             "lat": 1.0, "lon": 2.0, "n_messages": 2, "n_sog": 2}
VOYAGE_DOC = {"mmsi": 1, "arrival": PHASE_DOC["start"], "departure": PHASE_DOC["end"], "gap_flagged": False,
              "n_messages": 2, "phases": [PHASE_DOC]}


@pytest.mark.parametrize("key,value", [("mmsi", "1"), ("mmsi", 1.5), ("mmsi", True), ("mmsi", None),
                                       ("arrival", 5), ("arrival", "noon"), ("departure", None),
                                       ("gap_flagged", "no"), ("gap_flagged", 1), ("gap_flagged", None)])
def test_a_wrongly_typed_voyage_field_is_named(key, value):
    with pytest.raises(ValueError, match=f"^{key} "):
        voyage.voyage_from_dict(dict(VOYAGE_DOC, **{key: value}))


@pytest.mark.parametrize("key,value", [("kind", "docked"), ("kind", 5), ("kind", None), ("start", 5),
                                       ("end", "noon"), ("mean_sog", "1"), ("mean_sog", True), ("lat", 91),
                                       ("lat", "x"), ("lon", -181.0), ("lon", None), ("n_messages", 1.5),
                                       ("n_messages", "2"), ("n_sog", None)])
def test_a_wrongly_typed_phase_field_is_named(key, value):
    with pytest.raises(ValueError, match=f"^{key} "):
        voyage.voyage_from_dict(dict(VOYAGE_DOC, phases=[dict(PHASE_DOC, **{key: value})]))


@pytest.mark.parametrize("key", ["mmsi", "arrival", "departure", "kind", "start", "end", "lat", "lon"])
def test_a_missing_required_field_is_named(key):
    doc = {k: v for k, v in VOYAGE_DOC.items() if k != key}
    doc["phases"] = [{k: v for k, v in PHASE_DOC.items() if k != key}]
    with pytest.raises(ValueError, match=f"^{key} is missing"):
        voyage.voyage_from_dict(doc)


def test_a_table_field_may_be_named_kind():
    """A field declared as `kind` was once overwritten by the table's document type: left out of the table, and
    neither written nor read."""

    class Tagged(table.Table, doc_type="tagged"):
        kind = table.Field(table.TEXT)
        n = table.Field(table.INTEGER)

    docs = [{"type": "tagged", "kind": "moored", "n": 3}, {"type": "tagged", "kind": "anchored", "n": 4}]
    rows = Tagged.read(docs)
    assert [f.attr for f in Tagged.fields] == ["kind", "n"] and Tagged.doc_type == "tagged"
    assert rows.kind.tolist() == ["moored", "anchored"]
    assert rows.lines() == [jsonl.dumps(doc) for doc in docs]
    assert Tagged.values(docs[0]) == {"kind": "moored", "n": 3}
    assert Tagged.to_dict(SimpleNamespace(kind="moored", n=3)) == docs[0]
    assert [f.attr for f in voyage.Phases.fields][0] == "kind" and voyage.Phases.doc_type is None
