import datetime as dt
import math
import random

import pytest

import oracles
from portcall import validate, voyage
from portcall.codec import PositionReport
from portcall.validate import Outage, ValidatedMessage

UTC = dt.timezone.utc
T0 = dt.datetime(2019, 9, 1, tzinfo=UTC)
KINEMATIC = validate.ValidationConfig(method="kinematic")
CELL_DEG = 0.05


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
        assert len(voyage.extract_voyages(msgs)) == 2

    def test_6h_gap_50m_moved_stays_one_voyage(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=6), lat=10.0 + offset_m(50))]
        assert len(voyage.extract_voyages(msgs)) == 1

    def test_6h_gap_5km_moved_splits(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=6), lat=10.0 + offset_m(5000))]
        assert len(voyage.extract_voyages(msgs)) == 2

    def test_short_gap_large_move_stays(self):
        msgs = [vmsg(T0), vmsg(T0 + dt.timedelta(hours=4), lat=10.0 + offset_m(5000))]
        assert len(voyage.extract_voyages(msgs)) == 1

    def test_continuous_visit_is_one_voyage(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i)) for i in range(600)]
        out = voyage.extract_voyages(msgs)
        assert len(out) == 1
        assert out[0].arrival == T0
        assert out[0].departure == T0 + dt.timedelta(minutes=599)

    def test_different_vessels_never_merge(self):
        msgs = [vmsg(T0, mmsi=1), vmsg(T0 + dt.timedelta(seconds=1), mmsi=2)]
        assert len(voyage.extract_voyages(msgs)) == 2

    def test_empty_input(self):
        assert voyage.extract_voyages([]) == []


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


class TestSplitProperties:
    def test_partition_no_loss_no_duplication(self):
        rng = random.Random(7)
        msgs = random_stream(rng, 400)
        voyages = voyage.extract_voyages(msgs)
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
            voyages = voyage.extract_voyages(msgs)
            expected = oracles.brute_voyage_bounds(msgs)
            got = []
            ordered = sorted(range(len(msgs)), key=lambda i: (msgs[i].report.mmsi, msgs[i].report.timestamp))
            index_of = {id(msgs[i]): i for i in range(len(msgs))}
            for v in voyages:
                got.append(tuple(index_of[id(m)] for m in v.messages))
            assert sorted(got) == sorted(expected)

    def test_shuffle_invariance(self):
        rng = random.Random(3)
        msgs = random_stream(rng, 300)
        a = voyage.extract_voyages(msgs)
        shuffled = list(msgs)
        rng.shuffle(shuffled)
        b = voyage.extract_voyages(shuffled)
        assert [(v.mmsi, v.arrival, v.departure, len(v.messages)) for v in a] == [
            (v.mmsi, v.arrival, v.departure, len(v.messages)) for v in b
        ]

    def test_no_internal_splits_and_boundaries_justified(self):
        rng = random.Random(21)
        msgs = random_stream(rng, 400)
        voyages = voyage.extract_voyages(msgs)
        for v in voyages:
            for a, b in zip(v.messages, v.messages[1:]):
                assert not voyage._should_split(a, b)
        by_vessel = {}
        for v in voyages:
            by_vessel.setdefault(v.mmsi, []).append(v)
        for vs in by_vessel.values():
            vs.sort(key=lambda v: v.arrival)
            for a, b in zip(vs, vs[1:]):
                assert voyage._should_split(a.messages[-1], b.messages[0])


class TestPhases:
    def test_run_length_segmentation(self):
        statuses = [0, 0, 1, 1, 1, 5, 5, 0]
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=s, sog=(8.0 if s == 0 else 0.1))
                for i, s in enumerate(statuses)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert [p.kind for p in v.phases] == ["underway", "anchored", "moored", "underway"]

    def test_all_moored_single_phase(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=5) for i in range(20)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert len(v.phases) == 1
        assert v.phases[0].kind == "moored"
        assert v.phases[0].duration == dt.timedelta(minutes=57)

    def test_phases_tile_voyage(self):
        rng = random.Random(5)
        statuses = []
        for block in range(12):
            statuses += [rng.choice([0, 1, 5])] * rng.randrange(1, 9)
        msgs = [vmsg(T0 + dt.timedelta(minutes=2 * i), status=s) for i, s in enumerate(statuses)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert v.phases[0].start == v.arrival
        assert v.phases[-1].end == v.departure
        for a, b in zip(v.phases, v.phases[1:]):
            assert a.end == b.start

    def test_mean_sog_and_location(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i), status=0, sog=10.0 + i, lat=10.0 + i, lon=20.0)
                for i in range(3)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        phase = v.phases[0]
        assert phase.mean_sog == pytest.approx(11.0)
        assert phase.lat == pytest.approx(11.0)
        assert phase.n_messages == 3

    def test_empty_sog_gives_none(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=i), status=5) for i in range(3)]
        for m in msgs:
            m.report.sog = None
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
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
    return voyage.segment_phases(voyage.extract_voyages(msgs)[0])


def flagged(v, outages=()):
    """flag_gaps on v once validate_stream has set its messages' gap flags for these outages."""
    out = validate.validate_stream([m.report for m in v.messages], config=KINEMATIC, outages=list(outages))
    flags = {id(vm.report): vm.gap_flag for vm in out}
    for m in v.messages:
        m.gap_flag = flags[id(m.report)]
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
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert not flagged(v, [self.outage(27, 120)])
        assert v.messages[10].gap_flag

    def test_outage_during_transit_flags(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=0, sog=9.0,
                     lat=10.0 + offset_m(300.0 * i)) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=0, sog=9.0,
                      lat=10.0 + offset_m(6000 + 300.0 * i)) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert flagged(v, [self.outage(27, 120)])

    def test_moved_while_stopped_flags(self):
        # statuses stopped on both sides but the hull shifted 500 m
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=1, sog=0.1) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=1, sog=0.1,
                      lat=10.0 + offset_m(500)) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert flagged(v, [self.outage(27, 120)])

    def test_vessel_scope_must_match(self):
        msgs = [vmsg(T0 + dt.timedelta(minutes=3 * i), status=0, sog=9.0) for i in range(10)]
        msgs += [vmsg(T0 + dt.timedelta(minutes=120 + 3 * i), status=0, sog=9.0) for i in range(10)]
        v = voyage.segment_phases(voyage.extract_voyages(msgs)[0])
        assert not flagged(v, [self.outage(27, 120, scope="vessel", subject=999999999)])
        assert flagged(v, [self.outage(27, 120, scope="vessel", subject=v.mmsi)])

    def test_vessel_reporting_through_window_not_flagged(self):
        # a window overlaps the voyage but the vessel kept talking
        v = make_voyage([0] * 30)
        assert not flagged(v, [self.outage(10, 50)])

    def test_gap_flag_on_the_first_message_is_not_the_voyages(self):
        # the silence before the first message lies before the voyage began
        v = make_voyage([0] * 5)
        v.messages[0].gap_flag = True
        assert not voyage.flag_gaps(v).gap_flagged
        v.messages[1].gap_flag = True
        assert voyage.flag_gaps(v).gap_flagged


def random_outages(rng, msgs, mmsis):
    """Global, vessel and area outages, some starting or ending on a report's timestamp."""
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
        scope = rng.choice(("global", "vessel", "area"))
        if scope == "global":
            outages.append(Outage("global", start, end))
        elif scope == "vessel":
            outages.append(Outage("vessel", start, end, subject=rng.choice(mmsis + [999999999])))
        else:
            m = rng.choice(msgs)
            cell = (math.floor(m.lat / CELL_DEG), math.floor(m.lon / CELL_DEG))
            outages.append(Outage("area", start, end, subject=f"{cell[0]},{cell[1]}", cell_deg=CELL_DEG))
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
        validated = validate.validate_stream(reports, config=KINEMATIC, outages=outages)
        for vm in validated:
            vm.corrected_navstat = rng.choice((0, 1, 5))
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
