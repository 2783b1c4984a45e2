import datetime as dt
import random

import pytest

from portcall import metrics, voyage
from portcall.geo import PortGeometry, Polygon

UTC = dt.timezone.utc
T0 = dt.datetime(2019, 9, 12, 0, 0, tzinfo=UTC)

TERMINAL_A = Polygon("pier-a", "terminal", ((9.999, 19.999), (9.999, 20.021), (10.011, 20.021), (10.011, 19.999)))
TERMINAL_B = Polygon("pier-b", "terminal", ((10.049, 19.999), (10.049, 20.021), (10.061, 20.021), (10.061, 19.999)))
PORT = PortGeometry(anchorages=(), terminals=(TERMINAL_A, TERMINAL_B))


def phase(kind, start_min, end_min, lat=10.005, lon=20.01, mean_sog=None, n=None):
    n_messages = n if n is not None else max(1, (end_min - start_min) // 3)
    return voyage.Phase(
        kind=kind,
        start=T0 + dt.timedelta(minutes=start_min),
        end=T0 + dt.timedelta(minutes=end_min),
        mean_sog=mean_sog,
        lat=lat,
        lon=lon,
        n_messages=n_messages,
        n_sog=n_messages if mean_sog is not None else 0,
    )


def make_voyage(phases, mmsi=219000001):
    return voyage.Voyage(
        mmsi=mmsi,
        arrival=phases[0].start,
        departure=phases[-1].end,
        messages=[],
        phases=list(phases),
    )


class TestCategories:
    def test_mapping(self):
        assert metrics.vessel_category(70) == "cargo"
        assert metrics.vessel_category(79) == "cargo"
        assert metrics.vessel_category(80) == "tanker"
        assert metrics.vessel_category(89) == "tanker"
        assert metrics.vessel_category(40) == "passenger"
        assert metrics.vessel_category(49) == "passenger"
        assert metrics.vessel_category(60) == "passenger"
        assert metrics.vessel_category(69) == "passenger"
        assert metrics.vessel_category(30) == "other"
        assert metrics.vessel_category(None) == "other"

    def test_total_over_all_codes(self):
        for code in range(100):
            assert metrics.vessel_category(code) in metrics.CATEGORIES


class TestTurnaround:
    def test_moored_interval(self):
        # 14:28 to 04:25 next day gives 13 h 57 m
        v = make_voyage([
            phase("underway", 14 * 60, 14 * 60 + 28),
            phase("moored", 14 * 60 + 28, 28 * 60 + 25),
            phase("underway", 28 * 60 + 25, 28 * 60 + 50),
        ])
        rec = metrics.turnaround(v)
        assert rec.turnaround == dt.timedelta(hours=13, minutes=57)
        assert rec.arrival == T0 + dt.timedelta(hours=14, minutes=28)

    def test_no_moored_phase(self):
        v = make_voyage([phase("underway", 0, 60), phase("anchored", 60, 120)])
        assert metrics.turnaround(v) is None

    def test_zero_duration_mooring(self):
        v = make_voyage([phase("moored", 10, 10, n=1)])
        assert metrics.turnaround(v).turnaround == dt.timedelta(0)

    def test_brief_interruption_merged(self):
        v = make_voyage([
            phase("moored", 0, 300),
            phase("underway", 300, 330),
            phase("moored", 330, 600),
        ])
        rec = metrics.turnaround(v)
        assert rec.turnaround == dt.timedelta(minutes=600)

    def test_long_interruption_not_merged(self):
        v = make_voyage([
            phase("moored", 0, 300),
            phase("underway", 300, 400),
            phase("moored", 400, 600),
        ])
        assert metrics.turnaround(v).turnaround == dt.timedelta(minutes=300)

    def test_different_terminal_not_merged(self):
        v = make_voyage([
            phase("moored", 0, 300, lat=10.005, lon=20.01),
            phase("underway", 300, 330),
            phase("moored", 330, 600, lat=10.055, lon=20.01),
        ])
        rec = metrics.turnaround(v, PORT)
        assert rec.terminal_name == "pier-a"
        assert rec.turnaround == dt.timedelta(minutes=300)

    def test_same_terminal_merged_with_port(self):
        v = make_voyage([
            phase("moored", 0, 300),
            phase("underway", 300, 330),
            phase("moored", 330, 600),
        ])
        rec = metrics.turnaround(v, PORT)
        assert rec.terminal_name == "pier-a"
        assert rec.turnaround == dt.timedelta(minutes=600)


class TestAnchorageWait:
    def test_wait_before_berth(self):
        v = make_voyage([
            phase("underway", 0, 30),
            phase("anchored", 30, 270),
            phase("underway", 270, 300),
            phase("moored", 300, 720),
        ])
        assert metrics.anchorage_wait(v) == dt.timedelta(hours=4)

    def test_direct_to_berth(self):
        v = make_voyage([phase("underway", 0, 30), phase("moored", 30, 300)])
        assert metrics.anchorage_wait(v) == dt.timedelta(0)

    def test_two_waits_summed(self):
        v = make_voyage([
            phase("anchored", 0, 120),
            phase("underway", 120, 150),
            phase("anchored", 150, 210),
            phase("underway", 210, 240),
            phase("moored", 240, 600),
        ])
        assert metrics.anchorage_wait(v) == dt.timedelta(hours=3)

    def test_anchorage_after_berth_not_counted(self):
        v = make_voyage([
            phase("moored", 0, 300),
            phase("anchored", 300, 420),
        ])
        assert metrics.anchorage_wait(v) == dt.timedelta(0)


class TestMovementStats:
    def test_durations_bounded_by_voyage(self):
        v = make_voyage([
            phase("underway", 0, 25),
            phase("anchored", 25, 250),
            phase("underway", 250, 280),
            phase("moored", 280, 700),
            phase("underway", 700, 730),
        ])
        total = v.departure - v.arrival
        moved = sum((p.duration for p in v.phases if p.kind == "underway"), dt.timedelta(0))
        parts = moved + metrics.anchorage_wait(v) + metrics.turnaround(v).turnaround
        assert parts == total  # full tiling, no anchorage after berth


class TestDailyArrivals:
    def test_empty(self):
        assert metrics.daily_arrivals([], {}) == {}

    def test_counts_by_category(self):
        voyages = [make_voyage([phase("moored", 0, 60)], mmsi=100 + i) for i in range(4)]
        cats = {100: "cargo", 101: "cargo", 102: "cargo", 103: "tanker"}
        table = metrics.daily_arrivals(voyages, cats)
        row = table[T0.date()]
        assert row == {"cargo": 3, "tanker": 1, "passenger": 0, "other": 0}

    def test_missing_static_is_other(self):
        table = metrics.daily_arrivals([make_voyage([phase("moored", 0, 60)])], {})
        assert table[T0.date()]["other"] == 1

    def test_category_sum_equals_total(self):
        rng = random.Random(2)
        voyages = []
        cats = {}
        for i in range(60):
            day = rng.randrange(5)
            voyages.append(make_voyage([phase("moored", day * 1440, day * 1440 + 60)], mmsi=i))
            cats[i] = rng.choice(metrics.CATEGORIES)
        table = metrics.daily_arrivals(voyages, cats)
        assert sum(sum(row.values()) for row in table.values()) == 60


class TestMae:
    def table(self, rows):
        return {
            T0.date() + dt.timedelta(days=i): dict(zip(("cargo", "tanker", "passenger"), counts))
            for i, counts in enumerate(rows)
        }

    def test_identical_tables_zero(self):
        t = self.table([(3, 1, 5), (2, 2, 4)])
        maes, macro = metrics.arrivals_mae(t, t)
        assert macro == 0.0
        assert set(maes.values()) == {0.0}

    def test_constant_offset(self):
        truth = self.table([(3, 1, 5), (2, 2, 4), (6, 0, 1)])
        pred = {
            d: {"cargo": row["cargo"] + 2, "tanker": row["tanker"], "passenger": row["passenger"]}
            for d, row in truth.items()
        }
        maes, macro = metrics.arrivals_mae(pred, truth)
        assert maes["cargo"] == pytest.approx(2.0)
        assert maes["tanker"] == 0.0
        assert macro == pytest.approx(2.0 / 3.0)

    def test_symmetry(self):
        a = self.table([(3, 1, 5), (2, 2, 4)])
        b = self.table([(1, 0, 9), (5, 2, 0)])
        assert metrics.arrivals_mae(a, b) == metrics.arrivals_mae(b, a)

    def test_random_pairs_match_hand_computation(self):
        rng = random.Random(17)
        for _ in range(20):
            days = rng.randrange(3, 15)
            cats = ("cargo", "tanker", "passenger")
            truth = {
                T0.date() + dt.timedelta(days=i): {c: rng.randrange(0, 20) for c in cats}
                for i in range(days)
            }
            pred = {
                T0.date() + dt.timedelta(days=i): {c: rng.randrange(0, 20) for c in cats}
                for i in range(days)
            }
            maes, macro = metrics.arrivals_mae(pred, truth)
            for c in cats:
                expect = sum(abs(pred[d][c] - truth[d][c]) for d in truth) / days
                assert maes[c] == pytest.approx(expect, abs=1e-12)
            assert macro == pytest.approx(sum(maes.values()) / len(maes), abs=1e-12)

    def test_excluded_dates(self):
        truth = self.table([(3, 1, 5), (2, 2, 4)])
        pred = self.table([(9, 9, 9), (2, 2, 4)])
        maes, macro = metrics.arrivals_mae(pred, truth, exclude_dates=[T0.date()])
        assert macro == 0.0

    def test_empty_overlap(self):
        a = self.table([(1, 1, 1)])
        b = {T0.date() + dt.timedelta(days=30): {"cargo": 1}}
        with pytest.raises(metrics.EmptyOverlap):
            metrics.arrivals_mae(a, b)


class TestScheduleAndWeekly:
    def make_calls(self, days, skip=None):
        voyages = []
        for d in range(days):
            if d == skip:
                continue
            arrive = d * 1440 + 14 * 60
            depart = (d + (2 if d + 1 == skip else 1)) * 1440 + 4 * 60 + 20
            voyages.append(make_voyage([
                phase("underway", arrive - 20, arrive),
                phase("moored", arrive, depart),
                phase("underway", depart, depart + 20),
            ]))
        return voyages

    def test_regular_schedule(self):
        records = metrics.schedule_table(self.make_calls(7))
        assert len(records) == 7
        gaps = [(b.arrival - a.arrival) for a, b in zip(records, records[1:])]
        assert all(g == dt.timedelta(days=1) for g in gaps)

    def test_skipped_departure_doubles_turnaround(self):
        records = metrics.schedule_table(self.make_calls(7, skip=4))
        turnarounds = [r.turnaround for r in records]
        modal = max(set(turnarounds), key=turnarounds.count)
        longest = max(turnarounds)
        assert longest == modal + dt.timedelta(days=1)

    def test_empty_input(self):
        assert metrics.schedule_table([]) == []

    def test_weekly_mean(self):
        voyages = [
            make_voyage([phase("moored", 0, 10 * 60)]),
            make_voyage([phase("moored", 24 * 60, 24 * 60 + 14 * 60)]),
        ]
        records = metrics.schedule_table(voyages)
        weekly = metrics.weekly_aggregate(records)
        assert list(weekly.values()) == [dt.timedelta(hours=12)]

    def test_weekly_single_record(self):
        records = metrics.schedule_table([make_voyage([phase("moored", 0, 90)])])
        weekly = metrics.weekly_aggregate(records)
        assert list(weekly.values()) == [dt.timedelta(minutes=90)]

    def test_weekly_matches_brute_force(self):
        rng = random.Random(8)
        voyages = []
        for i in range(80):
            start = rng.randrange(0, 300 * 24 * 60)
            voyages.append(make_voyage([phase("moored", start, start + rng.randrange(60, 2000))], mmsi=i))
        records = metrics.schedule_table(voyages)
        weekly = metrics.weekly_aggregate(records)
        groups = {}
        for r in records:
            y, w, _ = r.arrival.isocalendar()
            groups.setdefault(f"{y}-W{w:02d}", []).append(r.turnaround.total_seconds())
        assert list(weekly) == sorted(groups)
        for key, values in groups.items():
            assert weekly[key].total_seconds() == pytest.approx(sum(values) / len(values))


class TestGroundTruthLoader:
    def test_count_mode(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("date,category,arrivals\n2019-09-12,cargo,7\n2019-09-12,tanker,2\n2019-09-13,cargo,5\n")
        table = metrics.load_ground_truth(path)
        assert table[dt.date(2019, 9, 12)] == {"cargo": 7, "tanker": 2}
        assert table[dt.date(2019, 9, 13)] == {"cargo": 5}

    def test_event_mode(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(
            "timestamp,mmsi,category\n"
            "2019-09-12T06:01:00Z,1,passenger\n"
            "2019-09-12T09:30:00Z,2,passenger\n"
            "2019-09-13T10:00:00Z,3,cargo\n"
        )
        table = metrics.load_ground_truth(path)
        assert table[dt.date(2019, 9, 12)] == {"passenger": 2}
        assert table[dt.date(2019, 9, 13)] == {"cargo": 1}

    @pytest.mark.parametrize("text", ["date,category,arrivals\n2019-09-12,cargo,7\n2019-09-13,tanker,2\n",
                                      "timestamp,mmsi,category\n2019-09-12T06:01:00Z,1,passenger\n"],
                             ids=["count", "event"])
    def test_a_byte_order_mark_changes_nothing(self, tmp_path, text):
        """A file saved as spreadsheets save "CSV UTF-8", with a byte-order mark, reads as the same file without."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert metrics.load_ground_truth(marked) == metrics.load_ground_truth(plain) != {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("when,what\n2019-09-12,7\n")
        with pytest.raises(ValueError):
            metrics.load_ground_truth(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("date,category,arrivals\n2019-09-12,cargo,-1\n")
        with pytest.raises(ValueError):
            metrics.load_ground_truth(path)

    @pytest.mark.parametrize("text, line", [
        ("date,category,arrivals\n2019-09-12,cargo,7\n\n2019-09-12,cargo\n", "line 4 '2019-09-12,cargo' has 2 of"),
        ("timestamp,mmsi,category\n2019-09-12T06:01:00Z,1\n", "line 2 '2019-09-12T06:01:00Z,1' has 2 of"),
    ], ids=["count", "event"])
    def test_short_row_is_named(self, tmp_path, text, line):
        path = tmp_path / "gt.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=line):
            metrics.load_ground_truth(path)
