import datetime as dt
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import columns, decode_all
from portcall import jsonl, synth, validate
from portcall.codec import PositionReport, Positions
from portcall.geo import PortGeometry, Polygon, project_local
from portcall.knn import KnnIndex

UTC = dt.timezone.utc
T0 = dt.datetime(2019, 9, 1, tzinfo=UTC)

TERMINAL = Polygon("berth", "terminal", ((10.00, 20.00), (10.00, 20.02), (10.01, 20.02), (10.01, 20.00)))
ANCHORAGE = Polygon("roads", "anchorage", ((9.95, 20.00), (9.95, 20.04), (9.98, 20.04), (9.98, 20.00)))
PORT = PortGeometry(anchorages=(ANCHORAGE,), terminals=(TERMINAL,))

TERMINAL_MID = (10.005, 20.01)
ANCHORAGE_MID = (9.965, 20.02)


def report(ts=T0, mmsi=219000001, lat=10.005, lon=20.01, sog=0.0, heading=90.0, navstat=0, cog=None, rot=0):
    return PositionReport(mmsi=mmsi, timestamp=ts, lat=lat, lon=lon, sog=sog,
                          cog=cog, heading=heading, navstat=navstat, rot=rot)


def corrected(msgs, port=PORT, method="geofence"):
    """(corrected status, deciding vote) of each message through the stream validator."""
    out = validate.validate_stream(columns(msgs), port, validate.ValidationConfig(method=method))
    return [(vm.corrected_navstat, vm.method) for vm in out]


class TestIsStopped:
    """A report is stopped when its speed is strictly below stopped_threshold_kn (0.5 kn)."""

    def test_zero_speed(self):
        assert corrected([report(sog=0.0)]) == [(5, "geofence")]

    def test_moving(self):
        assert corrected([report(sog=12.3)]) == [(0, "geofence")]

    def test_threshold_is_strict(self):
        assert corrected([report(sog=0.5)]) == [(0, "geofence")]
        assert corrected([report(sog=0.499)]) == [(5, "geofence")]

    def test_unavailable(self):
        # no speed means no stopped/moving call: the reported status stands
        assert corrected([report(sog=None, navstat=1)]) == [(1, "reported")]


class TestGeofence:
    def test_stopped_at_terminal_is_moored(self):
        assert corrected([report(lat=TERMINAL_MID[0], lon=TERMINAL_MID[1], sog=0.1)]) == [(5, "geofence")]

    def test_stopped_in_anchorage_is_anchored(self):
        assert corrected([report(lat=ANCHORAGE_MID[0], lon=ANCHORAGE_MID[1], sog=0.1)]) == [(1, "geofence")]

    def test_moving_anywhere_is_underway(self):
        assert corrected([report(lat=TERMINAL_MID[0], lon=TERMINAL_MID[1], sog=10.0)]) == [(0, "geofence")]

    def test_stopped_outside_polygons_is_underway(self):
        assert corrected([report(lat=9.90, lon=20.1, sog=0.0)]) == [(0, "geofence")]

    def test_never_moored_outside_terminal(self):
        rng = random.Random(5)
        # one vessel each, so the debounce filter sees a single message
        points = [(9.9 + rng.random() * 0.2, 19.95 + rng.random() * 0.15) for _ in range(200)]
        msgs = [report(mmsi=i, lat=lat, lon=lon, sog=0.0) for i, (lat, lon) in enumerate(points)]
        for vm in validate.validate_stream(columns(msgs), PORT, validate.ValidationConfig(method="geofence")):
            lat, lon = vm.report.lat, vm.report.lon
            if vm.corrected_navstat == 5:
                assert TERMINAL.contains(lat, lon)
            if vm.corrected_navstat == 1:
                assert ANCHORAGE.contains(lat, lon)


def stopped_window(hours, heading_fn, cadence_s=180, sog=0.1, start=T0):
    msgs = []
    n = int(hours * 3600 // cadence_s) + 1
    for i in range(n):
        ts = start + dt.timedelta(seconds=i * cadence_s)
        msgs.append(report(ts=ts, sog=sog, heading=heading_fn(i * cadence_s / 3600.0)))
    return msgs


def kinematic(window):
    """(status, vote) the kinematic method gives the window's last report, with no port polygons."""
    return corrected(window, port=None, method="kinematic")[-1]


def heading_sums(headings):
    """(reports, reports with a heading, sum of sin, sum of cos) of a stopped run after the given headings, None
    where a report has none."""
    n_heading, sum_s, sum_c = validate._heading_sums(np.array([np.nan if h is None else h for h in headings]))
    return len(n_heading), int(n_heading[-1]), float(sum_s[-1]), float(sum_c[-1])


def rbar(headings):
    """The kinematic vote's mean resultant length of a stopped run after the given headings."""
    return float(validate._rbar(*(a[-1:] for a in validate._heading_sums(np.array(headings, dtype=float))))[0])


class TestEncodeHeading:
    """A stopped run adds each heading as its (sin, cos) point on the unit circle."""

    def test_cardinal_points(self):
        for heading, (s, c) in ((0.0, (0.0, 1.0)), (90.0, (1.0, 0.0)), (180.0, (0.0, -1.0))):
            _, _, sum_s, sum_c = heading_sums([heading])
            assert sum_s == pytest.approx(s, abs=1e-12)
            assert sum_c == pytest.approx(c, abs=1e-12)

    def test_bounds(self):
        for h in range(0, 360, 7):
            _, _, sum_s, sum_c = heading_sums([float(h)])
            assert -1.0 <= sum_s <= 1.0
            assert -1.0 <= sum_c <= 1.0

    def test_unavailable(self):
        # a missing heading extends the run but adds no point
        assert heading_sums([None]) == (1, 0, 0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_unit_norm(self, heading):
        _, _, sum_s, sum_c = heading_sums([heading])
        assert abs(sum_s**2 + sum_c**2 - 1.0) < 1e-9

    @given(st.integers(min_value=0, max_value=359))
    def test_periodic_integral(self, heading):
        # AIS headings are whole degrees, where h + 360 is exactly representable
        assert heading_sums([float(heading)]) == heading_sums([float(heading + 360)])

    @given(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    def test_periodic_float(self, heading):
        a, b = heading_sums([heading]), heading_sums([(heading + 360.0) % 360.0])
        assert a[2] == pytest.approx(b[2], abs=1e-12)
        assert a[3] == pytest.approx(b[3], abs=1e-12)


class TestResultantLength:
    """The stopped run's rbar against closed forms and the oracle."""

    def test_constant_heading_is_one(self):
        assert rbar([45.0] * 20) == pytest.approx(1.0)

    def test_uniform_circle_is_zero(self):
        headings = [i * 360.0 / 36 for i in range(36)]
        assert rbar(headings) == pytest.approx(0.0, abs=1e-12)

    def test_arc_matches_analytic(self):
        # dense uniform samples over an arc of width w have R ~ sinc(w/2)
        w = math.radians(120.0)
        headings = [math.degrees(-w / 2 + w * i / 2000) for i in range(2001)]
        expect = math.sin(w / 2) / (w / 2)
        assert rbar(headings) == pytest.approx(expect, abs=1e-3)
        assert rbar(headings) == pytest.approx(oracles.resultant_length(headings), abs=1e-12)


class TestKinematic:
    def test_constant_heading_is_moored(self):
        window = stopped_window(6.0, lambda h: 45.0)
        assert kinematic(window) == (5, "kinematic")

    def test_sweeping_heading_is_anchored(self):
        # full sweep 0..350 over six hours has a resultant length near zero
        window = stopped_window(6.0, lambda h: (h / 6.0) * 350.0)
        assert kinematic(window) == (1, "kinematic")

    def test_moving_is_underway(self):
        window = stopped_window(6.0, lambda h: 45.0)
        # two moving reports, so the debounce filter accepts the change
        window.append(report(ts=window[-1].timestamp + dt.timedelta(seconds=10), sog=8.0))
        window.append(report(ts=window[-1].timestamp + dt.timedelta(seconds=10), sog=8.0))
        assert kinematic(window)[0] == 0

    def test_short_window_insufficient(self):
        # under rotation_window_h of stopped samples there is no kinematic vote
        window = stopped_window(1.0, lambda h: 45.0)
        assert {vote for _, vote in corrected(window, port=None, method="kinematic")} == {"reported"}
        assert {vote for _, vote in corrected(window, method="kinematic")} == {"geofence"}

    def test_missing_headings(self):
        window = stopped_window(6.0, lambda h: 45.0)
        for i, m in enumerate(window):
            if i % 3:
                m.heading = None  # only a third of samples carry a heading
        assert {vote for _, vote in corrected(window, port=None, method="kinematic")} == {"reported"}

    def test_rotation_offset_invariance(self):
        # adding a constant offset to every heading cannot change the call
        for rate in (20.0, 58.0):
            base = stopped_window(4.0, lambda h, r=rate: (r * h) % 360.0)
            out_base = kinematic(base)
            for offset in (37.0, 180.0, 301.0):
                shifted = stopped_window(4.0, lambda h, r=rate, o=offset: (r * h + o) % 360.0)
                assert kinematic(shifted) == out_base

    def test_threshold_matches_resultant_length(self):
        # window spread just under/over the 0.98 resultant-length threshold
        w_tight = stopped_window(3.5, lambda h: (h * 8.0) % 360.0)   # 28 deg arc -> R > 0.98
        w_loose = stopped_window(3.5, lambda h: (h * 20.0) % 360.0)  # 70 deg arc -> R < 0.98
        assert oracles.resultant_length(m.heading for m in w_tight) > 0.98
        assert oracles.resultant_length(m.heading for m in w_loose) < 0.98
        assert kinematic(w_tight) == (5, "kinematic")
        assert kinematic(w_loose) == (1, "kinematic")


def two_cluster_reports(n_per=500, seed=1):
    """Anchorage cluster labelled 1 around (9.965, 20.02), terminal cluster labelled 5."""
    rng = random.Random(seed)
    reports = []
    for _ in range(n_per):
        reports.append(report(lat=ANCHORAGE_MID[0] + rng.uniform(-0.01, 0.01),
                              lon=ANCHORAGE_MID[1] + rng.uniform(-0.01, 0.01),
                              sog=0.1, navstat=1))
        reports.append(report(lat=TERMINAL_MID[0] + rng.uniform(-0.003, 0.003),
                              lon=TERMINAL_MID[1] + rng.uniform(-0.003, 0.003),
                              sog=0.0, navstat=5))
    return reports


def knn_vote(model, q):
    """The stream validator's knn vote for a stopped report."""
    return int(validate.knn_votes(model, np.array([q.lat]), np.array([q.lon]))[0])


def oracle_vote(xy, marked, k, qx, qy):
    """Whether at least half of the exhaustive scan's k nearest points are marked."""
    idx = oracles.brute_neighbors(xy, k, qx, qy)
    return 2 * sum(1 for i in idx if marked[i]) >= len(idx)


def majority(index, k, qx, qy, r=None):
    """The vote of each query from the batched search."""
    return index.majority(np.array(qx, dtype=float), np.array(qy, dtype=float), k, r).tolist()


class TestKnn:
    def test_unanimous_labels(self):
        reports = [report(lat=10.0 + i * 1e-5, lon=20.0, sog=0.1, navstat=5) for i in range(400)]
        model = validate.fit_knn(columns(reports), k=300)
        assert knn_vote(model, report(lat=10.001, lon=20.0, sog=0.1)) == 5

    def test_too_few_points(self):
        reports = [report(sog=0.1, navstat=1)] * 10
        with pytest.raises(validate.TooFewPoints):
            validate.fit_knn(columns(reports), k=300)

    def test_moving_training_points_excluded(self):
        moving = [report(sog=9.0, navstat=1)] * 500
        with pytest.raises(validate.TooFewPoints):
            validate.fit_knn(columns(moving), k=100)

    def test_wrong_status_training_points_excluded(self):
        odd = [report(sog=0.1, navstat=3)] * 500
        with pytest.raises(validate.TooFewPoints):
            validate.fit_knn(columns(odd), k=100)

    def test_two_clusters_k300(self):
        model = validate.fit_knn(columns(two_cluster_reports()), k=300)
        assert knn_vote(model, report(lat=ANCHORAGE_MID[0], lon=ANCHORAGE_MID[1], sog=0.2)) == 1
        assert knn_vote(model, report(lat=TERMINAL_MID[0], lon=TERMINAL_MID[1], sog=0.2)) == 5

    def test_moving_query_is_underway(self):
        # the model is fitted from the stream; moving reports never reach its vote
        training = two_cluster_reports(n_per=200)
        moving = [report(mmsi=2, sog=11.0, navstat=5)]
        cfg = validate.ValidationConfig(method="knn", knn_k=50)
        out = validate.validate_stream(columns(training + moving), None, cfg)
        assert [vm.corrected_navstat for vm in out if vm.report.mmsi == 2] == [0]

    def test_matches_brute_force_scan(self):
        rng = random.Random(42)
        for trial in range(20):
            n = rng.randrange(50, 800)
            k = rng.choice([1, 7, 50, min(300, n)])
            reports = []
            for _ in range(n):
                reports.append(report(lat=10.0 + rng.uniform(-0.05, 0.05),
                                      lon=20.0 + rng.uniform(-0.05, 0.05),
                                      sog=0.0, navstat=rng.choice([1, 5])))
            model = validate.fit_knn(columns(reports), k=k)
            xy = [tuple(p) for p in model.xy]
            labels = list(model.labels)
            lat = [10.0 + rng.uniform(-0.06, 0.06) for _ in range(10)]
            lon = [20.0 + rng.uniform(-0.06, 0.06) for _ in range(10)]
            expected = [oracles.brute_knn(xy, labels, k, *project_local(model.origin[0], model.origin[1], a, b))
                        for a, b in zip(lat, lon)]
            assert validate.knn_votes(model, np.array(lat), np.array(lon)).tolist() == expected

    def test_ties_match_brute_force_on_duplicate_points(self):
        # duplicated training points force exact distance ties at the kth slot
        reports = []
        for i in range(40):
            reports.append(report(lat=10.0, lon=20.0, sog=0.0, navstat=1 if i % 2 else 5))
            reports.append(report(lat=10.001, lon=20.0, sog=0.0, navstat=5))
        model = validate.fit_knn(columns(reports), k=30)
        xy = [tuple(p) for p in model.xy]
        labels = list(model.labels)
        for qlat in (10.0, 10.0004, 10.0006, 10.001):
            q = report(lat=qlat, lon=20.0, sog=0.1)
            qx, qy = project_local(model.origin[0], model.origin[1], q.lat, q.lon)
            assert knn_vote(model, q) == oracles.brute_knn(xy, labels, 30, qx, qy)

    def test_query_on_a_training_point_is_at_distance_zero(self):
        # training and query points share one projection, so the point itself is a 0 m neighbour
        reports = two_cluster_reports(n_per=100)
        model = validate.fit_knn(columns(reports), k=1)
        only_17 = np.arange(len(reports)) == 17
        q = reports[17]
        qx, qy = project_local(model.origin[0], model.origin[1], q.lat, q.lon)
        assert majority(KnnIndex(model.xy, only_17), 1, [qx], [qy]) == [True]

    def test_tie_at_the_box_edge_goes_to_the_lower_index(self):
        # point 1 fills a box of half-width 4.5, but point 0 just outside it ties
        # at the same distance and wins on index, so the box must widen
        model = validate.KnnModel(k=1, origin=(10.0, 20.0), xy=np.array([(5.0, 0.0), (3.0, 4.0), (50.0, 50.0)]),
                                  labels=np.array([1, 5, 5], dtype=np.uint8))
        for r in (None, 0.0, 4.5, 5.0, math.inf):
            assert majority(model.index, 1, [0.0], [0.0], r) == [True]

    def test_tie_shared_by_two_positions_goes_by_index(self):
        # one point at the query, then three positions 5 m away: (5, 0) holds
        # points 1 and 5, (0, 5) point 2, (3, 4) points 3 and 4
        xy = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (3.0, 4.0), (3.0, 4.0), (5.0, 0.0), (40.0, 0.0)]
        for marked in ([False, True, False, True, True, False, True], [True, False, True, False, False, True, False]):
            index = KnnIndex(np.array(xy), np.array(marked))
            for k in range(1, len(xy)):
                for r in (None, 0.0, 5.0):
                    assert majority(index, k, [0.0], [0.0], r) == [oracle_vote(xy, marked, k, 0.0, 0.0)]

    def test_a_tie_at_the_kth_slot_is_ranked_by_index(self):
        # k = 2: a point at the query, then two points tied at 5 m, on one position or two, and one 40 m off. The
        # points nearer than any distance that holds 2 number 3 with 1 marked, which leaves the vote open: only the
        # tie, which goes to the lower index, settles it
        for tied in ([(5.0, 0.0), (5.0, 0.0)], [(5.0, 0.0), (0.0, 5.0)], [(0.0, 5.0), (5.0, 0.0)]):
            xy = tied + [(0.0, 0.0), (40.0, 0.0)]
            for marked, vote in (([True, False, False, True], True), ([False, True, False, True], False)):
                index = KnnIndex(np.array(xy), np.array(marked))
                for r in (None, 0.0, 5.0, math.inf):
                    assert majority(index, 2, [0.0], [0.0], r) == [vote] == [oracle_vote(xy, marked, 2, 0.0, 0.0)]

    def test_many_queries_from_clusters_far_apart(self):
        # clusters 100 km apart, with queries from each in one call: every
        # query's box must hold its own cluster and no other. Two more clusters
        # of 60 sit 6 m apart, one all marked and one all unmarked, and a row of
        # queries crosses the gap, from the marked one to its middle or to the
        # far side: queries that settle together must not miss the points past
        # the gap that their own k nearest take in
        rng = random.Random(5)
        centres = [(0.0, 0.0), (1e5, 0.0), (0.0, -1e5), (2e5, 3e5)]
        xy = [(cx + rng.gauss(0, 50), cy + rng.gauss(0, 50)) for cx, cy in centres for _ in range(60)]
        marked = [rng.random() < 0.5 for _ in xy]
        queries = [(cx + rng.gauss(0, 80), cy + rng.gauss(0, 80)) for cx, cy in centres for _ in range(15)]
        queries += [(5e4, 0.0), (1e6, 1e6)]  # between two clusters, and far from all
        for cx, mark in ((-3e5, True), (-3e5 + 6.0, False)):
            xy += [(cx + rng.gauss(0, 0.5), 2e5 + rng.gauss(0, 0.5)) for _ in range(60)]
            marked += [mark] * 60
        index = KnnIndex(np.array(xy), np.array(marked))
        for end in (3.75, 10.0):
            row = [(-3e5 - 1.0 + 0.25 * i, 2e5) for i in range(int(4 * (end + 1.0)) + 1)]
            qx, qy = zip(*queries + row)
            for k in (1, 20, 59, 60, 61, 150):
                assert majority(index, k, qx, qy) == [oracle_vote(xy, marked, k, x, y) for x, y in queries + row]

    def test_nan_query_ends_with_no_neighbours(self):
        # stored JSONL may carry NaN coordinates; such a query has no
        # neighbours, and so votes anchored, instead of widening forever
        model = validate.fit_knn(columns(two_cluster_reports(n_per=50)), k=5)
        for r in (None, 1.0):
            assert majority(model.index, 5, [math.nan, 0.0], [0.0, math.nan], r) == [True, True]
        assert validate.knn_votes(model, np.array([math.nan]), np.array([20.0])).tolist() == [1]

    def test_stream_votes_match_the_oracle(self, monkeypatch):
        scenario = synth.mixed_port_scenario(n_vessels=3, days=1, error_p=0.3, seed=3)
        positions, _, _ = decode_all(synth.generate(scenario)[0])
        cfg = validate.ValidationConfig(method="knn", knn_k=30)
        fast = validate.validate_stream(columns(positions), None, cfg)
        assert any(vm.method == "knn" for vm in fast)

        class BruteIndex:
            def __init__(self, xy, marked):
                self.xy, self.marked = xy.tolist(), marked.tolist()

            def majority(self, x, y, k):
                return np.array([oracle_vote(self.xy, self.marked, k, qx, qy)
                                 for qx, qy in zip(x.tolist(), y.tolist())])

        monkeypatch.setattr(validate, "KnnIndex", BruteIndex)
        assert list(validate.validate_stream(columns(positions), None, cfg)) == list(fast)


def cadence_stream(mmsi, start, minutes, step_s=60, lat=10.005, lon=20.01, sog=0.0):
    return [report(mmsi=mmsi, ts=start + dt.timedelta(seconds=i * step_s), lat=lat, lon=lon, sog=sog)
            for i in range(int(minutes * 60 // step_s))]


class TestOutages:
    def test_continuous_stream_is_clean(self):
        msgs = cadence_stream(1, T0, minutes=120)
        assert validate.detect_outages(columns(msgs)) == []

    def test_global_hole(self):
        msgs = cadence_stream(1, T0, minutes=60)
        msgs += cadence_stream(1, T0 + dt.timedelta(hours=3), minutes=60)
        out = validate.detect_outages(columns(msgs))
        globals_ = [o for o in out if o.scope == "global"]
        assert len(globals_) == 1
        assert globals_[0].end - globals_[0].start == dt.timedelta(hours=2, minutes=1)

    def test_single_vessel_silence(self):
        # two vessels share a berth cell; one goes silent for three hours
        busy = cadence_stream(1, T0, minutes=360, step_s=120)
        quiet = cadence_stream(2, T0, minutes=60, step_s=120, lat=10.0051, lon=20.0101)
        quiet += cadence_stream(2, T0 + dt.timedelta(hours=4), minutes=60, step_s=120,
                                lat=10.0051, lon=20.0101)
        out = validate.detect_outages(columns(busy + quiet))
        vessel = [o for o in out if o.scope == "vessel"]
        assert len(vessel) == 1
        assert vessel[0].subject == 2
        assert not [o for o in out if o.scope == "global"]

    def test_departure_and_return_is_not_an_outage(self):
        # the only vessel leaves and is back 6 h later 5 km away, or a day later at its berth
        for away, lat in ((dt.timedelta(hours=6), 10.05), (dt.timedelta(hours=26), 10.005)):
            msgs = cadence_stream(1, T0, minutes=60)
            msgs += cadence_stream(1, T0 + away, minutes=60, lat=lat)
            assert validate.detect_outages(columns(msgs)) == []

    def test_sparse_vessel_not_an_outage(self):
        # 30-minute cadence never qualifies as dense reporting
        msgs = [report(mmsi=1, ts=T0 + dt.timedelta(minutes=30 * i)) for i in range(20)]
        msgs += cadence_stream(2, T0, minutes=600)
        assert [o for o in validate.detect_outages(columns(msgs)) if o.scope == "vessel"] == []


class TestHysteresis:
    def run(self, candidates, cadence_s=180, min_msgs=2, min_minutes=10.0):
        """The debounced statuses of one vessel's candidates, cadence_s apart."""
        times = np.arange(len(candidates), dtype=np.int64) * cadence_s * 10**6
        starts = np.arange(len(candidates)) == 0
        return validate._debounce(np.array(candidates), times, starts, min_msgs, int(min_minutes * 60 * 10**6)).tolist()

    def test_clean_stream_unchanged(self):
        seq = [0, 0, 0, 1, 1, 1, 5, 5, 5, 0, 0]
        assert self.run(seq) == seq

    def test_single_message_blip_suppressed(self):
        assert self.run([1, 1, 1, 5, 1, 1]) == [1, 1, 1, 1, 1, 1]

    def test_two_message_change_accepted_retroactively(self):
        assert self.run([1, 1, 5, 5, 5, 5]) == [1, 1, 5, 5, 5, 5]

    def test_alternating_noise_suppressed(self):
        assert self.run([1, 0, 1, 0, 1, 0, 1]) == [1, 1, 1, 1, 1, 1, 1]

    def test_time_rule_with_sparse_cadence(self):
        # a single confirming pair 12 minutes apart crosses the 10-minute rule
        out = self.run([1, 1, 5, 5], cadence_s=720, min_msgs=5)
        assert out == [1, 1, 5, 5]

    def test_trailing_blip_suppressed(self):
        assert self.run([1, 1, 1, 1, 5]) == [1, 1, 1, 1, 1]


class TestValidateStream:
    def test_moored_while_moving_corrected(self):
        msgs = [report(ts=T0 + dt.timedelta(seconds=10 * i), sog=14.0, navstat=5, lat=10.05 + i * 1e-4)
                for i in range(10)]
        out = validate.validate_stream(columns(msgs), PORT, validate.ValidationConfig(method="geofence"))
        assert all(vm.corrected_navstat == 0 for vm in out)
        assert not any(vm.agreed_with_reported for vm in out)

    def test_border_oscillation_is_one_interval(self):
        # anchored vessel drifting on the polygon border: single-message
        # excursions outside must not flap the corrected status
        inside = (9.9505, 20.02)
        outside = (9.9495, 20.02)
        msgs = []
        for i in range(40):
            spot = outside if i % 4 == 3 else inside
            msgs.append(report(ts=T0 + dt.timedelta(seconds=180 * i), lat=spot[0], lon=spot[1],
                               sog=0.1, navstat=1))
        out = validate.validate_stream(columns(msgs), PORT, validate.ValidationConfig(method="geofence"))
        assert {vm.corrected_navstat for vm in out} == {1}

    def test_all_correct_stream_reproduced(self, clean_scenario, port_layout):
        from conftest import decode_all
        _, lines, _ = clean_scenario
        positions, _, _ = decode_all(lines)
        out = validate.validate_stream(columns(positions), port_layout.geometry, validate.ValidationConfig())
        assert all(vm.corrected_navstat == vm.report.navstat for vm in out)
        assert all(vm.agreed_with_reported for vm in out)

    def test_deterministic_output(self, mixed_positions, port_layout):
        positions, _ = mixed_positions
        cfg = validate.ValidationConfig()
        a = validate.validate_stream(columns(positions), port_layout.geometry, cfg)
        b = validate.validate_stream(columns(reversed(positions)), port_layout.geometry, cfg)
        assert list(a) == list(b)

    def test_never_drops_messages(self, mixed_positions, port_layout):
        positions, _ = mixed_positions
        out = validate.validate_stream(columns(positions), port_layout.geometry, validate.ValidationConfig())
        assert len(out) == len(positions)
        assert all(vm.corrected_navstat in (0, 1, 5) for vm in out)
        assert all(vm.method in ("geofence", "kinematic", "knn", "reported") for vm in out)

    def test_speed_unavailable_falls_back_to_reported(self):
        msgs = [report(ts=T0 + dt.timedelta(seconds=180 * i), sog=None, navstat=1) for i in range(5)]
        out = validate.validate_stream(columns(msgs), PORT, validate.ValidationConfig(method="geofence"))
        assert all(vm.corrected_navstat == 1 for vm in out)
        assert all(vm.method == "reported" for vm in out)

    def test_unknown_reported_status_falls_back_to_underway(self):
        msgs = [report(ts=T0 + dt.timedelta(seconds=180 * i), sog=None, navstat=15) for i in range(5)]
        out = validate.validate_stream(columns(msgs), None, validate.ValidationConfig(method="kinematic"))
        assert all(vm.corrected_navstat == 0 for vm in out)

    def test_gap_flag_set_after_vessel_outage(self):
        msgs = cadence_stream(1, T0, minutes=60, step_s=120)
        msgs += cadence_stream(1, T0 + dt.timedelta(hours=4), minutes=60, step_s=120)
        msgs += cadence_stream(2, T0, minutes=360, step_s=120, lat=10.0, lon=20.0)
        out = validate.validate_stream(columns(msgs), PORT, validate.ValidationConfig(method="geofence"))
        flagged = [vm for vm in out if vm.gap_flag]
        assert len(flagged) == 1
        assert flagged[0].report.mmsi == 1
        assert flagged[0].report.timestamp == T0 + dt.timedelta(hours=4)

    @pytest.mark.parametrize("port", [PORT, None], ids=["port", "no_port"])
    @pytest.mark.parametrize("method", validate.METHODS)
    def test_empty_stream(self, method, port):
        out = validate.validate_stream(columns([]), port, validate.ValidationConfig(method=method))
        assert len(out) == 0

    @pytest.mark.parametrize("port", [PORT, None], ids=["port", "no_port"])
    @pytest.mark.parametrize("method", validate.METHODS)
    def test_stream_without_a_stopped_report(self, method, port):
        # one vessel always moving, another heard once without a speed
        msgs = [report(ts=T0 + dt.timedelta(seconds=180 * i), sog=8.0, navstat=5) for i in range(4)]
        msgs.append(report(mmsi=219000002, ts=T0, sog=None, navstat=1))
        out = validate.validate_stream(columns(msgs), port, validate.ValidationConfig(method=method))
        moving = "geofence" if port else "kinematic" if method == "ensemble" else method
        assert [(vm.report.mmsi, vm.corrected_navstat, vm.method) for vm in out] == (
            [(219000001, 0, moving), (219000002, 1, "reported")] + [(219000001, 0, moving)] * 3)


# Rows of (mmsi, minute, sog, heading, navstat): few vessels and times, so that vessels interleave and rows tie;
# speeds on both sides of the 0.5 kn threshold and missing; headings missing, negative, from 360 up and fractional.
_STREAM_ROWS = st.lists(st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=60).map(lambda m: 5 * m),
    st.sampled_from([None, 0.0, 0.3, 0.5, 4.0]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=359).map(float),
              st.floats(min_value=-720.0, max_value=1080.0, allow_nan=False)),
    st.sampled_from([0, 1, 5, 15]),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(
    _STREAM_ROWS,
    st.integers(min_value=-1, max_value=4),
    st.sampled_from([0.0, 10.0, 1e6]),
    st.sampled_from([0.0, 0.25, 3.0]),
    st.sampled_from([0.5, 0.98]),
)
def test_kinematic_stream_matches_the_per_report_walk(rows, min_msgs, min_minutes, window_h, rbar_threshold):
    # the column passes over runs give each report the status the per-report walk gives it
    cfg = validate.ValidationConfig(method="kinematic", rotation_window_h=window_h, rotation_rbar=rbar_threshold,
                                    hysteresis_msgs=min_msgs, hysteresis_min=min_minutes)
    rows = [(mmsi, minute * 60 * 10**6, sog, heading, navstat) for mmsi, minute, sog, heading, navstat in rows]
    n = len(rows)
    mmsi, time_us, sog, heading, navstat = ([r[i] for r in rows] for i in range(5))
    sog, heading = (np.array([np.nan if v is None else v for v in c], dtype=float) for c in (sog, heading))
    positions = Positions(np.array(time_us, dtype=np.int64), np.array(mmsi, dtype=np.int64),
                          np.array(navstat, dtype=np.int64), np.full(n, 10.0), np.full(n, 20.0), sog,
                          np.full(n, np.nan), heading, np.zeros(n))
    out = validate.validate_stream(positions, None, cfg, outages=[])
    expected = oracles.kinematic_statuses(rows, cfg.stopped_threshold_kn, int(window_h * 3600 * 10**6),
                                          rbar_threshold, min_msgs, int(min_minutes * 60 * 10**6))
    in_output_order = sorted(range(n), key=lambda i: (rows[i][1], rows[i][0]))
    assert list(zip(out.corrected_navstat.tolist(), out.method.tolist())) == [expected[i] for i in in_output_order]


class TestConfig:
    def test_defaults(self):
        cfg = validate.ValidationConfig()
        assert cfg.method == "ensemble"
        assert cfg.stopped_threshold_kn == 0.5
        assert cfg.knn_k == 300
        assert cfg.rotation_window_h == 3.0
        assert cfg.rotation_rbar == 0.98
        assert cfg.hysteresis_msgs == 2
        assert cfg.hysteresis_min == 10.0

    def test_from_file(self, tmp_path):
        path = tmp_path / "v.conf"
        path.write_text(
            "# validation settings\n"
            "method = kinematic\n"
            "stopped_threshold_kn = 0.4\n"
            "knn_k = 150\n"
            "rotation_window_h = 2.5\n"
            "rotation_rbar = 0.95\n"
            "hysteresis_msgs = 3\n"
            "hysteresis_min = 12\n"
        )
        cfg = validate.ValidationConfig.from_file(path)
        assert cfg.method == "kinematic"
        assert cfg.stopped_threshold_kn == 0.4
        assert cfg.knn_k == 150
        assert cfg.rotation_window_h == 2.5
        assert cfg.rotation_rbar == 0.95
        assert cfg.hysteresis_msgs == 3
        assert cfg.hysteresis_min == 12.0

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "v.conf"
        path.write_text("\ufeffmethod = kinematic\n", encoding="utf-8")
        assert validate.ValidationConfig.from_file(path).method == "kinematic"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "v.conf"
        path.write_text("stoped_threshold_kn = 0.4\n")
        with pytest.raises(ValueError):
            validate.ValidationConfig.from_file(path)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            validate.ValidationConfig(method="catboost")

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_k_below_one_rejected(self, tmp_path, k):
        # a model with no neighbours would fail to fit and leave every stopped status as reported
        with pytest.raises(ValueError, match="knn_k"):
            validate.ValidationConfig(knn_k=k)
        path = tmp_path / "v.conf"
        path.write_text(f"method = knn\nknn_k = {k}\n")
        with pytest.raises(ValueError, match="knn_k"):
            validate.ValidationConfig.from_file(path)


Points = list[tuple[float, float]]


def _training_layout(rng: random.Random, layout: str, n: int) -> tuple[Points, Points]:
    """n points and the centres that crowded queries gather around."""
    centres = [(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)) for _ in range(rng.randrange(1, 5))]
    if layout == "uniform":
        return [(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)) for _ in range(n)], centres
    # berths and anchor spots: a few centres, positions on a 0.5 m grid (so
    # squared distances between them are exact and tie often) and repeats
    pts: list[tuple[float, float]] = []
    for _ in range(n):
        if pts and rng.random() < 0.4:
            pts.append(rng.choice(pts))
        else:
            cx, cy = rng.choice(centres)
            pts.append((round(2 * (cx + rng.gauss(0, 3))) / 2, round(2 * (cy + rng.gauss(0, 3))) / 2))
    return pts, centres


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["uniform", "clustered"]),
    st.sampled_from(["near", "on_point", "far", "crowd"]),
)
def test_knn_oracle_equivalence_property(seed, layout, query):
    rng = random.Random(seed)
    n = rng.randrange(30, 400)
    k = rng.choice([1, 5, 30, n])
    xy, centres = _training_layout(rng, layout, n)
    labels = [rng.choice([1, 5]) for _ in range(n)]
    model = validate.KnnModel(k=k, origin=(10.0, 20.0), xy=np.array(xy), labels=np.array(labels, dtype=np.uint8))
    queries = []
    for _ in range(rng.randrange(20, 201) if query == "crowd" else rng.randrange(1, 6)):  # one search for all
        if query == "on_point":
            queries.append(rng.choice(xy))
        elif query == "far":  # well outside the extent: the box has to grow
            queries.append((rng.choice([-1, 1]) * rng.uniform(2e4, 1e6), rng.uniform(-1e6, 1e6)))
        elif query == "crowd":  # around the centres, at several scales, so that boxes hold many rows
            (cx, cy), spread = rng.choice(centres), rng.choice([1.0, 3.0, 10.0, 30.0, 100.0, 300.0])
            queries.append((round(2 * (cx + rng.gauss(0, spread))) / 2, round(2 * (cy + rng.gauss(0, spread))) / 2))
        else:
            queries.append((round(2 * rng.uniform(-3500, 3500)) / 2, round(2 * rng.uniform(-3500, 3500)) / 2))
    qx, qy = (list(c) for c in zip(*queries))
    ranked = [oracles.brute_neighbors(xy, n, x, y) for x, y in queries]  # every point, nearest first
    # the first half-width only changes the cost: every value gives the
    # neighbours of the exhaustive scan for every k, seen through the anchored
    # labels, a random marking, and a marking by the side of a line through a
    # centre, whose boxes settle together away from the line and straddle it
    # near it
    (ox, oy), angle = rng.choice(centres), rng.uniform(0.0, 2 * math.pi)
    side = [(px - ox) * math.cos(angle) + (py - oy) * math.sin(angle) > 0 for px, py in xy]
    for marked in ([label == 1 for label in labels], [rng.random() < 0.5 for _ in range(n)], side):
        index = KnnIndex(np.array(xy), np.array(marked))
        for kk in (1, 5, 30, n):
            expected = [2 * sum(marked[i] for i in idx[:kk]) >= kk for idx in ranked]
            for r in (None, 0.0, 1e-3, rng.uniform(0.0, 500.0), 1e7, math.inf):
                assert majority(index, kk, qx, qy, r) == expected

    q = report(sog=0.0, lat=10.0 + rng.uniform(-0.05, 0.05), lon=20.0 + rng.uniform(-0.05, 0.05))
    qx, qy = project_local(10.0, 20.0, q.lat, q.lon)
    assert knn_vote(model, q) == oracles.brute_knn(xy, labels, k, qx, qy)


outage_times = st.datetimes(min_value=dt.datetime(2, 1, 1), max_value=dt.datetime(9998, 12, 31),
                            timezones=st.sampled_from([dt.timezone.utc, dt.timezone(dt.timedelta(hours=5, minutes=30)),
                                                       dt.timezone(dt.timedelta(hours=-8))]))


@settings(max_examples=200, deadline=None)
@given(o=st.builds(validate.Outage, scope=st.just("global"), start=outage_times, end=outage_times)
       | st.builds(validate.Outage, scope=st.just("vessel"), start=outage_times, end=outage_times,
                   subject=st.integers(0, 10**9)))
def test_declared_outage_document_is_the_hand_written_one(o):
    doc = validate.Outages.to_dict(o)
    assert (doc, jsonl.dumps(doc)) == (oracles.outage_to_dict(o), jsonl.dumps(oracles.outage_to_dict(o)))
