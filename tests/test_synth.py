import dataclasses
import datetime as dt
import hashlib
import json

import pytest

import oracles
from conftest import columns, decode_all
from portcall import synth, validate, voyage
from portcall.codec import MessageDecoder

UTC = dt.timezone.utc


class TestPortLayout:
    def test_polygons_valid_and_disjoint_roles(self, port_layout):
        geometry = port_layout.geometry
        assert len(geometry.anchorages) == 1
        assert len(geometry.terminals) == 2
        for berth in port_layout.berths:
            assert geometry.terminal_at(berth[0], berth[1]) is not None
        (clat, clon), _, _ = port_layout.anchorage_box
        assert geometry.anchorage_at(clat, clon) is not None

    def test_waypoints_inside_area(self, port_layout):
        assert port_layout.area.contains(*port_layout.entry)
        assert port_layout.area.contains(*port_layout.exit)

    def test_geojson_roundtrip(self, port_layout, tmp_path):
        from portcall.geo import load_port_geometry

        path = tmp_path / "port.geojson"
        path.write_text(json.dumps(port_layout.geojson()))
        loaded = load_port_geometry(path)
        assert [p.name for p in loaded.terminals] == [p.name for p in port_layout.geometry.terminals]


class TestGenerate:
    def test_every_sentence_parses(self, mixed_scenario):
        """Each sentence, fed on its own without its TAG block, gives no error: its checksum and armor hold."""
        _, lines, _ = mixed_scenario
        for line in lines:
            tagless = line.split("\\", 2)[2]
            (outcome,) = MessageDecoder().feed(tagless, dt.datetime(2019, 9, 1, tzinfo=UTC))
            assert (outcome.error, outcome.detail) == (None, None), outcome

    def test_deterministic(self):
        scenario = synth.mixed_port_scenario(n_vessels=3, days=1, error_p=0.2, seed=99)
        a, truth_a = synth.generate(scenario)
        b, truth_b = synth.generate(scenario)
        assert a == b
        assert truth_a.phases == truth_b.phases
        assert truth_a.arrivals == truth_b.arrivals

    def test_clean_scenario_reports_truth(self, clean_scenario):
        _, lines, truth = clean_scenario
        positions, _, errors = decode_all(lines)
        assert not errors
        for msg in positions:
            want = truth.status_at(msg.mmsi, msg.timestamp)
            assert want is not None
            assert msg.navstat == want

    def test_error_injection_rate(self, mixed_scenario):
        scenario, lines, truth = mixed_scenario
        positions, _, _ = decode_all(lines)
        wrong = sum(1 for m in positions if m.navstat != truth.status_at(m.mmsi, m.timestamp))
        rate = wrong / len(positions)
        assert 0.25 < rate < 0.35  # nominal 0.30

    def test_phase_durations_cover_track(self, clean_scenario):
        _, lines, truth = clean_scenario
        positions, _, _ = decode_all(lines)
        by_vessel = {}
        for m in positions:
            cur = by_vessel.setdefault(m.mmsi, [m.timestamp, m.timestamp])
            cur[0] = min(cur[0], m.timestamp)
            cur[1] = max(cur[1], m.timestamp)
        for mmsi, (first, last) in by_vessel.items():
            phases = [p for p in truth.phases if p.mmsi == mmsi]
            total = sum((p.duration for p in phases), dt.timedelta(0))
            span = sum((p.end - p.start for p in phases), dt.timedelta(0))
            assert total == span
            assert phases[0].start <= first
            assert last <= phases[-1].end

    def test_positions_inside_expected_polygons(self, clean_scenario, port_layout):
        _, lines, truth = clean_scenario
        positions, _, _ = decode_all(lines)
        for m in positions:
            status = truth.status_at(m.mmsi, m.timestamp)
            if status == 1:
                assert port_layout.geometry.anchorage_at(m.lat, m.lon) is not None
            elif status == 5:
                assert port_layout.geometry.terminal_at(m.lat, m.lon) is not None

    def test_static_reports_cover_all_vessels(self, mixed_scenario):
        scenario, lines, _ = mixed_scenario
        _, statics, _ = decode_all(lines)
        assert {s.mmsi for s in statics} == {v.mmsi for v in scenario.vessels}
        by_name = {s.mmsi: s.vessel_name for s in statics}
        for vessel in scenario.vessels:
            assert by_name[vessel.mmsi] == vessel.name

    def test_anchored_vessels_rotate_and_moored_hold(self, clean_scenario):
        _, lines, truth = clean_scenario
        positions, _, _ = decode_all(lines)
        for p in truth.phases:
            if p.duration < dt.timedelta(hours=3):
                continue
            headings = [m.heading for m in positions
                        if m.mmsi == p.mmsi and p.start <= m.timestamp < p.end and m.heading is not None]
            if len(headings) < 10:
                continue
            if p.kind == "moored":
                assert oracles.resultant_length(headings) > 0.99
            elif p.kind == "anchored":
                assert oracles.resultant_length(headings) < 0.98


class TestEncoding:
    @pytest.mark.parametrize("chunk", [4096, 97])
    def test_lines_are_the_oracle_encoders(self, monkeypatch, chunk):
        """Every line generate writes is what the independent encoder makes of the fields each track segment hands
        the emitter, in (time, hand-over) order, wherever the emitter's chunks end."""
        monkeypatch.setattr(synth, "_CHUNK", chunk)
        start = dt.datetime(2019, 9, 1, tzinfo=UTC)
        outages = (synth.OutagePlan("global", start + dt.timedelta(hours=20), start + dt.timedelta(hours=21)),
                   synth.OutagePlan("vessel", start + dt.timedelta(hours=6), start + dt.timedelta(hours=30),
                                    mmsi=219000002))
        scenario = synth.mixed_port_scenario(n_vessels=5, days=3, error_p=0.3, seed=11, outages=outages)
        made = []  # (epoch, line) of each line, in the order the emitter was handed them
        dropped = []
        segment = synth._Emitter.segment

        def kept(ts, mmsi) -> bool:
            if any(o.start <= ts < o.end and (o.scope == "global" or o.mmsi == mmsi) for o in outages):
                dropped.append(ts)
                return False
            return True

        def record_segment(emitter, vessel, epochs, statics, status, sog, lat, lon, cog, heading):
            rows = zip(epochs.tolist(), status.tolist(), sog.tolist(), lat.tolist(), lon.tolist(), cog.tolist(),
                       heading.tolist())
            for row, (epoch, reported, sog_, lat_, lon_, cog_, heading_) in enumerate(rows):
                ts = dt.datetime.fromtimestamp(epoch, UTC)
                if not kept(ts, vessel.mmsi):
                    continue
                if row in statics:
                    made.extend((epoch, oracles.tag_block(sentence, epoch))
                                for sentence in oracles.static_sentences(
                                    message_id=vessel.mmsi % 10, first_chars=36, mmsi=vessel.mmsi, name=vessel.name,
                                    ship_type=vessel.ship_type, to_bow=60, to_stern=60, to_port=10, to_starboard=10,
                                    epfd=1))
                sentence = oracles.position_sentence(
                    mmsi=vessel.mmsi, navstat=reported, rot_raw=0, sog_raw=max(0, min(1022, round(sog_ * 10))),
                    lon_raw=round(lon_ * 600000), lat_raw=round(lat_ * 600000), cog_raw=round(cog_ * 10) % 3600,
                    heading_raw=round(heading_) % 360, second=ts.second)
                made.append((epoch, oracles.tag_block(sentence, epoch)))
            segment(emitter, vessel, epochs, statics, status, sog, lat, lon, cog, heading)

        monkeypatch.setattr(synth._Emitter, "segment", record_segment)
        lines, _ = synth.generate(scenario)
        assert sum(line.count(",1,1,") for line in lines) > 4096  # positions enough to cross a default chunk
        assert len(dropped) > 100
        assert lines == [line for _, line in sorted(made, key=lambda m: m[0])]  # a stable sort keeps emission order


def _pinned_scenarios() -> dict[str, synth.Scenario]:
    """Scenarios whose streams the bench fingerprints do not cover: a fast ferry, every status wrong, given anchor
    rotation rates (0 among them) under a global and a vessel outage with a fractional-second bound, and
    non-default cadences with a static interval that carries statics across segment boundaries."""
    start = dt.datetime(2019, 9, 1, tzinfo=UTC)
    rated = synth.mixed_port_scenario(n_vessels=5, days=3, error_p=0.3, seed=29)
    rates = (37.5, 0.0, -12.0)
    arrive = rated.vessels[1].visits[0].arrive  # a report falls on each bound of the vessel outage
    vessels = tuple(dataclasses.replace(v, visits=tuple(dataclasses.replace(visit, anchor_rate_deg_h=rates[(i + j) % 3])
                                                         for j, visit in enumerate(v.visits)))
                    for i, v in enumerate(rated.vessels))
    outages = (synth.OutagePlan("global", start + dt.timedelta(hours=10, microseconds=500_000),
                                start + dt.timedelta(hours=10, minutes=40)),
               synth.OutagePlan("vessel", arrive + dt.timedelta(seconds=300), arrive + dt.timedelta(seconds=600),
                                mmsi=rated.vessels[1].mmsi))
    base = synth.mixed_port_scenario(n_vessels=3, days=2, error_p=0.2, seed=37)
    return {
        "ferry": synth.ferry_scenario(),
        "every_status_wrong": synth.mixed_port_scenario(n_vessels=3, days=2, error_p=1.0, seed=17),
        "anchor_rates_and_outages": dataclasses.replace(rated, vessels=vessels, outages=outages),
        "cadences_and_statics": dataclasses.replace(base, cadence_underway_s=7, cadence_stopped_s=240,
                                                    static_interval_s=1111),
    }


# sha256 of generate's lines (each ended by a newline) and of TruthLog.write_jsonl, recorded from the per-report
# generator that the per-segment columns replaced: the columns must make the same bytes
STREAM_PINS = {
    "ferry": ("a2552c55b6d26ecf9687dac8132bcf32656fc2f4e00103e6efc6cffe046a859a",
              "fd8c408f04e1859bea45b69389a181d8ed9797742aebed16aa3ca64d6ec05fc1"),
    "every_status_wrong": ("1bbbae270d957f7b2cf65492b2cdd3ab336df7ef65742b0f08fc2d43fe7af722",
                           "f4b9df44858eb0c466e432d18cb9e114c814b3ce87dcea7996de290d00c0e7bc"),
    "anchor_rates_and_outages": ("66159da7f6a0c07b8c7b3cd03331839928b135f352124c063dd9c097f8d1b127",
                                 "a0488f08c553cd2e488eb75ca1d74cf0f30b9a25c095f056d17cbc2fe2971b9b"),
    "cadences_and_statics": ("162a69ffab506b0bbeccc891c5f341e27a1ffe6aca5cc5c22ea3f6f370a543ac",
                             "d2d136c804341382ae44a411c007d2705a02be1527ad786c9245a56610341f23"),
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_streams_are_pinned(tmp_path, name):
    lines, truth = synth.generate(_pinned_scenarios()[name])
    truth.write_jsonl(tmp_path / "truth.jsonl")
    assert (hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest(),
            hashlib.sha256((tmp_path / "truth.jsonl").read_bytes()).hexdigest()) == STREAM_PINS[name]


class TestOutageInjection:
    def test_global_outage_drops_messages(self):
        base = synth.mixed_port_scenario(n_vessels=4, days=1, error_p=0.0, seed=31)
        start = dt.datetime(2019, 9, 1, 6, 0, tzinfo=UTC)
        end = start + dt.timedelta(hours=2)
        scenario = dataclasses.replace(base, outages=(synth.OutagePlan("global", start, end),))
        lines, truth = synth.generate(scenario)
        positions, _, _ = decode_all(lines)
        assert not [m for m in positions if start <= m.timestamp < end]
        found = validate.detect_outages(columns(positions))
        assert any(o.scope == "global" and o.start < end and o.end > start for o in found)

    def test_vessel_outage_detected(self):
        base = synth.mixed_port_scenario(n_vessels=4, days=1, error_p=0.0, seed=31)
        target = base.vessels[0].mmsi
        start = dt.datetime(2019, 9, 1, 9, 0, tzinfo=UTC)
        end = start + dt.timedelta(hours=3)
        scenario = dataclasses.replace(base, outages=(synth.OutagePlan("vessel", start, end, mmsi=target),))
        lines, truth = synth.generate(scenario)
        positions, _, _ = decode_all(lines)
        assert not [m for m in positions if m.mmsi == target and start <= m.timestamp < end]
        found = validate.detect_outages(columns(positions))
        assert any(o.scope == "vessel" and o.subject == target for o in found)

    @pytest.mark.parametrize("n_vessels,days,seed", [(3, 2, 1), (4, 2, 5), (8, 3, 3)])
    def test_clean_stream_has_no_outages_or_gap_flags(self, n_vessels, days, seed):
        """Silences between visits are the vessels' absence; with none injected there is no outage."""
        scenario = synth.mixed_port_scenario(n_vessels=n_vessels, days=days, error_p=0.3, seed=seed)
        positions, _, _ = decode_all(synth.generate(scenario)[0])
        assert validate.detect_outages(columns(positions)) == []
        validated = validate.validate_stream(columns(positions), config=validate.ValidationConfig(method="kinematic"))
        assert not any(vm.gap_flag for vm in validated)

    def test_vessel_outage_on_the_inbound_leg_flags_its_voyage(self):
        """The vessel goes silent underway and reappears stopped elsewhere, without leaving the port."""
        base = synth.mixed_port_scenario(n_vessels=4, days=1, error_p=0.3, seed=31)
        target = base.vessels[0]
        start = target.visits[0].arrive + dt.timedelta(minutes=5)
        end = start + dt.timedelta(minutes=75)
        scenario = dataclasses.replace(base, outages=(synth.OutagePlan("vessel", start, end, mmsi=target.mmsi),))
        lines, truth = synth.generate(scenario)
        assert truth.status_at(target.mmsi, start) == 0
        positions, _, _ = decode_all(lines)
        found = validate.detect_outages(columns(positions))
        assert [(o.scope, o.subject) for o in found] == [("vessel", target.mmsi)]
        assert found[0].start <= start and end <= found[0].end
        port = synth.build_port(scenario.center).geometry
        validated = validate.validate_stream(columns(positions), port)
        voyages = [voyage.flag_gaps(v) for v in voyage.extract_voyages(validated)]
        assert [(v.mmsi, v.arrival < start < v.departure) for v in voyages if v.gap_flagged] == [(target.mmsi, True)]


class TestScenarioSerialization:
    def test_json_roundtrip(self, tmp_path):
        scenario = synth.mixed_port_scenario(n_vessels=3, days=1, error_p=0.1, seed=5)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(oracles.scenario_to_json_dict(scenario)))
        loaded = synth.Scenario.load(path)
        assert loaded == scenario
        assert synth.generate(loaded)[0] == synth.generate(scenario)[0]

    def test_invalid_error_rate(self):
        with pytest.raises(synth.InvalidScenario):
            synth.Scenario(seed=1, vessels=(), error_p=1.5)

    def test_overlapping_visits_rejected(self):
        t0 = dt.datetime(2019, 9, 1, tzinfo=UTC)
        vessel = synth.VesselPlan(
            mmsi=1, name="X", ship_type=70,
            visits=(
                synth.VisitPlan(arrive=t0, anchor_h=2.0, moor_h=10.0),
                synth.VisitPlan(arrive=t0 + dt.timedelta(hours=4), anchor_h=0.0, moor_h=5.0),
            ),
        )
        with pytest.raises(synth.InvalidScenario):
            synth.Scenario(seed=1, vessels=(vessel,))

    def test_naive_arrival_rejected(self):
        """A naive time would be read as local time by the stream and as a calendar day by the arrival counts."""
        vessel = synth.VesselPlan(mmsi=1, name="X", ship_type=70,
                                  visits=(synth.VisitPlan(arrive=dt.datetime(2019, 9, 1, 2), anchor_h=0.0, moor_h=5.0),))
        with pytest.raises(synth.InvalidScenario, match="no time zone"):
            synth.Scenario(seed=1, vessels=(vessel,))
        with pytest.raises(synth.InvalidScenario, match="no time zone"):
            synth.mixed_port_scenario(start=dt.datetime(2019, 9, 1))

    @pytest.mark.parametrize("naive", ["start", "end"])
    def test_naive_outage_bound_rejected(self, naive):
        bounds = {"start": dt.datetime(2019, 9, 1, tzinfo=UTC), "end": dt.datetime(2019, 9, 1, 1, tzinfo=UTC)}
        bounds[naive] = bounds[naive].replace(tzinfo=None)
        with pytest.raises(synth.InvalidScenario, match="no time zone"):
            synth.Scenario(seed=1, vessels=(), outages=(synth.OutagePlan("global", **bounds),))

    def test_arrival_counted_on_its_utc_day(self):
        """An arrival at 02:00 in UTC+05:30 is 20:30 the day before in UTC, in the stream and in the truth."""
        arrive = dt.datetime(2019, 9, 1, 2, tzinfo=dt.timezone(dt.timedelta(hours=5, minutes=30)))
        vessel = synth.VesselPlan(mmsi=219000001, name="X", ship_type=70,
                                  visits=(synth.VisitPlan(arrive=arrive, anchor_h=0.0, moor_h=2.0),))
        lines, truth = synth.generate(synth.Scenario(seed=1, vessels=(vessel,)))
        positions, _, _ = decode_all(lines)
        assert positions[0].timestamp == arrive == dt.datetime(2019, 8, 31, 20, 30, tzinfo=UTC)
        assert truth.phases[0].start == arrive
        assert truth.arrivals == {dt.date(2019, 8, 31): {truth.vessels[219000001]["category"]: 1}}

    @pytest.mark.parametrize("field,value", [("cadence_underway_s", 10.5), ("cadence_stopped_s", float("inf")),
                                             ("static_interval_s", 0.25)])
    def test_fractional_cadences_rejected(self, field, value):
        with pytest.raises(synth.InvalidScenario, match="whole seconds"):
            synth.Scenario(seed=1, vessels=(), **{field: value})

    def test_vessel_outage_requires_mmsi(self):
        t0 = dt.datetime(2019, 9, 1, tzinfo=UTC)
        with pytest.raises(synth.InvalidScenario):
            synth.Scenario(seed=1, vessels=(), outages=(
                synth.OutagePlan("vessel", t0, t0 + dt.timedelta(hours=1)),))


class TestTruthLog:
    def test_jsonl_roundtrip(self, tmp_path, mixed_scenario):
        _, _, truth = mixed_scenario
        path = tmp_path / "truth.jsonl"
        truth.write_jsonl(path)
        loaded = synth.TruthLog.read_jsonl(path)
        assert loaded.vessels == truth.vessels
        assert loaded.phases == truth.phases
        assert loaded.arrivals == truth.arrivals

    def test_arrival_counts_match_phase_log(self, mixed_scenario):
        scenario, _, truth = mixed_scenario
        n_visits = sum(len(v.visits) for v in scenario.vessels)
        assert sum(sum(row.values()) for row in truth.arrivals.values()) == n_visits


class TestFerryScenario:
    def test_daily_pattern_with_skip(self):
        scenario = synth.ferry_scenario(days=8, skip_departure_day=3, seed=3)
        visits = scenario.vessels[0].visits
        assert len(visits) == 7  # one arrival day lost to the held-over stay
        moors = sorted(v.moor_h for v in visits)
        assert moors[-1] == pytest.approx(moors[-2] + 24.0, abs=0.5)
