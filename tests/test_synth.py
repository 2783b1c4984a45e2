import dataclasses
import datetime as dt
import json
import random

import pytest

import oracles
from conftest import columns, decode_all
from portcall import synth, validate, voyage
from portcall.codec import parse_sentence

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
        _, lines, _ = mixed_scenario
        for line in lines:
            tagless = line.split("\\", 2)[2]
            parse_sentence(tagless)  # raises on bad checksum or armor

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
        """Every line generate writes is what the independent encoder makes of the fields the emitter was handed,
        in (time, emission) order, wherever the emitter's chunks end."""
        monkeypatch.setattr(synth, "_CHUNK", chunk)
        start = dt.datetime(2019, 9, 1, tzinfo=UTC)
        outages = (synth.OutagePlan("global", start + dt.timedelta(hours=20), start + dt.timedelta(hours=21)),
                   synth.OutagePlan("vessel", start + dt.timedelta(hours=6), start + dt.timedelta(hours=30),
                                    mmsi=219000002))
        scenario = synth.mixed_port_scenario(n_vessels=5, days=3, error_p=0.3, seed=11, outages=outages)
        made = []  # (epoch, line) of each line, in the order the emitter was handed them
        dropped = []
        position, static = synth._Emitter.position, synth._Emitter.static

        def kept(ts, mmsi) -> bool:
            if any(o.start <= ts < o.end and (o.scope == "global" or o.mmsi == mmsi) for o in outages):
                dropped.append(ts)
                return False
            return True

        def record_position(emitter, ts, vessel, true_status, sog, lat, lon, cog, heading):
            rng = random.Random()
            rng.setstate(emitter.rng.getstate())  # the draws the emitter is about to make
            reported = true_status
            if rng.random() < scenario.error_p:
                reported = rng.choice([s for s in (0, 1, 5) if s != true_status])
            if kept(ts, vessel.mmsi):
                sentence = oracles.position_sentence(
                    mmsi=vessel.mmsi, navstat=reported, rot_raw=0, sog_raw=max(0, min(1022, round(sog * 10))),
                    lon_raw=round(lon * 600000), lat_raw=round(lat * 600000), cog_raw=round(cog * 10) % 3600,
                    heading_raw=round(heading) % 360, second=ts.second)
                made.append((int(ts.timestamp()), oracles.tag_block(sentence, int(ts.timestamp()))))
            position(emitter, ts, vessel, true_status, sog, lat, lon, cog, heading)

        def record_static(emitter, ts, vessel):
            if kept(ts, vessel.mmsi):
                made.extend((int(ts.timestamp()), oracles.tag_block(sentence, int(ts.timestamp())))
                            for sentence in oracles.static_sentences(
                                message_id=vessel.mmsi % 10, first_chars=36, mmsi=vessel.mmsi, name=vessel.name,
                                ship_type=vessel.ship_type, to_bow=60, to_stern=60, to_port=10, to_starboard=10,
                                epfd=1))
            static(emitter, ts, vessel)

        monkeypatch.setattr(synth._Emitter, "position", record_position)
        monkeypatch.setattr(synth._Emitter, "static", record_static)
        lines, _ = synth.generate(scenario)
        assert sum(line.count(",1,1,") for line in lines) > 4096  # positions enough to cross a default chunk
        assert len(dropped) > 100
        assert lines == [line for _, line in sorted(made, key=lambda m: m[0])]  # a stable sort keeps emission order


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
        path.write_text(json.dumps(scenario.to_json_dict()))
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
