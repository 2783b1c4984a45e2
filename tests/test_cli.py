"""End-to-end tests of the command line: `run` against the staged commands."""

import dataclasses
import datetime as dt
import hashlib
import itertools
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import oracles
from conftest import columns
from portcall import cli, codec, columnar, ingest, jsonl, synth, table, validate, voyage
from portcall.codec import MessageDecoder, PositionReport, from_epoch_us

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small tagged scenario with its port polygons, ground truth and an untagged copy."""
    scenario = synth.mixed_port_scenario(n_vessels=4, days=2, error_p=0.3, seed=5)
    lines, truth = synth.generate(scenario)
    d = tmp_path_factory.mktemp("inputs")
    files = {name: d / name for name in ("tagged.nmea", "untagged.nmea", "port.geojson", "truth.csv")}
    files["tagged.nmea"].write_text("".join(line + "\n" for line in lines))
    # a TAG block is `\...\` in front of the sentence
    files["untagged.nmea"].write_text("".join(line.rsplit("\\", 1)[-1] + "\n" for line in lines))
    files["port.geojson"].write_text(json.dumps(synth.build_port(scenario.center).geojson()))
    rows = ["date,category,arrivals"]
    for day in sorted(truth.arrivals):
        rows += [f"{day.isoformat()},{cat},{n}" for cat, n in sorted(truth.arrivals[day].items())]
    files["truth.csv"].write_text("\n".join(rows) + "\n")
    files["vessel"] = scenario.vessels[0].mmsi
    return files


def _snapshot(outdir: pathlib.Path) -> dict[str, bytes]:
    return {p.relative_to(outdir).as_posix(): p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}


def _staged(nmea, outdir: pathlib.Path, *, decode_opts=(), port=None, truth=None, vessel=None) -> list[int]:
    """decode -> validate -> voyages -> metrics, with the file names `run` uses."""
    d = {name: str(outdir / name) for name in ("decoded.jsonl", "errors.jsonl", "validated.jsonl",
                                               "outages.jsonl", "voyages.jsonl", "metrics")}
    port_opt = ["--port", str(port)] if port else []
    metrics_opts = port_opt + (["--ground-truth", str(truth)] if truth else [])
    metrics_opts += ["--vessel", str(vessel)] if vessel else []
    outdir.mkdir(parents=True, exist_ok=True)
    return [
        cli.main(["decode", "--input", str(nmea), "--output", d["decoded.jsonl"], "--errors", d["errors.jsonl"],
                  *decode_opts]),
        cli.main(["validate", "--input", d["decoded.jsonl"], "--output", d["validated.jsonl"],
                  "--outages-output", d["outages.jsonl"], *port_opt]),
        cli.main(["voyages", "--input", d["validated.jsonl"], "--output", d["voyages.jsonl"]]),
        cli.main(["metrics", "--voyages", d["voyages.jsonl"], "--output-dir", d["metrics"],
                  "--static", d["decoded.jsonl"], *metrics_opts]),
    ]


def test_run_writes_what_the_staged_commands_write(inputs, tmp_path):
    outdir = tmp_path / "out"
    port, truth, vessel = inputs["port.geojson"], inputs["truth.csv"], inputs["vessel"]
    rc = cli.main(["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(outdir), "--port", str(port),
                   "--ground-truth", str(truth), "--vessel", str(vessel)])
    assert rc == cli.EXIT_OK
    ran = _snapshot(outdir)
    assert {"decoded.jsonl.manifest.json", "validated.jsonl.manifest.json", "voyages.jsonl.manifest.json",
            "metrics/metrics.manifest.json", f"metrics/schedule_{vessel}.csv"} <= set(ran)
    assert json.loads(ran["metrics/summary.json"])["mae"]["macro"] == 0.0
    shutil.rmtree(outdir)
    assert _staged(inputs["tagged.nmea"], outdir, port=port, truth=truth, vessel=vessel) == [cli.EXIT_OK] * 4
    assert _snapshot(outdir) == ran


def test_run_hashes_each_file_once(inputs, tmp_path, monkeypatch):
    """decoded.jsonl, validated.jsonl and voyages.jsonl are each named by two or three manifests but read once."""
    hashed = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(outdir),
                   "--port", str(inputs["port.geojson"]), "--ground-truth", str(inputs["truth.csv"])])
    assert rc == cli.EXIT_OK
    named = set()
    for manifest in outdir.rglob("*.manifest.json"):
        doc = json.loads(manifest.read_text())
        named |= {pathlib.Path(p) for p in (*doc["inputs"], *doc["outputs"])}
    assert outdir / "decoded.jsonl" in named
    assert sorted(map(str, hashed)) == sorted(map(str, named))


def test_untagged_input_at_a_fractional_cadence(inputs, tmp_path):
    """Half the receive times fall between seconds; both paths see them cut to the second."""
    outdir = tmp_path / "out"
    opts = ["--raw-cadence-s", "0.5"]
    rc = cli.main(["run", "--input", str(inputs["untagged.nmea"]), "--outdir", str(outdir),
                   "--port", str(inputs["port.geojson"]), *opts])
    assert rc == cli.EXIT_OK
    ran = _snapshot(outdir)
    assert json.loads(ran["metrics/summary.json"])["n_voyages"] > 0
    shutil.rmtree(outdir)
    assert _staged(inputs["untagged.nmea"], outdir, decode_opts=opts, port=inputs["port.geojson"]) == [0] * 4
    assert _snapshot(outdir) == ran


def test_staged_voyages_flag_what_run_flags(tmp_path):
    """A global outage during a transit flags the voyage; the staged `voyages` reads that from the gap flags."""
    scenario = synth.mixed_port_scenario(n_vessels=3, days=2, error_p=0.3, seed=5)
    start = scenario.vessels[0].visits[0].arrive + dt.timedelta(minutes=10)
    outage = synth.OutagePlan("global", start, start + dt.timedelta(minutes=30))
    scenario = dataclasses.replace(scenario, outages=(outage,))
    nmea = tmp_path / "outage.nmea"
    nmea.write_text("".join(line + "\n" for line in synth.generate(scenario)[0]))
    outdir = tmp_path / "out"
    assert cli.main(["run", "--input", str(nmea), "--outdir", str(outdir)]) == cli.EXIT_OK
    ran = _snapshot(outdir)
    voyages = [json.loads(line) for line in ran["voyages.jsonl"].splitlines()]
    assert [v["mmsi"] for v in voyages if v["gap_flagged"]] == [scenario.vessels[0].mmsi]
    shutil.rmtree(outdir)
    assert _staged(nmea, outdir) == [cli.EXIT_OK] * 4
    assert _snapshot(outdir) == ran


def test_with_an_area_only_the_gaps_between_in_area_messages_flag(tmp_path):
    """A silence that fell while the vessel was outside the area does not flag its voyage in the area."""
    t0 = dt.datetime(2019, 9, 1, tzinfo=dt.timezone.utc)
    outside = 10.0 + 5000.0 / 111195.0  # 5 km north of the area's centre

    def transit(outage_min):
        """Underway every 3 min: in the area for 30 min, out of it for 1 h, back in for 30 min."""
        reports = [PositionReport(mmsi=1, timestamp=t0 + dt.timedelta(minutes=m),
                                  lat=outside if 30 < m < 93 else 10.0, lon=20.0, sog=9.0, cog=None,
                                  heading=None, navstat=0, rot=None)
                   for m in range(0, 123, 3) if not outage_min[0] < m < outage_min[1]]
        outages = [validate.Outage("global", t0 + dt.timedelta(minutes=outage_min[0]),
                                   t0 + dt.timedelta(minutes=outage_min[1]))]
        source = tmp_path / "validated.jsonl"
        source.write_text("".join(json.dumps(cli.validated_to_dict(vm)) + "\n"
                                  for vm in validate.validate_stream(columns(reports), outages=outages)))
        flags = []
        for area in ([], ["--center", "10.0,20.0", "--radius-m", "1000"]):
            out = tmp_path / "voyages.jsonl"
            assert cli.main(["voyages", "--input", str(source), "--output", str(out), *area]) == cli.EXIT_OK
            flags.append([json.loads(line)["gap_flagged"] for line in out.read_text().splitlines()])
        return flags

    assert transit((40, 80)) == [[True], [False]]  # silent while outside the area
    assert transit((10, 25)) == [[True], [True]]  # silent while inside it


def test_run_over_the_error_rate_still_writes_every_file(inputs, tmp_path):
    nmea = tmp_path / "noisy.nmea"
    nmea.write_text(inputs["tagged.nmea"].read_text() + "garbage\n" * 5)
    outdir = tmp_path / "out"
    rc = cli.main(["run", "--input", str(nmea), "--outdir", str(outdir), "--max-error-rate", "0"])
    assert rc == cli.EXIT_QUALITY
    written = _snapshot(outdir)
    for name in ("decoded.jsonl", "errors.jsonl", "validated.jsonl", "outages.jsonl", "voyages.jsonl",
                 "metrics/turnarounds.csv", "metrics/daily_arrivals.csv", "metrics/weekly_turnaround.csv",
                 "metrics/summary.json", "decoded.jsonl.manifest.json", "validated.jsonl.manifest.json",
                 "voyages.jsonl.manifest.json", "metrics/metrics.manifest.json"):
        assert name in written
    assert written["errors.jsonl"].count(b"\n") == 5
    assert json.loads(written["metrics/summary.json"])["n_voyages"] > 0


def test_decode_sends_a_bad_stored_message_to_the_error_channel(tmp_path):
    """decode reads stored JSONL messages too; one that does not parse is an error like any other."""
    stored = tmp_path / "stored.jsonl"
    stored.write_text('{"cog":null,"heading":null,"lat":1.0,"lon":2.0,"mmsi":1,"navstat":5,"rot":null,'
                      '"sog":0.0,"ts":"2019-09-01T00:00:00Z","type":"position"}\n{"type":"bogus"}\n')
    out, errors = tmp_path / "decoded.jsonl", tmp_path / "errors.jsonl"
    rc = cli.main(["decode", "--input", str(stored), "--output", str(out), "--errors", str(errors),
                   "--max-error-rate", "0.5"])
    assert rc == cli.EXIT_OK
    assert out.read_text() == stored.read_text().splitlines()[0] + "\n"
    assert [json.loads(line)["error"] for line in errors.read_text().splitlines()] == ["malformed"]


def test_stored_positions_outside_the_coordinate_range_are_malformed(tmp_path, capsys):
    """A stored message gets the range and type checks the NMEA decoder's output meets; a miss is malformed."""
    good = ('{"cog":null,"heading":null,"lat":1.0,"lon":2.0,"mmsi":1,"navstat":5,"rot":null,'
            '"sog":0.0,"ts":"2019-09-01T00:00:00Z","type":"position"}')
    bad = [good.replace('"lat":1.0', '"lat":NaN'), good.replace('"lat":1.0', '"lat":95.0'),
           good.replace('"lon":2.0', '"lon":"x"'), good.replace('"2019-09-01T00:00:00Z"', '5'),
           good.replace('"mmsi":1', '"mmsi":"abc"'), good.replace('"mmsi":1', '"mmsi":true'),
           good.replace('"navstat":5', '"navstat":5.0'), good.replace('"sog":0.0', '"sog":"fast"'),
           good.replace('"sog":0.0', '"sog":NaN'), good.replace('"cog":null', '"cog":Infinity'),
           good.replace('"heading":null', '"heading":true'), good.replace('"rot":null', '"rot":1.5'),
           good.replace('"sog":0.0', '"sog":' + "9" * 400), good.replace('"mmsi":1', '"mmsi":' + "9" * 20),
           '{"mmsi":"abc","ship_type":70,"type":"static"}', '{"mmsi":2,"ship_type":"70","type":"static"}',
           '{"mmsi":2,"name":7,"ship_type":70,"type":"static"}',
           '{"length":"long","mmsi":2,"ship_type":70,"type":"static"}',
           '{"mmsi":2,"ship_type":70,"type":"static","width":[1]}']
    stored = tmp_path / "stored.jsonl"
    stored.write_text("".join(line + "\n" for line in bad + [good]))
    out, errors = tmp_path / "decoded.jsonl", tmp_path / "errors.jsonl"
    assert cli.main(["decode", "--input", str(stored), "--output", str(out), "--errors", str(errors)]) == cli.EXIT_OK
    assert out.read_text() == good + "\n"
    rows = [json.loads(line) for line in errors.read_text().splitlines()]
    assert [(row["error"], row["raw"]) for row in rows] == [("malformed", line) for line in bad]

    assert cli.main(["run", "--input", str(stored), "--outdir", str(tmp_path / "run")]) == cli.EXIT_OK
    assert (tmp_path / "run" / "errors.jsonl").read_text() == errors.read_text()

    # a staged command whose input file holds such a line stops with a usage error
    validated = tmp_path / "validated_in.jsonl"
    validated.write_text(bad[0].replace('"type":"position"', '"type":"validated","corrected_navstat":5,'
                                        '"method":"geofence","agreed_with_reported":true,"gap_flag":false') + "\n")
    capsys.readouterr()
    for stage, source in (("validate", stored), ("voyages", validated)):
        rc = cli.main([stage, "--input", str(source), "--output", str(tmp_path / f"{stage}.jsonl")])
        assert rc == cli.EXIT_USAGE
        assert "lat nan is not a number" in capsys.readouterr().err


def test_stored_ints_in_float_fields_are_written_as_floats(tmp_path):
    """A stored position with ints in its float fields reads as the floats the columns hold, and every writer
    writes them as floats: decode, validate, the staged commands and the store."""
    stored = tmp_path / "stored.jsonl"
    stored.write_text('{"cog":90,"heading":7,"lat":34,"lon":18,"mmsi":1,"navstat":5,"rot":-3,"sog":5,'
                      '"ts":"2019-09-01T00:00:00Z","type":"position"}\n')
    decoded = ('{"cog":90.0,"heading":7.0,"lat":34.0,"lon":18.0,"mmsi":1,"navstat":5,"rot":-3,"sog":5.0,'
               '"ts":"2019-09-01T00:00:00Z","type":"position"}\n')
    outdir = tmp_path / "run"
    assert cli.main(["run", "--input", str(stored), "--outdir", str(outdir)]) == cli.EXIT_OK
    assert (outdir / "decoded.jsonl").read_text() == decoded
    validated = (outdir / "validated.jsonl").read_text()
    assert all(f'"{key}":{text},' in validated for key, text in (
        ("cog", "90.0"), ("heading", "7.0"), ("lat", "34.0"), ("lon", "18.0"), ("rot", "-3"), ("sog", "5.0")))
    staged = tmp_path / "staged.jsonl"
    assert cli.main(["validate", "--input", str(stored), "--output", str(staged)]) == cli.EXIT_OK
    assert staged.read_text() == validated
    assert cli.main(["ingest", "--source", f"file:{stored}", "--store", str(tmp_path / "store")]) == cli.EXIT_OK
    assert (tmp_path / "store" / "ais-2019-09-01.jsonl").read_text() == decoded


@pytest.mark.parametrize("rot", [(1 << 53) + 1, -(1 << 53) - 1])
def test_a_stored_rate_of_turn_past_what_float64_holds_is_malformed(tmp_path, capsys, rot):
    """A rate of turn is held as a float64, which holds every integer up to 2**53 either way and not the next."""
    good = ('{"cog":null,"heading":null,"lat":1.0,"lon":2.0,"mmsi":1,"navstat":5,"rot":null,'
            '"sog":0.0,"ts":"2019-09-01T00:00:00Z","type":"position"}')
    last = rot - 1 if rot > 0 else rot + 1  # 2**53 either way
    edge = good.replace('"rot":null', f'"rot":{last}')
    bad = good.replace('"rot":null', f'"rot":{rot}')
    stored = tmp_path / "stored.jsonl"
    stored.write_text(bad + "\n" + edge + "\n")
    out, errors = tmp_path / "decoded.jsonl", tmp_path / "errors.jsonl"
    assert cli.main(["decode", "--input", str(stored), "--output", str(out), "--errors", str(errors)]) == cli.EXIT_OK
    assert out.read_text() == edge + "\n"
    assert [(row["error"], row["raw"]) for row in map(json.loads, errors.read_text().splitlines())] \
        == [("malformed", bad)]
    validated = tmp_path / "validated.jsonl"
    assert cli.main(["validate", "--input", str(out), "--output", str(validated)]) == cli.EXIT_OK
    assert f'"rot":{last},' in validated.read_text()
    capsys.readouterr()
    assert cli.main(["validate", "--input", str(stored), "--output", str(validated)]) == cli.EXIT_USAGE
    assert f"rot {rot}" in capsys.readouterr().err


# offset times that parse but fall outside the years 1-9999 once moved to UTC
OUT_OF_UTC = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]


@pytest.mark.parametrize("ts", OUT_OF_UTC)
def test_a_stored_time_outside_utc_is_malformed(tmp_path, ts):
    good = ('{"cog":null,"heading":null,"lat":1.0,"lon":2.0,"mmsi":1,"navstat":5,"rot":null,'
            '"sog":0.0,"ts":"2019-09-01T00:00:00Z","type":"position"}')
    bad = good.replace("2019-09-01T00:00:00Z", ts)
    stored = tmp_path / "stored.jsonl"
    stored.write_text(bad + "\n" + good + "\n")
    out, errors = tmp_path / "decoded.jsonl", tmp_path / "errors.jsonl"
    assert cli.main(["decode", "--input", str(stored), "--output", str(out), "--errors", str(errors)]) == cli.EXIT_OK
    assert out.read_text() == good + "\n"
    rows = [json.loads(line) for line in errors.read_text().splitlines()]
    assert [(row["error"], row["raw"]) for row in rows] == [("malformed", bad)]
    assert ts in rows[0]["detail"]
    assert cli.main(["ingest", "--source", f"file:{stored}", "--store", str(tmp_path / "store")]) == cli.EXIT_OK
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["ais-2019-09-01.jsonl"]


@pytest.mark.parametrize("ts", OUT_OF_UTC)
def test_staged_commands_refuse_a_time_outside_utc(tmp_path, capsys, ts):
    stored, voyages, truth = tmp_path / "stored.jsonl", tmp_path / "voyages.jsonl", tmp_path / "truth.csv"
    stored.write_text('{"cog":null,"heading":null,"lat":1.0,"lon":2.0,"mmsi":1,"navstat":5,"rot":null,'
                      f'"sog":0.0,"ts":"{ts}","type":"position"}}\n')
    phase = {"kind": "moored", "start": ts, "end": ts, "mean_sog": 0.0, "lat": 1.0, "lon": 2.0, "n_messages": 1,
             "n_sog": 1}
    voyages.write_text(json.dumps({"mmsi": 1, "arrival": ts, "departure": ts, "gap_flagged": False,
                                   "n_messages": 1, "phases": [phase]}) + "\n")
    truth.write_text(f"timestamp,mmsi,category\n{ts},1,cargo\n")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    metrics = ["metrics", "--output-dir", str(tmp_path / "metrics")]
    for argv, message in ((["validate", "--input", str(stored), "--output", str(tmp_path / "validated.jsonl")],
                           "bad position message in"),
                          (metrics + ["--voyages", str(voyages)], "bad voyage in"),
                          (metrics + ["--voyages", str(empty), "--ground-truth", str(truth)], "bad ground truth")):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and ts in err


VALIDATED_DOC = {"type": "validated", "mmsi": 1, "ts": "2019-09-01T00:00:00Z", "lat": 1.0, "lon": 2.0, "sog": 9.0,
                 "cog": None, "heading": None, "navstat": 0, "rot": None, "corrected_navstat": 0, "method": "geofence",
                 "agreed_with_reported": True, "gap_flag": False}


MISSING = object()  # a field left out of a stored document


def _with(doc: dict, key: str, value) -> dict:
    """`doc` with `key` set to `value`, or left out for MISSING."""
    return {k: v for k, v in dict(doc, **{key: value}).items() if v is not MISSING}


def _missing_id(value):
    return "missing" if value is MISSING else None


@pytest.mark.parametrize("key,value", [("corrected_navstat", "5"), ("corrected_navstat", 3), ("gap_flag", "no"),
                                       ("agreed_with_reported", 1), ("method", 5), ("lat", MISSING), ("ts", 5),
                                       ("ts", None), ("method", MISSING)], ids=_missing_id)
def test_wrongly_typed_validated_fields_are_usage_errors(tmp_path, capsys, key, value):
    source, out = tmp_path / "validated.jsonl", tmp_path / "voyages.jsonl"
    later = dict(VALIDATED_DOC, ts="2019-09-01T00:03:00Z")
    source.write_text(json.dumps(VALIDATED_DOC) + "\n" + json.dumps(later) + "\n")
    assert cli.main(["voyages", "--input", str(source), "--output", str(out)]) == cli.EXIT_OK
    source.write_text(json.dumps(VALIDATED_DOC) + "\n" + json.dumps(_with(later, key, value)) + "\n")
    capsys.readouterr()
    assert cli.main(["voyages", "--input", str(source), "--output", str(out)]) == cli.EXIT_USAGE
    assert f"bad validated message in {source}: {key} " in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("lat", MISSING), ("ts", 5), ("ts", None), ("mmsi", MISSING), ("rot", 1.5)],
                         ids=_missing_id)
def test_wrongly_typed_position_fields_are_usage_errors(tmp_path, capsys, key, value):
    """validate, and decode in its error detail, name the field of a stored position that is missing or of the wrong
    type."""
    position = dict({f.key: VALIDATED_DOC[f.key] for f in codec.Positions.fields}, type="position")
    source, out = tmp_path / "decoded.jsonl", tmp_path / "validated.jsonl"
    source.write_text(json.dumps(position) + "\n")
    assert cli.main(["validate", "--input", str(source), "--output", str(out)]) == cli.EXIT_OK
    source.write_text(json.dumps(_with(position, key, value)) + "\n")
    capsys.readouterr()
    assert cli.main(["validate", "--input", str(source), "--output", str(out)]) == cli.EXIT_USAGE
    assert f"bad position message in {source}: {key} " in capsys.readouterr().err
    # decode's replay of the stored line gives the same text as the detail of its error
    errors = tmp_path / "errors.jsonl"
    assert cli.main(["decode", "--input", str(source), "--output", str(tmp_path / "out.jsonl"), "--errors",
                     str(errors)]) == cli.EXIT_OK
    assert json.loads(errors.read_text())["detail"].startswith(f"{key} ")


def test_bad_metrics_inputs_are_usage_errors(tmp_path, capsys):
    voyages, static = tmp_path / "voyages.jsonl", tmp_path / "static.jsonl"
    phase = {"kind": "underway", "start": "2019-09-01T00:00:00Z", "end": "2019-09-01T01:00:00Z", "mean_sog": 9.0,
             "lat": 1.0, "lon": 2.0, "n_messages": 2, "n_sog": 2}
    good = {"mmsi": 1, "arrival": phase["start"], "departure": phase["end"], "gap_flagged": False, "n_messages": 2,
            "phases": [phase]}
    argv = ["metrics", "--voyages", str(voyages), "--output-dir", str(tmp_path / "metrics")]
    voyages.write_text(json.dumps(good) + "\n")
    assert cli.main(argv) == cli.EXIT_OK
    bad_voyages = [{"mmsi": 1}, dict(good, mmsi="abc"), dict(good, gap_flagged="no"),
                   dict(good, phases=[dict(phase, lat="x")]), dict(good, phases=[dict(phase, kind="docked")])]
    cases = [(json.dumps(doc) + "\n", None, "bad voyage in") for doc in bad_voyages]
    cases += [("", '{"type":"static","ship_type":70}\n', f"bad static message in {static}: mmsi "),
              ("", '{"mmsi":1,"ship_type":70,"ts":5,"type":"static"}\n', f"bad static message in {static}: ts "),
              ("", '{"mmsi":1,"ship_type":"70","type":"static"}\n', f"bad static message in {static}: ship_type "),
              ("", "not json\n", "bad static message in")]
    for voyages_text, static_text, message in cases:
        voyages.write_text(voyages_text)
        if static_text:
            static.write_text(static_text)
        capsys.readouterr()
        assert cli.main(argv + (["--static", str(static)] if static_text else [])) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


def test_missing_input_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["run", "--input", str(tmp_path / "absent.nmea"), "--outdir", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert "does not exist" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["decode", "run", "ingest"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, command):
    source = tmp_path / "a-directory"
    source.mkdir()
    out = tmp_path / "out"
    argv = {"decode": ["decode", "--input", str(source), "--output", str(out / "decoded.jsonl")],
            "run": ["run", "--input", str(source), "--outdir", str(out)],
            "ingest": ["ingest", "--source", f"file:{source}", "--store", str(out)]}[command]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"input {source} cannot be read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["decode", "run"])
def test_unparseable_raw_start_is_a_usage_error(inputs, tmp_path, capsys, command):
    """Before any output is opened: decode keeps what its output and error files held."""
    out = tmp_path / "out"
    out.mkdir()
    decoded, errors = out / "decoded.jsonl", out / "errors.jsonl"
    decoded.write_text("kept\n")
    errors.write_text("kept\n")
    argv = {"decode": ["decode", "--output", str(decoded), "--errors", str(errors)],
            "run": ["run", "--outdir", str(out / "run")]}[command]
    assert cli.main(argv + ["--input", str(inputs["untagged.nmea"]), "--raw-start", "yesterday"]) == cli.EXIT_USAGE
    assert "bad --raw-start 'yesterday'" in capsys.readouterr().err
    assert decoded.read_text() == errors.read_text() == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == ["decoded.jsonl", "errors.jsonl"]


@pytest.mark.parametrize("cadence", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["decode", "run"])
def test_cadence_not_finite_or_negative_is_a_usage_error(inputs, tmp_path, capsys, command, cadence):
    """Before any output is opened, as for --raw-start; a negative cadence is refused too."""
    out = tmp_path / "out"
    out.mkdir()
    decoded = out / "decoded.jsonl"
    decoded.write_text("kept\n")
    argv = {"decode": ["decode", "--output", str(decoded)], "run": ["run", "--outdir", str(out / "run")]}[command]
    assert cli.main(argv + ["--input", str(inputs["untagged.nmea"]), "--raw-cadence-s", cadence]) == cli.EXIT_USAGE
    assert f"bad --raw-cadence-s {float(cadence)!r}" in capsys.readouterr().err
    assert decoded.read_text() == "kept\n"
    assert [p.name for p in out.iterdir()] == ["decoded.jsonl"]


@pytest.mark.parametrize("command", ["decode", "run"])
def test_cadence_past_year_9999_is_a_usage_error(inputs, tmp_path, capsys, command):
    """The receive time of the second untagged line would lie past year 9999."""
    out = tmp_path / "out"
    argv = {"decode": ["decode", "--output", str(out / "decoded.jsonl")], "run": ["run", "--outdir", str(out)]}
    out.mkdir()
    rc = cli.main(argv[command] + ["--input", str(inputs["untagged.nmea"]), "--raw-cadence-s", "1e300"])
    assert rc == cli.EXIT_USAGE
    assert "bad --raw-cadence-s 1e+300: line 2 would be received after year 9999" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_short_ground_truth_row_is_a_usage_error(inputs, tmp_path, capsys, command):
    truth = tmp_path / "truth.csv"
    truth.write_text("date,category,arrivals\n2019-09-01,cargo,3\n2019-09-01,cargo\n")
    voyages = tmp_path / "voyages.jsonl"
    voyages.write_text("")
    out = tmp_path / "out"
    argv = {"run": ["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(out)],
            "metrics": ["metrics", "--voyages", str(voyages), "--output-dir", str(out)]}[command]
    assert cli.main(argv + ["--ground-truth", str(truth)]) == cli.EXIT_USAGE
    assert f"bad ground truth: {truth}: line 3 '2019-09-01,cargo' has 2 of the 3 fields" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, bad", [
    ("date,category,arrivals\n2019-09-01,cargo,3\n2019-13-01,cargo,1\n", "2019-13-01,cargo,1"),
    ("date,category,arrivals\n2019-09-01,cargo,3\n2019-09-02,cargo,many\n", "2019-09-02,cargo,many"),
    ("date,category,arrivals\n2019-09-01,cargo,3\n2019-09-02,cargo,-1\n", "2019-09-02,cargo,-1"),
    ("timestamp,mmsi,category\n2019-09-01T00:00:00Z,1,cargo\nyesterday,1,cargo\n", "yesterday,1,cargo"),
    ("timestamp,mmsi,category\n2019-09-01T00:00:00Z,1,cargo\n9999-12-31T23:59:59-01:00,1,cargo\n",
     "9999-12-31T23:59:59-01:00,1,cargo"),
], ids=["date", "arrivals", "negative-arrivals", "timestamp", "timestamp-outside-utc"])
@pytest.mark.parametrize("command", ["run", "metrics"])
def test_unparseable_ground_truth_cell_is_a_usage_error(inputs, tmp_path, capsys, command, text, bad):
    """The message names the file, the line and the row, in both layouts."""
    truth = tmp_path / "truth.csv"
    truth.write_text(text)
    voyages = tmp_path / "voyages.jsonl"
    voyages.write_text("")
    out = tmp_path / "out"
    argv = {"run": ["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(out)],
            "metrics": ["metrics", "--voyages", str(voyages), "--output-dir", str(out)]}[command]
    assert cli.main(argv + ["--ground-truth", str(truth)]) == cli.EXIT_USAGE
    assert f"bad ground truth: {truth}: line 3 {bad!r}: " in capsys.readouterr().err
    assert not out.exists()


def count_built(monkeypatch) -> dict[str, int]:
    """Counts, until monkeypatch.undo(), the PositionReport, StaticReport and ValidatedMessage objects built, and
    the datetimes that codec, validate and voyage make from epoch microseconds."""
    built = {"PositionReport": 0, "StaticReport": 0, "ValidatedMessage": 0, "datetime": 0}

    def counted_init(name, cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    def counted_times(module):
        def wrapper(us):
            built["datetime"] += 1
            return from_epoch_us(us)
        monkeypatch.setattr(module, "from_epoch_us", wrapper)

    for cls in (PositionReport, codec.StaticReport, columnar.ValidatedMessage):
        counted_init(cls.__name__, cls)
    for module in (codec, validate, voyage):
        counted_times(module)
    return built


def test_run_builds_no_row_object_per_block_row(inputs, tmp_path, monkeypatch):
    """On a clean tagged input every position and static comes from the block pass, and `run` carries them as
    columns to its files: no PositionReport, StaticReport, ValidatedMessage or datetime per row. The datetimes are
    one for each end of each voyage, phase and outage."""
    built = count_built(monkeypatch)
    outdir = tmp_path / "out"
    argv = ["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(outdir), "--port",
            str(inputs["port.geojson"])]
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.undo()
    voyages = [json.loads(line) for line in (outdir / "voyages.jsonl").read_text().splitlines()]
    n_outages = len((outdir / "outages.jsonl").read_text().splitlines())
    decoded = (outdir / "decoded.jsonl").read_text()
    n_statics = decoded.count('"type":"static"')
    assert decoded.count('"type":"position"') > 1000 and n_statics > 100 and voyages
    assert built == {"PositionReport": 0, "StaticReport": 0, "ValidatedMessage": 0,
                     "datetime": 2 * (len(voyages) + sum(len(v["phases"]) for v in voyages) + n_outages)}


def test_staged_commands_build_no_row_object_per_stored_line(inputs, tmp_path, monkeypatch):
    """The staged validate, voyages and metrics --static read their stored lines straight into tables."""
    d = tmp_path / "out"
    d.mkdir()
    assert cli.main(["decode", "--input", str(inputs["tagged.nmea"]), "--output", str(d / "decoded.jsonl")]) == 0
    built = count_built(monkeypatch)
    for argv in (["validate", "--input", str(d / "decoded.jsonl"), "--output", str(d / "validated.jsonl"),
                  "--port", str(inputs["port.geojson"])],
                 ["voyages", "--input", str(d / "validated.jsonl"), "--output", str(d / "voyages.jsonl")],
                 ["metrics", "--voyages", str(d / "voyages.jsonl"), "--output-dir", str(d / "metrics"),
                  "--static", str(d / "decoded.jsonl")]):
        assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.undo()
    assert len((d / "validated.jsonl").read_text().splitlines()) > 1000
    assert json.loads((d / "metrics" / "summary.json").read_text())["n_voyages"] > 0
    assert {name: n for name, n in built.items() if name != "datetime"} \
        == {"PositionReport": 0, "StaticReport": 0, "ValidatedMessage": 0}


def test_replayed_stored_lines_keep_their_bytes(tmp_path):
    """A stored static is replayed as a message, so its length of 0 stays 0 where a Statics row would write null;
    a stored position's ints in float fields are written as floats."""
    static = ('{"length":0,"mmsi":2,"name":"A \\"B\\"","ship_type":70,"ts":"2019-09-01T00:00:00Z","type":"static",'
              '"width":null}')
    position = ('{"cog":null,"heading":null,"lat":34,"lon":18.5,"mmsi":1,"navstat":5,"rot":null,"sog":5,'
                '"ts":"2019-09-01T00:00:01Z","type":"position"}')
    stored, out = tmp_path / "stored.jsonl", tmp_path / "decoded.jsonl"
    stored.write_text(static + "\n" + position + "\n")
    assert cli.main(["decode", "--input", str(stored), "--output", str(out)]) == cli.EXIT_OK
    written = static + "\n" + position.replace('"lat":34,', '"lat":34.0,').replace('"sog":5,', '"sog":5.0,') + "\n"
    assert out.read_text() == written
    assert cli.main(["ingest", "--source", f"file:{stored}", "--store", str(tmp_path / "store")]) == cli.EXIT_OK
    assert (tmp_path / "store" / "ais-2019-09-01.jsonl").read_text() == written


def test_an_output_that_cannot_be_written_is_an_io_error(tmp_path, capsys):
    """An OSError writing an output exits 2 with one error line, not 1 with a traceback."""
    stored = tmp_path / "stored.jsonl"
    stored.write_text('{"mmsi":2,"name":"A","ship_type":70,"ts":"2019-09-01T00:00:00Z","type":"static"}\n')
    assert cli.main(["decode", "--input", str(stored), "--output", str(tmp_path / "missing" / "decoded.jsonl")]) \
        == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ") and not (tmp_path / "missing").exists()
    (tmp_path / "file").write_text("")
    assert cli.main(["ingest", "--source", f"file:{stored}", "--store", str(tmp_path / "file")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_command_imports_only_the_stages_it_runs():
    probe = ("import sys; from portcall import cli; "
             "print(sorted(m for m in ('portcall.synth', 'portcall.metrics') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _fed_only(line: str, shape: int) -> list[str]:
    """A single-sentence position line, TAG block kept, reshaped so that only the line parser decodes it: with a
    trailing blank, a `$` start, a 29-character payload with 4 fill bits, or split over two fragments."""
    tag, _, sentence = line.rpartition("\\")
    tag = tag + "\\" if tag else ""
    talker, _, _, _, channel, payload, fill = sentence[1:-3].split(",")
    if shape == 0:
        return [line + " "]
    if shape == 1:
        return [tag + "$" + sentence[1:]]
    if shape == 2:
        return [tag + oracles.sentence(payload + "0", 4, channel=channel, talker=talker)]
    return [tag + oracles.sentence(payload[:14], 0, 2, 1, 9, "B", talker),
            oracles.sentence(payload[14:], int(fill), 2, 2, 9, "B", talker)]


def mixed_replay(rows: list[str], fed: bool = False) -> bytes:
    """A replay of synthetic traffic mixing TAG-blocked and bare lines, stored JSONL messages (one torn), blank
    lines and faults: a changed payload character, a cut line, garbage, a byte that is not UTF-8. With `fed`, some
    position lines take shapes that only the line parser decodes (_fed_only)."""
    dec = MessageDecoder()
    stored = [jsonl.dumps(jsonl.message_to_dict(o.message)) for line in rows[:40]
              for o in dec.feed(line, dt.datetime(2019, 9, 1, tzinfo=dt.timezone.utc))
              if o.kind in ("position", "static")]
    out = []
    for i, line in enumerate(rows):
        if i % 3 == 1:
            line = line.rsplit("\\", 1)[-1]  # bare
        if i % 97 == 5:
            k = len(line) - 10
            line = line[:k] + ("A" if line[k] != "A" else "B") + line[k + 1 :]
        elif i % 89 == 7:
            line = line[: len(line) // 2]
        elif fed and i % 41 == 20 and ",1,1," in line:
            out += [text.encode() for text in _fed_only(line, i // 41 % 4)]
            continue
        out.append(line.encode())
        if i % 61 == 3:
            out.append(stored[i % len(stored)].encode())
        if i % 151 == 9:
            out += [b"", b"garbage", stored[0][:30].encode(), b"!AIVDM,1,1,,A,\xff,0*00"]
    return b"\n".join(out) + b"\n"


# the sha256 of what the store and decode wrote for mixed_replay when they decoded and wrote one message at a time
MIXED_REPLAY_PINS = {
    "decoded.errors.jsonl": "357b2885feaa5a463351d39c606d30560d66643d9609f099a582dde5d50ca136",
    "decoded.jsonl": "ddc1813da28f7d8300d2aef0a818470849a458138f3d56c62d7a9c6ca2285cc2",
    "store/ais-2000-01-01.jsonl": "d6d66f7d1f78bcabd4e97c6d588dea908132fd7631a25aa7fbfe0186275242f7",
    "store/ais-2019-09-01.jsonl": "0ddfd13b4786923f571692636d03634d0583fffeb9b9ac0a0ca5095a39468ccb",
}
# the same for mixed_replay with `fed`, as written when the positions the line parser decoded joined the block's
# position table
MIXED_REPLAY_FED_PINS = {
    "decoded.errors.jsonl": "9b9fd13bd05ff07199692f7c3ea72f426206ac055759a55699976bac8a81d252",
    "decoded.jsonl": "c3b4d29b85a07d36a4b6989766f0f173b207f59d9b5c683711494f1fac037a57",
    "store/ais-2000-01-01.jsonl": "bed26c7c3a45cf594afb0cea3337d0eabb649d05a9f5bb60fd2c06a3aa176001",
    "store/ais-2019-09-01.jsonl": "4c9315ebafec7589394957093182e94c56d8b0dc8587886dd261b9a9d38d9807",
}


@pytest.mark.parametrize("fed, pins", [(False, MIXED_REPLAY_PINS), (True, MIXED_REPLAY_FED_PINS)],
                         ids=["synthetic", "fed"])
def test_mixed_replay_writes_the_pinned_bytes(tmp_path, monkeypatch, capsys, fed, pins):
    """Blocks of 7 lines split static pairs; decode reads untagged lines at 0.5 s from a pre-1970 start."""
    monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 7)
    rows = synth.generate(synth.mixed_port_scenario(n_vessels=3, days=1, error_p=0.3, seed=13))[0]
    source = tmp_path / "mixed.nmea"
    source.write_bytes(mixed_replay(rows, fed))
    assert cli.main(["ingest", "--source", f"file:{source}", "--store", str(tmp_path / "store")]) == cli.EXIT_OK
    assert cli.main(["decode", "--input", str(source), "--output", str(tmp_path / "decoded.jsonl"),
                     "--raw-start", "1969-12-31T23:30:00Z", "--raw-cadence-s", "0.5"]) == cli.EXIT_OK
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*.jsonl"))}
    assert written == pins


def stored_variants(rows: list[str]) -> list[str]:
    """Stored position lines that the block pass never writes, each at the MMSI and time of a decoded report of
    `rows`, so some tie with a table row: integer SOG, COG and heading; -0.0 in each; null in every optional
    field; and a fractional-second time, in UTC or at an offset."""
    dec = MessageDecoder()
    reports = [o.message for line in rows for o in dec.feed(line, dt.datetime(2019, 9, 1, tzinfo=dt.timezone.utc))
               if o.kind == "position"]
    out = []
    for k, r in enumerate(reports[::23]):
        doc = jsonl.message_to_dict(r)
        shape = k % 5
        if shape == 0:
            doc.update(sog=int(r.sog or 0), cog=int(r.cog or 0), heading=int(r.heading or 0))
        elif shape == 1:
            doc.update(sog=-0.0, cog=-0.0, heading=-0.0)
        elif shape == 2:
            doc.update(sog=None, cog=None, heading=None, rot=None)
        elif shape == 3:
            doc["ts"] = (r.timestamp + dt.timedelta(microseconds=750_000)).isoformat()
        else:
            doc["ts"] = (r.timestamp + dt.timedelta(seconds=1, microseconds=250)).astimezone(
                dt.timezone(dt.timedelta(hours=1))).isoformat()
        out.append(json.dumps(doc))
    return out


# sha256 of what `run --port` wrote for the fed mixed replay with stored_variants, when decode handed validate one
# PositionReport per position; validated.jsonl as written since stored float fields read as floats, so an int
# `"sog":0` is written `0.0`
NON_BLOCK_PINS = {
    "metrics/daily_arrivals.csv": "72585b884ca5c7bfbe41c2d9205029dc237c92efe6044972b9986a7ae9e2101b",
    "metrics/summary.json": "009a72997a1d8c95bd011d6ff6efe0a5ad708ea8238a7ea19f0a621a105b81d9",
    "metrics/turnarounds.csv": "e0b3e35dc50354dc60db82fffd6cc508269b216e567096e50f4d74049ecfcec3",
    "metrics/weekly_turnaround.csv": "a1b9a8aed6abdc8e67b7e19f4ef7897a8300d3f478582dd4d9249f6489ec3995",
    "outages.jsonl": "e833746c7b296822cb1d7d7ba7ba8f1f47d71025cf9cabffcd51f4dd740c7d27",
    "validated.jsonl": "a3e29ba443bec0fbac3595c3cb5f88583729aee1bcad6ab89ee093fe12111629",
    "voyages.jsonl": "1ca032babb0bc6d1baeedf3c0239100668af3b468688eec2e17cbd91027fe01a",
}


def test_run_on_non_block_rows_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """Positions from the line parser and stored lines with integer, -0.0 and null fields and fractional times,
    among table rows, through `run --port`; the staged commands write the same bytes."""
    monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 7)
    scenario = synth.mixed_port_scenario(n_vessels=3, days=1, error_p=0.3, seed=13)
    rows = synth.generate(scenario)[0]
    lines = mixed_replay(rows, fed=True).splitlines()
    for k, stored in enumerate(stored_variants(rows)):
        lines.insert(1 + 37 * k, stored.encode())
    source, port = tmp_path / "mixed.nmea", tmp_path / "port.geojson"
    source.write_bytes(b"\n".join(lines) + b"\n")
    port.write_text(json.dumps(synth.build_port(scenario.center).geojson()))
    opts = ["--raw-start", "2019-09-01T00:00:00Z", "--raw-cadence-s", "0.5"]
    outdir = tmp_path / "out"
    assert cli.main(["run", "--input", str(source), "--outdir", str(outdir), "--port", str(port), *opts]) == 0
    ran = _snapshot(outdir)
    pinned = {name: hashlib.sha256(data).hexdigest() for name, data in ran.items()
              if name in ("validated.jsonl", "outages.jsonl", "voyages.jsonl")
              or name.startswith("metrics/") and not name.endswith(".manifest.json")}
    assert pinned == NON_BLOCK_PINS
    assert b'"sog":0,' not in ran["validated.jsonl"] and b'"sog":-0.0,' in ran["validated.jsonl"]
    shutil.rmtree(outdir)
    monkeypatch.setattr(cli, "_ROWS_PER_PART", 100)  # the staged commands join their rows from many parts
    assert _staged(source, outdir, decode_opts=opts, port=port) == [cli.EXIT_OK] * 4
    assert _snapshot(outdir) == ran


def test_run_writes_the_dict_codec_text_across_chunks_and_blocks(tmp_path):
    """More positions than two of the writers' chunks and many replay blocks: every stored line is the text the
    dict codecs write for the message it holds."""
    scenario = synth.mixed_port_scenario(n_vessels=5, days=4, error_p=0.3, seed=5)
    nmea = tmp_path / "input.nmea"
    nmea.write_text("".join(line + "\n" for line in synth.generate(scenario)[0]))
    outdir = tmp_path / "out"
    assert cli.main(["run", "--input", str(nmea), "--outdir", str(outdir)]) == cli.EXIT_OK
    decoded = (outdir / "decoded.jsonl").read_text().splitlines()
    validated = (outdir / "validated.jsonl").read_text().splitlines()
    assert len(validated) > 2 * table.CHUNK_ROWS and len(decoded) > 2 * ingest._REPLAY_BLOCK
    assert decoded == [jsonl.dumps(jsonl.message_to_dict(jsonl.message_from_dict(json.loads(line))))
                       for line in decoded]
    assert validated == [jsonl.dumps(cli.validated_to_dict(cli.validated_from_dict(json.loads(line))))
                         for line in validated]


@pytest.mark.parametrize("command", ["run", "metrics"])
def test_unparseable_exclude_date_is_a_usage_error(inputs, tmp_path, capsys, command):
    voyages = tmp_path / "voyages.jsonl"
    voyages.write_text("")
    out = tmp_path / "out"
    argv = {"run": ["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(out)],
            "metrics": ["metrics", "--voyages", str(voyages), "--output-dir", str(out)]}[command]
    rc = cli.main(argv + ["--ground-truth", str(inputs["truth.csv"]), "--exclude-dates", "2019-09-02,2019-13-01"])
    assert rc == cli.EXIT_USAGE
    assert "bad --exclude-dates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geojson", [
    "[]",
    json.dumps({"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {
        "name": "berth", "kind": "terminal"}, "geometry": {"type": "Polygon", "coordinates": [
            [[18.3, 34.4], None, [18.31, 34.41], [18.3, 34.4]]]}}]}),
], ids=["top-level-list", "null-vertex"])
def test_port_or_area_geojson_of_another_shape_is_a_usage_error(tmp_path, capsys, geojson):
    """Each once ended in a traceback: an AttributeError on a list, a TypeError on a null vertex."""
    geometry, empty = tmp_path / "bad.geojson", tmp_path / "empty.jsonl"
    geometry.write_text(geojson)
    empty.write_text("")
    out = tmp_path / "out"
    for argv, message in ((["run", "--input", str(empty), "--outdir", str(out), "--port", str(geometry)],
                           "bad port geometry"),
                          (["run", "--input", str(empty), "--outdir", str(out), "--area", str(geometry)], "bad area"),
                          (["validate", "--input", str(empty), "--output", str(out), "--port", str(geometry)],
                           "bad port geometry"),
                          (["voyages", "--input", str(empty), "--output", str(out), "--area", str(geometry)],
                           "bad area"),
                          (["metrics", "--voyages", str(empty), "--output-dir", str(out), "--port", str(geometry)],
                           "bad port geometry")):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("vertex", [[math.nan, 34.41], [18.31, 95.0], [math.inf, 34.41], [18.31, -math.inf]],
                         ids=["nan-lon", "lat-95", "inf-lon", "-inf-lat"])
def test_a_port_or_area_vertex_off_the_globe_is_a_usage_error(tmp_path, capsys, vertex):
    """A port file with a NaN longitude once loaded: `run --port` exited 0, and the rows moored at that berth came
    out underway."""
    geometry, empty = tmp_path / "port.geojson", tmp_path / "empty.jsonl"
    ring = [[18.3, 34.4], [18.31, 34.4], vertex, [18.3, 34.4]]  # GeoJSON's [lon, lat]
    geometry.write_text(json.dumps({"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {
        "name": "berth", "kind": "terminal"}, "geometry": {"type": "Polygon", "coordinates": [ring]}}]}))
    empty.write_text("")
    out = tmp_path / "out"
    for argv, message in ((["run", "--input", str(empty), "--outdir", str(out), "--port", str(geometry)],
                           "bad port geometry: 'berth': vertex"),
                          (["voyages", "--input", str(empty), "--output", str(out), "--area", str(geometry)],
                           "bad area: 'berth': vertex")):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "0", "-5"])
def test_a_radius_that_is_not_a_finite_positive_number_is_a_usage_error(tmp_path, capsys, radius):
    """`--radius-m nan` once gave an area that held no message, and `run` exited 0 with no voyage."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    for argv in (["run", "--input", str(empty), "--outdir", str(out)],
                 ["voyages", "--input", str(empty), "--output", str(out)]):
        assert cli.main(argv + ["--center", "34.45,18.30", f"--radius-m={radius}"]) == cli.EXIT_USAGE
        assert "bad --radius-m" in capsys.readouterr().err
        assert not out.exists()


def test_run_parses_each_flag_as_its_staged_command_does():
    """The flags `run` shares with a staged command parse alike, given or by default, and keep their defaults."""
    parser = cli.build_parser()
    staged = {"decode": ["--input", "i", "--output", "o"], "validate": ["--input", "i", "--output", "o"],
              "voyages": ["--input", "i", "--output", "o"], "metrics": ["--voyages", "v", "--output-dir", "o"]}
    defaults = {"raw_start": "2000-01-01T00:00:00Z", "raw_cadence_s": 1.0, "max_error_rate": None, "port": None,
                "config": None, "method": None, "area": None, "center": None, "radius_m": 10000.0,
                "ground_truth": None, "exclude_dates": None, "vessel": None}
    given = {"--raw-start": "2019-09-01T00:00:00Z", "--raw-cadence-s": "0.5", "--max-error-rate": "0.1",
             "--port": "p.geojson", "--config": "v.conf", "--method": "knn", "--area": "a.geojson",
             "--center": "34.4,18.3", "--radius-m": "500", "--ground-truth": "t.csv", "--exclude-dates": "2019-09-02",
             "--vessel": "219000001"}
    assert vars(parser.parse_args(["run", "--input", "i", "--outdir", "o"])).items() >= defaults.items()
    for flags in ({}, given):
        ran = vars(parser.parse_args(["run", "--input", "i", "--outdir", "o", *itertools.chain(*flags.items())]))
        shared = set()
        for command, argv in staged.items():
            keys = vars(parser.parse_args([command, *argv])).keys() & defaults.keys()
            own = {flag: value for flag, value in flags.items() if flag[2:].replace("-", "_") in keys}
            parsed = vars(parser.parse_args([command, *argv, *itertools.chain(*own.items())]))
            assert {key: parsed[key] for key in keys} == {key: ran[key] for key in keys}
            shared |= keys
        assert shared == defaults.keys()


def test_knn_k_zero_in_the_config_is_a_usage_error(inputs, tmp_path, capsys):
    config = tmp_path / "v.conf"
    config.write_text("method = knn\nknn_k = 0\n")
    rc = cli.main(["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(tmp_path / "out"),
                   "--config", str(config)])
    assert rc == cli.EXIT_USAGE
    assert "knn_k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", ["hysteresis_min = inf", "rotation_window_h = 1e300", "hysteresis_min = nan",
                                     "rotation_window_h = nan", "stopped_threshold_kn = nan"])
def test_a_window_or_threshold_out_of_range_in_the_config_is_a_usage_error(setting, inputs, tmp_path, capsys):
    # each once ended run in a traceback after decode, or marked nothing stopped
    config = tmp_path / "v.conf"
    config.write_text(setting + "\n")
    decoded = tmp_path / "decoded.jsonl"
    decoded.write_text("")
    for argv in (["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(tmp_path / "out")],
                 ["validate", "--input", str(decoded), "--output", str(tmp_path / "validated.jsonl")]):
        assert cli.main(argv + ["--config", str(config)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad config" in err and setting.split()[0] in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "validated.jsonl").exists()


@pytest.fixture(scope="module")
def pin_inputs(tmp_path_factory):
    """A scenario in which the ensemble with the port reaches the knn vote on a few messages."""
    scenario = synth.mixed_port_scenario(n_vessels=4, days=2, error_p=0.3, seed=4)
    d = tmp_path_factory.mktemp("pin")
    nmea, port = d / "tagged.nmea", d / "port.geojson"
    nmea.write_text("".join(line + "\n" for line in synth.generate(scenario)[0]))
    port.write_text(json.dumps(synth.build_port(scenario.center).geojson()))
    return nmea, port


# sha256 of decoded.jsonl, the same for every method
DECODED_SHA256 = "177d327bd5249213ef65a8b041c79f11c4d9210c516bb8ae7a075180b8a8ee32"

# sha256 of validated.jsonl for each method with and without the port polygons,
# and the vote that must label some of its messages; the ensemble's own vote is
# knn, which only its arbitration between geofence and kinematic reaches
VALIDATED_PINS = [
    ("geofence", True, "geofence", "170c91e094685f423cbcb34c4e27fb41d053867651e76c32a7c62855e8b5e446"),
    ("kinematic", True, "kinematic", "d658c9901fb59acd2bc9902d091125990a415b581d951fcda9226d424458e5d1"),
    ("knn", True, "knn", "1688bee255789671e2dd405fdd7e61ac3755ac9607ec2a0882925a040491ad63"),
    ("ensemble", True, "knn", "1270add6f2dfd9c06632bc4b51d340eb3c74e25d38acb57eae34610bba1a598d"),
    ("kinematic", False, "kinematic", "dccc0556455e429b4937ec91f455330e6a9a4eaa8ba613c1423940933c0e0218"),
    ("knn", False, "knn", "cb0e250ddca9f16f6a151586c1ad32d4ec7976d8d3117c5cb9de71452fa10e1f"),
    ("ensemble", False, "knn", "b59d1cdf6ff72c18d31a410309d9e4d9331ffc6163314cc06e8d5eecf2b2b83e"),
]


@pytest.mark.parametrize("method,with_port,vote,sha256", VALIDATED_PINS,
                         ids=[f"{m}-{'port' if p else 'noport'}-{v}" for m, p, v, _ in VALIDATED_PINS])
def test_validated_bytes_are_pinned_per_method(pin_inputs, tmp_path, method, with_port, vote, sha256):
    nmea, port = pin_inputs
    argv = ["run", "--input", str(nmea), "--outdir", str(tmp_path), "--method", method]
    argv += ["--port", str(port)] if with_port else []
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "decoded.jsonl").read_bytes()).hexdigest() == DECODED_SHA256
    data = (tmp_path / "validated.jsonl").read_bytes()
    assert vote in {json.loads(line)["method"] for line in data.splitlines()}
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("command", ["run", "ingest"])
def test_traced_bench_child_runs(inputs, tmp_path, command):
    """The benchmark's traced run wraps names in the package; a rename must not break it."""
    nmea = str(inputs["tagged.nmea"])
    if command == "run":
        argv = ["run", "--input", nmea, "--outdir", str(tmp_path / "out"), "--port", str(inputs["port.geojson"]),
                "--ground-truth", str(inputs["truth.csv"])]
    else:
        argv = ["ingest", "--source", f"file:{nmea}", "--store", str(tmp_path / "store")]
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(trace), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(span["name"] == f"cli.cmd_{command}" for span in json.loads(trace.read_text())["spans"])


@pytest.mark.parametrize("doc", [[], {"seed": 1, "vessels": [1]},
                                 {"seed": 1, "vessels": [{"mmsi": 1, "visits": [{"arrive": 5}]}]}],
                         ids=["list", "vessel-number", "arrive-number"])
def test_synth_refuses_a_malformed_scenario_file(tmp_path, capsys, doc):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = ["synth", "--scenario", str(scenario), "--out-nmea", str(tmp_path / "out.nmea"),
            "--out-truth", str(tmp_path / "truth.jsonl")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "bad scenario" in capsys.readouterr().err
    assert not (tmp_path / "out.nmea").exists()


@pytest.mark.parametrize("flags,message", [(["--error-p", "2"], "bad scenario: error_p 2.0 outside [0, 1]"),
                                           (["--error-p", "nan"], "bad scenario: error_p nan"),
                                           (["--preset", "ferry", "--error-p", "-1"], "bad scenario: error_p -1.0"),
                                           (["--vessels", "0"], "bad --vessels 0"),
                                           (["--vessels", "-3"], "bad --vessels -3"),
                                           (["--days", "0"], "bad --days 0: not at least 1"),
                                           (["--days", "-3"], "bad --days -3: not at least 1"),
                                           (["--preset", "ferry", "--days", "0"], "bad --days 0: not at least 1")])
def test_synth_refuses_a_bad_preset(tmp_path, capsys, flags, message):
    """Each once exited 1 with an InvalidScenario traceback, or 0 with an empty stream (or, for `--days` below 1
    with the mixed preset, the 1,271 sentences of its fallback visit)."""
    argv = ["synth", *flags, "--out-nmea", str(tmp_path / "out.nmea"), "--out-truth", str(tmp_path / "truth.jsonl")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("center", ["nan,nan", "95,200", "90.5,0", "0,-180.5", "inf,0", "34.45", "34.45,x",
                                    "1,2,3"])
def test_a_center_that_is_not_on_the_globe_is_a_usage_error(tmp_path, capsys, center):
    """`--center nan,nan` and `--center 95,200` once gave an area that held no message, and `run` exited 0 with
    no voyage."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    for argv in (["run", "--input", str(empty), "--outdir", str(out)],
                 ["voyages", "--input", str(empty), "--output", str(out)]):
        assert cli.main(argv + [f"--center={center}"]) == cli.EXIT_USAGE
        assert "bad --center " in capsys.readouterr().err
        assert not out.exists()


def test_a_center_on_the_globe_s_edge_is_taken(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for center in ("90,180", "-90,-180", "0,0"):
        argv = ["voyages", "--input", str(empty), "--output", str(tmp_path / "voyages.jsonl"), f"--center={center}"]
        assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
@pytest.mark.parametrize("command,flag", [("decode", "--max-error-rate"), ("run", "--max-error-rate"),
                                          ("validate", "--min-agreement")])
def test_a_rate_that_is_not_in_0_1_is_a_usage_error(tmp_path, capsys, command, flag, value):
    """A NaN rate once compared false, so its check could never trip."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    out.mkdir()
    argv = {"decode": ["decode", "--input", str(empty), "--output", str(out / "decoded.jsonl")],
            "run": ["run", "--input", str(empty), "--outdir", str(out / "run")],
            "validate": ["validate", "--input", str(empty), "--output", str(out / "validated.jsonl")]}[command]
    assert cli.main(argv + [f"{flag}={value}"]) == cli.EXIT_USAGE
    assert f"bad {flag} {float(value)!r}: not a number in [0, 1]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("speed", ["nan", "inf", "-1"])
def test_a_replay_speed_that_is_not_a_finite_number_at_least_0_is_a_usage_error(tmp_path, capsys, speed):
    """`--replay-speed nan` once turned pacing off without a word."""
    nmea = tmp_path / "empty.nmea"
    nmea.write_text("")
    store = tmp_path / "store"
    argv = ["ingest", "--source", f"file:{nmea}", "--store", str(store), f"--replay-speed={speed}"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"bad --replay-speed {float(speed)!r}: not a finite number >= 0" in capsys.readouterr().err
    assert not store.exists()
    with pytest.raises(ValueError, match="replay_speed"):
        ingest.SourceConfig(mode="replay", path=nmea, replay_speed=float(speed))
