"""End-to-end tests of the command line: `run` against the staged commands."""

import dataclasses
import datetime as dt
import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from portcall import cli, synth, validate
from portcall.codec import PositionReport

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
                                  for vm in validate.validate_stream(reports, outages=outages)))
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
           '{"mmsi":"abc","ship_type":70,"type":"static"}', '{"mmsi":2,"ship_type":"70","type":"static"}']
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


def test_bad_metrics_inputs_are_usage_errors(tmp_path, capsys):
    empty, voyages, static = tmp_path / "empty.jsonl", tmp_path / "voyages.jsonl", tmp_path / "static.jsonl"
    empty.write_text("")
    voyages.write_text('{"mmsi":1}\n')
    for voyages_in, static_text, message in ((voyages, None, "bad voyage in"),
                                             (empty, '{"type":"static","ship_type":70}\n', "bad static message in"),
                                             (empty, "not json\n", "bad static message in")):
        argv = ["metrics", "--voyages", str(voyages_in), "--output-dir", str(tmp_path / "metrics")]
        if static_text:
            static.write_text(static_text)
            argv += ["--static", str(static)]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


def test_missing_input_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["run", "--input", str(tmp_path / "absent.nmea"), "--outdir", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert "does not exist" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_knn_k_zero_in_the_config_is_a_usage_error(inputs, tmp_path, capsys):
    config = tmp_path / "v.conf"
    config.write_text("method = knn\nknn_k = 0\n")
    rc = cli.main(["run", "--input", str(inputs["tagged.nmea"]), "--outdir", str(tmp_path / "out"),
                   "--config", str(config)])
    assert rc == cli.EXIT_USAGE
    assert "knn_k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def pin_inputs(tmp_path_factory):
    """A scenario in which the ensemble with the port reaches the knn vote on a few messages."""
    scenario = synth.mixed_port_scenario(n_vessels=4, days=2, error_p=0.3, seed=4)
    d = tmp_path_factory.mktemp("pin")
    nmea, port = d / "tagged.nmea", d / "port.geojson"
    nmea.write_text("".join(line + "\n" for line in synth.generate(scenario)[0]))
    port.write_text(json.dumps(synth.build_port(scenario.center).geojson()))
    return nmea, port


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


@pytest.mark.parametrize("method,with_port,vote,sha256", VALIDATED_PINS)
def test_validated_bytes_are_pinned_per_method(pin_inputs, tmp_path, method, with_port, vote, sha256):
    nmea, port = pin_inputs
    argv = ["run", "--input", str(nmea), "--outdir", str(tmp_path), "--method", method]
    argv += ["--port", str(port)] if with_port else []
    assert cli.main(argv) == cli.EXIT_OK
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
