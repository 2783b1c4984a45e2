"""End-to-end tests of the command line: `run` against the staged commands."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from portcall import cli, synth

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
        cli.main(["voyages", "--input", d["validated.jsonl"], "--output", d["voyages.jsonl"],
                  "--outages", d["outages.jsonl"]]),
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
