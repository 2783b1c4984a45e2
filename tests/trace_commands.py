"""Runs every portcall command in this process and records each function it enters.

    python tests/trace_commands.py <workdir> <out.json>

The profile hooks go in before the package is imported, for this thread and
every thread started after, so module-level code and the live feed's
threads count too. This thread's hook is cProfile's, written in C: a signal
handler, which runs in this thread at whatever point the signal reaches the
interpreter, then never runs inside a hook written in Python, where no call
is reported. `out.json` gets the file and first line of the code object of
every Python function entered: for a decorated def, the line of its first
decorator. The inputs are small, a few vessels over two days, so the whole
run takes seconds under the hooks.
"""

import cProfile
import json
import os
import pathlib
import signal
import socket
import sys
import threading

entered: dict[int, object] = {}  # id -> code object, held so the id cannot be reused


def _profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code


main_profile = cProfile.Profile()
main_profile.enable()
threading.setprofile(_profile)

import oracles  # noqa: E402
from portcall import cli  # noqa: E402  imported under the hooks


def run(*argv) -> None:
    """cli.main on argv, which must succeed."""
    rc = cli.main([str(a) for a in argv])
    if rc != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {rc}")


def faulted(lines: list[str]) -> list[str]:
    """The lines with faults the block pass leaves to the line parser: bad checksums behind a TAG block and on a
    bare line, a position from another talker, type 5 fragments split by another line, garbage, and a fragment 1
    that never gets its fragment 2."""
    single = [k for k, line in enumerate(lines) if "!AIVDM,1,1," in line]
    first = next(k for k, line in enumerate(lines) if "!AIVDM,2,1," in line)
    out = list(lines)
    flip = {"0": "1"}
    for k in single[:3]:
        out[k] = out[k][:-1] + flip.get(out[k][-1], "0")  # tagged, bad checksum
    bare = out[single[3]].rsplit("\\", 1)[-1]
    out[single[3]] = bare[:-1] + flip.get(bare[-1], "0")  # bare, bad checksum
    tag, _, sentence = out[single[4]].rpartition("\\")
    body = "BS" + sentence[3:-3]  # !BSVDM,...: a position the line parser decodes
    out[single[4]] = f"{tag}\\!{body}*{oracles.xor_checksum(body):02X}"
    out.insert(first + 1, lines[first + 2])  # the position after a type 5 pair, also between its fragments
    out += ["garbage", lines[first]]  # and a fragment 1 whose fragment 2 never comes
    return out


def serve(lines: list[str], ready: threading.Event, port: list[int]) -> None:
    """A loopback feed: sends the lines to the first client, then stops this process with a SIGINT."""
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port.append(server.getsockname()[1])
        ready.set()
        conn, _ = server.accept()
        with conn:
            conn.sendall("".join(line + "\r\n" for line in lines).encode())
            conn.sendall(b"!AIVDM,1,1,,A,cut off")  # a partial line lost at disconnect
            threading.Event().wait(0.3)
            os.kill(os.getpid(), signal.SIGINT)


def live(lines: list[str], store: pathlib.Path) -> None:
    ready, port = threading.Event(), []
    server = threading.Thread(target=serve, args=(lines, ready, port))
    server.start()
    ready.wait(10)
    run("ingest", "--source", f"tcp://127.0.0.1:{port[0]}", "--store", store)
    server.join(10)


def main(work: pathlib.Path, out: pathlib.Path) -> None:
    nmea, truth, port = work / "input.nmea", work / "truth.jsonl", work / "port.geojson"
    run("synth", "--vessels", 3, "--days", 2, "--seed", 5, "--out-nmea", nmea, "--out-truth", truth,
        "--out-port", port)
    run("synth", "--preset", "ferry", "--days", 2, "--out-nmea", work / "ferry.nmea", "--out-truth",
        work / "ferry.truth.jsonl")
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 3, "error_p": 0.2,
        "vessels": [{"mmsi": 219000001, "visits": [{"arrive": "2019-09-01T02:00:00Z", "anchor_h": 4.0}]},
                    {"mmsi": 219000002, "visits": [{"arrive": "2019-09-01T05:00:00Z", "moor_h": 6.0}]}],
        "outages": [{"scope": "global", "start": "2019-09-01T03:00:00Z", "end": "2019-09-01T03:40:00Z"},
                    {"scope": "vessel", "mmsi": 219000002, "start": "2019-09-01T09:00:00Z",
                     "end": "2019-09-01T11:00:00Z"}],
    }))
    run("synth", "--scenario", scenario, "--out-nmea", work / "outages.nmea", "--out-truth",
        work / "outages.truth.jsonl")

    daily, events = work / "daily.csv", work / "events.csv"
    daily.write_text("date,category,arrivals\n2019-09-01,cargo,2\n2019-09-02,tanker,1\n")
    events.write_text("timestamp,mmsi,category\n2019-09-01T03:00:00Z,219000001,cargo\n"
                      "2019-09-02T04:00:00Z,219000003,tanker\n")
    config = work / "validate.conf"
    config.write_text("# a smaller neighbourhood for a small input\nknn_k = 5\n")
    lat, lon = 34.45, 18.30  # the port's default centre
    area = work / "area.geojson"
    ring = [[lon - 0.1, lat - 0.1], [lon + 0.1, lat - 0.1], [lon + 0.1, lat + 0.1], [lon - 0.1, lat + 0.1]]
    area.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"name": "port"},
        "geometry": {"type": "Polygon", "coordinates": [ring + ring[:1]]}}]}))

    run("run", "--input", nmea, "--outdir", work / "ensemble", "--port", port, "--ground-truth", daily,
        "--exclude-dates", "2019-09-02", "--vessel", 219000001)
    run("run", "--input", nmea, "--outdir", work / "geofence", "--method", "geofence", "--port", port,
        "--area", area, "--ground-truth", events)
    run("run", "--input", work / "outages.nmea", "--outdir", work / "knn", "--method", "knn", "--config", config)
    run("run", "--input", nmea, "--outdir", work / "kinematic", "--method", "kinematic", "--center", "34.45,18.30",
        "--radius-m", 3000)

    staged = work / "staged"
    staged.mkdir()
    decoded, validated, voyages = staged / "decoded.jsonl", staged / "validated.jsonl", staged / "voyages.jsonl"
    run("decode", "--input", nmea, "--output", decoded, "--errors", staged / "errors.jsonl")
    run("validate", "--input", decoded, "--output", validated, "--port", port)
    run("voyages", "--input", validated, "--output", voyages)
    run("metrics", "--voyages", voyages, "--output-dir", staged / "metrics", "--static", decoded, "--port", port)

    empty = work / "empty.nmea"
    empty.write_text("")
    run("run", "--input", empty, "--outdir", work / "empty")

    lines = nmea.read_text().splitlines()
    stored = decoded.read_text().splitlines()
    untagged = work / "untagged.nmea"
    untagged.write_text("".join(line.rsplit("\\", 1)[-1] + "\n" for line in faulted(lines)))
    replay = work / "replay.nmea"
    replay.write_text("\n".join(faulted(lines[:400]) + stored[:50] + [stored[60][:40], "", "{}"] + lines[400:])
                      + "\n")
    for source in (untagged, replay):
        run("decode", "--input", source, "--output", work / f"{source.stem}.jsonl")
        run("ingest", "--source", f"file:{source}", "--store", work / f"{source.stem}-store")
    paced = work / "paced.jsonl"
    paced.write_text("\n".join(stored[:20]) + "\n")
    run("ingest", "--source", f"file:{paced}", "--store", work / "paced-store", "--replay-speed", 1e6)
    live(faulted(lines[:200]), work / "live-store")

    main_profile.disable()
    threading.setprofile(None)
    codes = [*entered.values(), *(stat.code for stat in main_profile.getstats() if not isinstance(stat.code, str))]
    codes = [code for code in codes if code.co_filename.startswith(str(pathlib.Path(cli.__file__).parent))]
    out.write_text(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in codes})))


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]))
