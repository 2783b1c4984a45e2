import dataclasses
import datetime as dt
import json
import os
import pathlib
import random
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_run, decode_all, each_report, message_of, messages
from oracles import StaticReport, message_from_dict, message_to_dict
from portcall import cli, codec, ingest, jsonl, synth
from portcall.codec import MessageDecoder, PositionReport
from portcall.jsonl import dumps

ROOT = pathlib.Path(__file__).resolve().parent.parent
UTC = dt.timezone.utc
T0 = dt.datetime(2019, 9, 1, tzinfo=UTC)


@pytest.fixture(scope="module")
def nmea_fixture():
    scenario = synth.mixed_port_scenario(n_vessels=4, days=1, error_p=0.1, seed=41)
    lines, _ = synth.generate(scenario)
    return lines


class TestSourceConfig:
    def test_parse_tcp(self):
        cfg = ingest.SourceConfig.parse_source("tcp://feed.example:4001")
        assert cfg.mode == "live"
        assert cfg.endpoint == ("feed.example", 4001)

    def test_parse_file(self, tmp_path):
        cfg = ingest.SourceConfig.parse_source(f"file:{tmp_path}/x.nmea")
        assert cfg.mode == "replay"
        assert cfg.path.name == "x.nmea"

    def test_bare_path_is_replay(self):
        assert ingest.SourceConfig.parse_source("data.nmea").mode == "replay"

    def test_bad_tcp(self):
        with pytest.raises(ValueError):
            ingest.SourceConfig.parse_source("tcp://nohost")

    @pytest.mark.parametrize("port", [1, 65535])
    def test_tcp_port_range_edges(self, port):
        assert ingest.SourceConfig.parse_source(f"tcp://127.0.0.1:{port}").endpoint == ("127.0.0.1", port)

    @pytest.mark.parametrize("port", ["0", "65536", "70000"])
    def test_tcp_port_out_of_range_is_a_usage_error(self, port, tmp_path, capsys):
        """Once a port past 65535 was accepted, and ingest retried its connection until stopped."""
        with pytest.raises(ValueError, match="1-65535"):
            ingest.SourceConfig.parse_source(f"tcp://127.0.0.1:{port}")
        store = tmp_path / "store"
        assert cli.main(["ingest", "--source", f"tcp://127.0.0.1:{port}", "--store", str(store)]) == cli.EXIT_USAGE
        assert "1-65535" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("source, endpoint", [("tcp://[::1]:5000", ("::1", 5000)),
                                                  ("tcp://[2001:db8::7]:4001", ("2001:db8::7", 4001)),
                                                  ("tcp://::1:5000", ("::1", 5000))])
    def test_ipv6_host_is_the_address_without_brackets(self, source, endpoint):
        """A bracketed IPv6 host was kept with its brackets, which getaddrinfo cannot resolve."""
        assert ingest.SourceConfig.parse_source(source).endpoint == endpoint

    @pytest.mark.parametrize("source", ["tcp://[::1:5000", "tcp://::1]:5000", "tcp://[::1]", "tcp://[]:5000",
                                        "tcp://[[::1]]:5000", "tcp://[::1]x:5000"])
    def test_unbalanced_or_empty_brackets_are_a_usage_error(self, source, tmp_path, capsys):
        with pytest.raises(ValueError, match="brackets"):
            ingest.SourceConfig.parse_source(source)
        store = tmp_path / "store"
        assert cli.main(["ingest", "--source", source, "--store", str(store)]) == cli.EXIT_USAGE
        assert "brackets" in capsys.readouterr().err
        assert not store.exists()

    def test_mode_consistency(self):
        with pytest.raises(ValueError):
            ingest.SourceConfig(mode="live")
        with pytest.raises(ValueError):
            ingest.SourceConfig(mode="replay")


class TestReplay:
    def test_replay_nmea_file(self, tmp_path, nmea_fixture):
        path = tmp_path / "fix.nmea"
        path.write_text("\n".join(nmea_fixture) + "\n")
        got = []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append))
        positions, statics, errors = decode_all(nmea_fixture)
        assert summary.lines == len(nmea_fixture)
        assert summary.messages == len(positions) + len(statics)
        assert summary.errors == 0
        assert [m for m in got if isinstance(m, PositionReport)] == positions

    @pytest.mark.parametrize("stored", [False, True], ids=["nmea", "stored"])
    def test_a_byte_order_mark_changes_nothing(self, tmp_path, nmea_fixture, stored):
        """A file saved with a UTF-8 byte-order mark replays as the same file without one: bare lines, whose
        first one starts a type 5 pair, or stored lines."""
        bare = [line[line.index("\\", 1) + 1 :] for line in nmea_fixture]
        k = next(k for k, line in enumerate(bare) if line.startswith("!AIVDM,2,1,"))
        lines = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture[:60])] if stored else bare[k : k + 60]
        got = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(mark + "\n".join(lines).encode() + b"\n")
            runs, errors = [], []
            summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                                        lambda run, text: runs.append(text), error_sink=errors.append, raw_start=T0)
            got.append((runs, errors, dataclasses.asdict(summary)))
        assert got[0] == got[1]
        assert got[0][0] and not got[0][1]

    def test_missing_file(self, tmp_path):
        cfg = ingest.SourceConfig(mode="replay", path=tmp_path / "nope.nmea")
        with pytest.raises(FileNotFoundError):
            ingest.run_replay(cfg, lambda run, lines: None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nmea"
        path.write_text("")
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), lambda run, lines: None)
        assert summary.lines == 0
        assert summary.messages == 0

    def test_corrupt_lines_counted_not_fatal(self, tmp_path, nmea_fixture):
        path = tmp_path / "mixed.nmea"
        path.write_text(nmea_fixture[0] + "\ngarbage line\n" + nmea_fixture[1] + "\n")
        errors = []
        summary = ingest.run_replay(
            ingest.SourceConfig(mode="replay", path=path), lambda run, lines: None, error_sink=errors.append,
        )
        assert summary.errors == 1
        assert errors[0].raw == "garbage line"

    def test_untagged_lines_get_synthetic_cadence(self, tmp_path):
        lines = [
            oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=100,
                                      lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0)
            for _ in range(3)
        ]
        path = tmp_path / "raw.nmea"
        path.write_text("\n".join(lines) + "\n")
        got = []
        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append), raw_start=T0,
                          raw_cadence_s=2.0)
        assert [m.timestamp for m in got] == [T0, T0 + dt.timedelta(seconds=2), T0 + dt.timedelta(seconds=4)]

    @pytest.mark.parametrize("stored", [False, True], ids=["nmea", "stored"])
    def test_replay_speed_paces_by_message_time(self, tmp_path, stored):
        lines = [oracles.tag_block(
            oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=100,
                                      lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0),
            int(T0.timestamp()) + 10 * i) for i in range(4)]
        if stored:
            lines = [dumps(message_to_dict(m)) for m in decode_direct(lines)]
        path = tmp_path / "paced.nmea"
        path.write_text("\n".join(lines) + "\n")
        events = []

        def sink(msg):
            events.append(msg.timestamp)

        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path, replay_speed=5.0), each_report(sink),
                          sleep=lambda s: events.append(s))
        # 10 s gaps at 5x speed, and each message reaches the sink right after its pause
        t = [T0 + dt.timedelta(seconds=10 * i) for i in range(4)]
        assert events == [t[0], pytest.approx(2.0), t[1], pytest.approx(2.0), t[2], pytest.approx(2.0), t[3]]

    def test_a_message_without_a_time_neither_pauses_nor_moves_the_pacing_clock(self, tmp_path):
        position = PositionReport(mmsi=1, timestamp=T0, lat=0.0, lon=0.0, sog=1.0, cog=None, heading=None, navstat=0,
                                  rot=None)
        lines = [dumps(message_to_dict(position)),
                 '{"length":null,"mmsi":2,"name":"NO TIME","ship_type":70,"ts":null,"type":"static","width":null}',
                 dumps(message_to_dict(dataclasses.replace(position, timestamp=T0 + dt.timedelta(seconds=10))))]
        path = tmp_path / "paced.jsonl"
        path.write_text("\n".join(lines) + "\n")
        events = []
        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path, replay_speed=5.0),
                          lambda run, text: events.append(text), sleep=events.append)
        # written by the Statics writer: its null time as the 1970-01-01 it is held and filed as
        no_time = lines[1].replace('"ts":null', '"ts":"1970-01-01T00:00:00Z"')
        assert events == [jsonl_of([lines[0]]), jsonl_of([no_time]), pytest.approx(2.0), jsonl_of([lines[2]])]


def jsonl_of(lines) -> bytes:
    """Lines as a sink receives them: one bytes, each line followed by a newline."""
    return "".join(line + "\n" for line in lines).encode()


def stored_outcome(line: str) -> codec.DecodeOutcome:
    """A stored JSONL message as the outcome the decoder gives a sentence; one that does not parse is malformed: the
    per-line reference of what run_replay makes of a stored line."""
    try:
        msg = message_from_dict(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return codec.DecodeOutcome("error", error="malformed", detail=str(exc), raw=line)
    return codec.DecodeOutcome("position" if isinstance(msg, PositionReport) else "static", run=oracles.run_of([msg]))


class TestMessageRuns:
    """Messages that are not block rows, such as stored lines, reach the sink gathered into runs."""

    @staticmethod
    def _stored(tmp_path, nmea_fixture, n):
        lines = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture)[:n]]
        path = tmp_path / "stored.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path, lines

    def test_stored_lines_reach_the_sink_in_runs(self, tmp_path, nmea_fixture, monkeypatch):
        monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 7)
        path, lines = self._stored(tmp_path, nmea_fixture, 25)
        calls, got = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                                    lambda run, text: calls.append(text) or each_report(got.append)(run, text))
        assert len(calls) <= -(-len(lines) // 7)
        assert b"".join(calls) == jsonl_of(lines)
        assert got == [message_of(stored_outcome(line)) for line in lines]
        assert summary.messages == len(lines)

    def test_bad_stored_lines_among_good_ones_are_one_error_each(self, tmp_path, nmea_fixture):
        """A stored block with bad lines among good ones: each bad line is one malformed error with the detail the
        dict codec gave it, and every good line reaches the sink in line order in one call, written as the staged
        decode writes it."""
        good = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture)[:120]]
        assert sum('"type":"static"' in line for line in good) >= 2
        position = json.loads(next(line for line in good if '"type":"position"' in line))
        bad = {
            json.dumps({**position, "type": "voyage"}): "unknown message type 'voyage'",
            json.dumps({k: v for k, v in position.items() if k != "type"}): "unknown message type None",
            json.dumps({**position, "type": ["position"]}): "unknown message type ['position']",
            json.dumps({k: v for k, v in position.items() if k != "mmsi"}): "mmsi is missing",
            json.dumps({**position, "navstat": "5"}): "navstat '5' is not an integer",
            '{"type":"position"} {}': "Extra data: line 1 column 21 (char 20)",
            json.dumps({**position, "lat": 95.0}): "lat 95.0 is not a number in [-90, 90]",
        }
        bad_lines = list(bad)
        lines = [text for k, line in enumerate(good) for text in (line, *bad_lines[k:k + 1])]  # one after each of 7
        path = tmp_path / "stored.jsonl"
        path.write_text("\n".join(lines) + "\n")
        calls, errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                                    lambda run, text: calls.append((messages(run), text)), error_sink=errors.append)
        assert calls == [([message_from_dict(json.loads(line)) for line in good], jsonl_of(good))]
        assert [(e.error, e.detail, e.raw) for e in errors] == [("malformed", detail, line)
                                                                for line, detail in bad.items()]
        assert [(e.error, e.detail) for e in errors] == [(o.error, o.detail) for o in map(stored_outcome, bad)]
        assert (summary.lines, summary.messages, summary.errors) == (len(lines), len(good), len(bad))
        decoded = tmp_path / "decoded.jsonl"
        assert cli.main(["decode", "--input", str(path), "--output", str(decoded)]) == cli.EXIT_OK
        assert decoded.read_text() == "".join(line + "\n" for line in good)
        assert [json.loads(line)["detail"] for line in decoded.with_suffix(".errors.jsonl").read_text().splitlines()] \
            == list(bad.values())

    def test_a_block_reaches_the_sink_in_one_call(self, tmp_path):
        """A position and a static the line parser decodes between a block's rows, and an error among them, once
        split the block's messages into several sink calls; now the block is one run in per-line order, each row
        with its stored document, and the error goes to error_sink."""
        positions = [oracles.position_sentence(mmsi=k, navstat=0, rot_raw=0, sog_raw=100, lon_raw=0, lat_raw=0,
                                               cog_raw=0, heading_raw=0) for k in range(1, 6)]
        pair = oracles.static_sentences(message_id=3, mmsi=7, name="PARSED", ship_type=70, to_bow=60, to_stern=60,
                                        to_port=10, to_starboard=10)
        lines = [positions[0], positions[1] + " ", positions[2], "garbage line", pair[0] + " ", pair[1],
                 *positions[3:], *oracles.static_sentences(message_id=4, mmsi=8, name="ROW", ship_type=60,
                                                           to_bow=50, to_stern=50, to_port=8, to_starboard=8)]
        path = tmp_path / "mixed.nmea"
        path.write_text("\n".join(lines) + "\n")
        calls, errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                                    lambda run, text: calls.append((messages(run), text)),
                                    error_sink=errors.append, raw_start=T0)
        expected = decode_direct_at(lines, T0)
        assert [type(m).__name__ for m in expected] == ["PositionReport"] * 3 + ["StaticReport"] + \
            ["PositionReport"] * 2 + ["StaticReport"]
        assert calls == [(expected, jsonl_of(dumps(message_to_dict(m)) for m in expected))]
        assert [(e.error, e.raw) for e in errors] == [("malformed", "garbage line")]
        assert (summary.lines, summary.messages, summary.errors, summary.skipped) == (len(lines), 7, 1, 0)

    def test_a_failing_read_still_delivers_the_stored_lines_before_it(self, tmp_path, nmea_fixture, monkeypatch):
        path, lines = self._stored(tmp_path, nmea_fixture, 30)

        class FailingFile:
            """The file, opened for binary reads, whose read fails after the bytes of its first 12 lines."""

            def __init__(self, *args, **kwargs):
                self.f = open(*args, **kwargs)
                self.left = len(jsonl_of(lines[:12]))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def read(self, size):
                if not self.left:
                    raise OSError("read failed")
                data = self.f.read(min(size, self.left))
                self.left -= len(data)
                return data

        monkeypatch.setattr(ingest, "open", FailingFile, raising=False)
        got = []
        with pytest.raises(OSError, match="read failed"):
            ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                              lambda run, text: got.extend(text.decode().splitlines()))
        assert got == lines[:12]


def read_store(root) -> list:
    """Every message in a store, read back the way `portcall decode` reads stored JSONL."""
    got = []
    for path in sorted(pathlib.Path(root).glob("ais-*.jsonl")):
        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append))
    return got


def decode_direct(lines) -> list:
    dec = MessageDecoder()
    return [message_of(o) for line in lines for o in dec.feed(line, T0) if o.kind in ("position", "static")]


class TestStore:
    def test_roundtrip_equals_direct_decode(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)
        with ingest.MessageStore(tmp_path / "store") as store:
            store.append(*as_run(direct))
        assert read_store(tmp_path / "store") == direct

    def test_partitioned_by_date(self, tmp_path):
        store = ingest.MessageStore(tmp_path / "s")
        store.append(*as_run(PositionReport(mmsi=1, timestamp=dt.datetime(2019, 9, day, tzinfo=UTC), lat=0.0, lon=0.0,
                                            sog=0.0, cog=None, heading=None, navstat=0, rot=0) for day in (1, 1, 2)))
        store.close()
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["ais-2019-09-01.jsonl", "ais-2019-09-02.jsonl"]

    def test_replay_of_store_preserves_messages(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)
        with ingest.MessageStore(tmp_path / "s") as store:
            store.append(*as_run(direct))
        got = []
        for path in sorted((tmp_path / "s").glob("ais-*.jsonl")):
            part = []
            ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(part.append))
            assert {f"ais-{m.timestamp:%Y-%m-%d}.jsonl" for m in part} == {path.name}
            got += part
        assert got == direct

    def test_keeps_at_most_open_days_files_open(self, tmp_path, monkeypatch):
        """Past _OPEN_DAYS day files, a day not open closes the file opened longest ago; reopened, it appends."""
        monkeypatch.setattr(ingest, "_OPEN_DAYS", 2)
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(ingest, "open", tracked_open, raising=False)
        days = [1, 2, 3, 1, 3, 2, 4, 1]
        reports = [PositionReport(mmsi=k, timestamp=dt.datetime(2019, 9, day, tzinfo=UTC), lat=0.0, lon=0.0,
                                  sog=0.0, cog=None, heading=None, navstat=0, rot=None) for k, day in enumerate(days)]
        with ingest.MessageStore(tmp_path / "s") as store:
            for r in reports:
                store.append(*as_run([r]))
                assert sum(not f.closed for f in handles) <= 2
            store.append(*as_run(reports))  # one run that goes back and forth between days
            assert sum(not f.closed for f in handles) <= 2
        assert len(handles) > 4 and all(f.closed for f in handles)
        expected = {}
        for r in reports + reports:
            name = f"ais-{r.timestamp.date().isoformat()}.jsonl"
            expected[name] = expected.get(name, "") + dumps(message_to_dict(r)) + "\n"
        assert {p.name: p.read_text() for p in (tmp_path / "s").iterdir()} == expected

    def test_torn_last_line_is_one_malformed_error(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)[:50]
        with ingest.MessageStore(tmp_path / "s") as store:
            store.append(*as_run(direct))
        (path,) = (tmp_path / "s").glob("ais-*.jsonl")
        whole = path.read_text()
        path.write_text(whole + whole.splitlines()[0][:40])  # a crash mid-append
        got, errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append),
                                    error_sink=errors.append)
        assert got == direct
        assert (summary.lines, summary.messages, summary.errors) == (51, 50, 1)
        assert [e.error for e in errors] == ["malformed"]


class _LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True


def _blob(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _serve(blob: bytes, chunk=64):
    """TCP server pushing the blob on each connection, `chunk` bytes at a time, and closing."""

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            for i in range(0, len(blob), chunk):
                self.request.sendall(blob[i : i + chunk])
            self.request.shutdown(socket.SHUT_WR)

    server = _LineServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)  # shutdown() waits one poll
    thread.start()
    return server, thread


class TestLive:
    def test_fixture_over_loopback(self, nmea_fixture):
        lines = nmea_fixture[:2000]
        server, thread = _serve(_blob(lines), chunk=1024)
        try:
            positions, statics, _ = decode_all(lines)
            expected = len(positions) + len(statics)
            got = []
            stop = threading.Event()

            def sink(msg):
                got.append(msg)
                if len(got) >= expected:
                    stop.set()

            cfg = ingest.SourceConfig(
                mode="live", endpoint=server.server_address,
                reconnect_initial_s=0.05, reconnect_max_s=0.1,
            )
            summary = ingest.run_live(cfg, each_report(sink), stop, rng=random.Random(1))
            assert summary.messages >= expected
            assert [m for m in got if isinstance(m, PositionReport)][: len(positions)] == positions
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_partial_line_at_disconnect_counted(self, nmea_fixture):
        lines = nmea_fixture[:50]
        server, thread = _serve(_blob(lines) + b"!AIVDM,1,1,,A,truncated")  # no newline, then close
        try:
            got = []
            stop = threading.Event()
            positions, statics, _ = decode_all(lines)
            expected = len(positions) + len(statics)

            def sink(msg):
                got.append(msg)
                if len(got) >= expected:
                    threading.Timer(0.3, stop.set).start()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.05, reconnect_max_s=0.1)
            summary = ingest.run_live(cfg, each_report(sink), stop, rng=random.Random(1))
            assert summary.errors >= 1  # the truncated tail
            assert len(got) >= expected
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_an_over_long_line_is_dropped_to_its_newline_and_counted(self, nmea_fixture):
        """A peer that sends no newline once grew the partial line without bound; past _MAX_PARTIAL bytes it is now
        dropped, with what follows up to its newline, and counted as one error, and the lines after it decode."""
        lines = nmea_fixture[:50]
        over_long = b"!AIVDM," + b"x" * (ingest._MAX_PARTIAL + 300_000) + b"\n"
        server, thread = _serve(over_long + _blob(lines), chunk=8192)
        try:
            got, errors = [], []
            stop = threading.Event()
            positions, statics, decode_errors = decode_all(lines)
            expected = len(positions) + len(statics)

            def sink(msg):
                got.append(msg)
                if len(got) >= expected:
                    stop.set()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.05, reconnect_max_s=0.1)
            summary = ingest.run_live(cfg, each_report(sink), stop, error_sink=errors.append, rng=random.Random(1))
            assert [m for m in got if isinstance(m, PositionReport)] == positions
            assert summary.errors == len(decode_errors) + 1
            assert [e.raw for e in errors] == [e.raw for e in decode_errors]
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_lines_ended_by_a_bare_carriage_return_are_delivered(self, nmea_fixture):
        """A feed whose lines end in a bare \\r, as a replayed file's may, delivers each line; a feed once split only
        at \\n and held the whole feed as one partial line."""
        lines = nmea_fixture[:200]
        server, thread = _serve("".join(line + "\r" for line in lines).encode(), chunk=1024)
        try:
            got, errors = [], []
            stop = threading.Event()
            positions, statics, decode_errors = decode_all(lines)
            expected = len(positions) + len(statics)
            timer = threading.Timer(10.0, stop.set)  # a feed that delivers nothing fails rather than hangs
            timer.start()

            def sink(msg):
                got.append(msg)
                if len(got) >= expected:
                    stop.set()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.05, reconnect_max_s=0.1)
            summary = ingest.run_live(cfg, each_report(sink), stop, error_sink=errors.append, rng=random.Random(1))
            timer.cancel()
            assert [m for m in got if isinstance(m, PositionReport)][: len(positions)] == positions
            assert summary.lines >= len(lines)
            assert not decode_errors and not errors
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_a_crlf_split_between_reads_gives_each_line_once(self, nmea_fixture, monkeypatch):
        """Every read ends between a line's \\r and its \\n: each line is delivered once, and the \\n that starts
        the next read ends no line of its own."""
        lines = nmea_fixture[:60]
        reads = [("\n" if k else "") + line + "\r" for k, line in enumerate(lines)] + ["\n"]
        stop = threading.Event()

        class Feed:
            def settimeout(self, timeout):
                pass

            def recv(self, size):
                if reads:
                    return reads.pop(0).encode()
                stop.set()
                return b""

            def close(self):
                pass

        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: Feed())
        got, errors = [], []
        cfg = ingest.SourceConfig(mode="live", endpoint=("127.0.0.1", 1))
        summary = ingest.run_live(cfg, each_report(got.append), stop, error_sink=errors.append, rng=random.Random(1))
        positions, statics, decode_errors = decode_all(lines)
        assert [m for m in got if isinstance(m, PositionReport)] == positions
        assert len(got) == len(positions) + len(statics)
        assert (summary.lines, summary.errors, errors, decode_errors) == (len(lines), 0, [], [])

    def test_reconnect_records_gap(self, nmea_fixture):
        lines = nmea_fixture[:20]
        server, thread = _serve(_blob(lines))
        try:
            stop = threading.Event()
            seen = {"n": 0}

            def sink(msg):
                seen["n"] += 1
                if seen["n"] >= 30:  # needs a second connection to get here
                    stop.set()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.01, reconnect_max_s=0.05)
            summary = ingest.run_live(cfg, each_report(sink), stop, rng=random.Random(2))
            assert summary.connection_gaps  # at least one disconnect/reconnect cycle
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_feed_that_accepts_and_closes_is_retried_on_the_backoff_schedule(self):
        """Every disconnect waits its full-jitter draw, and a connection that delivers no line keeps the backoff
        doubling, so connections in a window are bounded by the schedule, not by how fast loopback accepts."""
        accepted = []

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                accepted.append(time.monotonic())  # then return, which closes the connection

        server = _LineServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address, reconnect_initial_s=0.01,
                                  reconnect_max_s=0.08)
        stop = threading.Event()
        timer = threading.Timer(0.5, stop.set)
        try:
            start = time.monotonic()
            timer.start()
            summary = ingest.run_live(cfg, lambda run, lines: None, stop,
                                      rng=random.Random(4))
            elapsed = time.monotonic() - start
        finally:
            timer.cancel()
            server.shutdown()
            server.server_close()
            thread.join()
        # connection k + 1 comes after k waits, drawn from the same seeded schedule
        schedule, backoff, waited, bound = random.Random(4), cfg.reconnect_initial_s, 0.0, 1
        while True:
            waited += schedule.uniform(0.0, backoff)
            backoff = min(backoff * 2.0, cfg.reconnect_max_s)
            if waited > elapsed:
                break
            bound += 1
        assert bound < 30  # a spin makes thousands in the same window
        assert 2 <= len(accepted) <= bound
        assert len(summary.connection_gaps) <= bound - 1

    def test_live_delivers_what_replay_delivers(self, tmp_path, nmea_fixture):
        """The same bytes served in small chunks reach the sinks as replaying them from a file does."""
        rows = [line.encode() for line in nmea_fixture[:300]]
        rows[50] = rows[50][:30] + b"\xff" + rows[50][30:]  # not UTF-8
        rows[120] = rows[120][:40]  # torn position line
        rows[200] += b"\r" + rows.pop(201)  # a lone carriage return ends a line too
        last = int(rows[-1][3:13])  # the TAG time of the last fixture line
        rows.append(oracles.tag_block(oracles.position_sentence(
            mmsi=999999999, navstat=0, rot_raw=0, sog_raw=0, lon_raw=0, lat_raw=0, cog_raw=0, heading_raw=0),
            last + 1).encode())
        blob = b"\n".join(rows) + b"\n"
        path = tmp_path / "same.nmea"
        path.write_bytes(blob)
        replayed, replay_errors = [], []
        replay = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(replayed.append),
                                   error_sink=replay_errors.append)
        assert {"\ufffd" in e.raw for e in replay_errors if e.error == "malformed"} == {True, False}

        server, thread = _serve(blob, chunk=37)
        stop = threading.Event()
        guard = threading.Timer(30.0, stop.set)  # a run that never sees the last line fails, not hangs
        try:
            got, errors = [], []

            def sink(msg):
                got.append(msg)
                if msg.mmsi == 999999999:
                    stop.set()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.05, reconnect_max_s=0.1)
            guard.start()
            live = ingest.run_live(cfg, each_report(sink), stop, error_sink=errors.append,
                                   rng=random.Random(3))
        finally:
            guard.cancel()
            server.shutdown()
            server.server_close()
            thread.join()
        assert got == replayed
        assert errors == replay_errors
        assert (live.lines, live.messages, live.errors) == (replay.lines, replay.messages, replay.errors)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_stops_a_live_ingest_cleanly(tmp_path, sig):
    """A live ingest once died on SIGTERM with every appended run still in its write buffer, and on SIGINT with a
    traceback and no summary. Either signal now stops it as its stop event does: exit 0 and the summary, and the
    store holds what was appended, on disk before the signal."""
    lines = [oracles.position_sentence(mmsi=100 + k, navstat=0, rot_raw=0, sog_raw=100, lon_raw=0, lat_raw=0,
                                       cog_raw=0, heading_raw=0) for k in range(20)]
    release = threading.Event()

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.sendall(_blob(lines))
            release.wait(60)  # the connection stays open

    server = _LineServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    store = tmp_path / "store"
    argv = [sys.executable, "-m", "portcall.cli", "ingest", "--source", f"tcp://127.0.0.1:{server.server_address[1]}",
            "--store", str(store)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
            try:
                deadline = time.monotonic() + 30
                while len(read_lines(store)) < len(lines) and proc.poll() is None and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert len(read_lines(store)) == len(lines)  # appended, and flushed while the ingest still runs
                proc.send_signal(sig)
                out, err = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        thread.join()
    assert proc.returncode == 0, err
    assert f"ingested {len(lines)} messages (0 errors, 0 skipped) into {store}" in out
    assert [json.loads(line)["mmsi"] for line in read_lines(store)] == [100 + k for k in range(20)]


class TestReplayBlocks:
    """run_replay decodes NMEA in blocks; the result must not depend on where blocks end."""

    @staticmethod
    def _file(tmp_path, nmea_fixture):
        stored = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture[:8])[:3]]
        bare = [line[line.index("\\", 1) + 1 :] for line in nmea_fixture[:40]]
        first = next(i for i, line in enumerate(bare) if line.startswith("!AIVDM,2,1,"))
        rows = bare[: first + 1] + ["", stored[0], ""] + bare[first + 1 : 20]  # a group split by a stored line
        rows += [stored[1], stored[2][:30], ""] + nmea_fixture[40:60] + ["", ""] + bare[20:40]
        rows.append(bare[5][:25])  # torn last line, no newline
        path = tmp_path / "mixed.nmea"
        path.write_text("\n".join(rows))
        return path, rows

    @staticmethod
    def _outcomes(rows):
        """The outcomes of decoding each line on its own, untagged lines at 0.5 s a line from T0."""
        dec = MessageDecoder()
        outcomes = []
        for i, line in enumerate(rows):
            if not line:
                continue
            if line.startswith("{"):
                outcomes.append(stored_outcome(line))
            else:
                outcomes += dec.feed(line, T0 + dt.timedelta(seconds=i * 0.5))
        return outcomes + dec.finish()

    @classmethod
    def _per_line(cls, rows):
        """The sink and error-sink sequences of decoding each line on its own."""
        outcomes = cls._outcomes(rows)
        return ([message_of(o) for o in outcomes if o.kind in ("position", "static")],
                [o for o in outcomes if o.kind == "error"])

    @pytest.mark.parametrize("block", [1, 3, 7, 4096])
    def test_same_sequences_as_per_line(self, tmp_path, nmea_fixture, monkeypatch, block):
        monkeypatch.setattr(ingest, "_REPLAY_BLOCK", block)
        path, rows = self._file(tmp_path, nmea_fixture)
        messages, errors = self._per_line(rows)
        got, got_errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append),
                                    error_sink=got_errors.append, raw_start=T0, raw_cadence_s=0.5)
        assert got == messages
        assert got_errors == errors
        assert summary.lines == sum(1 for line in rows if line)
        assert {e.error for e in errors} == {"malformed"}  # the torn stored and NMEA lines
        assert len(errors) == 2

    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    def test_chunk_edges_change_nothing(self, tmp_path, nmea_fixture, monkeypatch, block):
        """The file is read in chunks of _REPLAY_BLOCK lines. Wherever a chunk ends, the sink and error-sink
        sequences and the summary's counts are those of the per-line reference. The file has a byte-order mark,
        CRLF and lone-CR endings, blank lines among untagged ones, stored lines, and a torn last line. It also has a
        type 5 pair whose fragments lie on either side of a chunk edge at each block size but the default."""
        if block is not None:
            monkeypatch.setattr(ingest, "_REPLAY_BLOCK", block)
        stored = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture[:8])[:2]]
        tagged = [line for line in nmea_fixture if "AIVDM,1,1," in line]
        bare = [line[line.index("\\", 1) + 1 :] for line in tagged]
        first = next(i for i, line in enumerate(nmea_fixture) if "AIVDM,2,1," in line)
        pair = [line[line.index("\\", 1) + 1 :] for line in nmea_fixture[first : first + 2]]
        rows = bare[:10] + ["", "", stored[0], ""] + tagged[10:20] + [stored[1], stored[1][:30], "", ""] + bare[20:30]
        rows += bare[30 : 30 + 42 - len(rows) - 1] + pair + bare[40:60] + ["", ""] + tagged[60:70] + [bare[70][:25]]
        assert rows[41:43] == pair  # fragment 2 starts a chunk of 1, 2, 3 or 7 lines
        ends = ["\r\n" if i % 3 == 1 else "\r" if i % 3 == 2 and rows[i + 1] else "\n" for i in range(len(rows) - 1)]
        path = tmp_path / "edges.nmea"
        path.write_bytes(("\ufeff" + "".join(map(str.__add__, rows, ends)) + rows[-1]).encode())
        outcomes = self._outcomes(rows)
        messages, errors = self._per_line(rows)
        assert messages != self._per_line([row for row in rows if row])[0]  # blank lines shift the untagged times
        got, got_errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append),
                                    error_sink=got_errors.append, raw_start=T0, raw_cadence_s=0.5)
        assert got == messages
        assert got_errors == errors
        assert [e.raw for e in errors] == [stored[1][:30], bare[70][:25]]
        assert (summary.lines, summary.messages, summary.errors, summary.skipped) == (
            sum(1 for row in rows if row), len(messages), len(errors), sum(o.kind == "skipped" for o in outcomes))

    def test_unreadable_byte_is_one_malformed_line(self, tmp_path, nmea_fixture, monkeypatch):
        """A byte that is not UTF-8 makes the line holding it malformed; the lines after it still decode."""
        monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 64)
        rows = [line.encode() for line in nmea_fixture[:400]]
        rows[300] = rows[300][:30] + b"\xff" + rows[300][30:]
        path = tmp_path / "bad.nmea"
        path.write_bytes(b"\n".join(rows) + b"\n")
        text = path.read_text(encoding="utf-8", errors="replace").split("\n")
        messages, errors = self._per_line(text)
        got, got_errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), each_report(got.append),
                                    error_sink=got_errors.append, raw_start=T0, raw_cadence_s=0.5)
        assert got == messages
        assert got_errors == errors
        assert [(e.error, e.raw) for e in errors] == [("malformed", text[300])]
        assert "\ufffd" in text[300]
        assert len(messages) > len(self._per_line(text[:300])[0]) + 50  # the lines after it
        assert summary.lines == 400

    def test_untagged_crlf_lines_across_reads_decode_as_their_lf_copy(self, tmp_path, nmea_fixture, monkeypatch):
        """Bare lines with CRLF endings and blank lines, read a few bytes at a time so that reads end between a
        \\r and its \\n, decode to the decoded.jsonl of their LF copy: a \\r that ends a read adds no blank line,
        which would move the receive times of the untagged lines after it. Blocks of one line leave no line of a
        read waiting for the next."""
        size = 61
        monkeypatch.setattr(ingest, "_READ_BYTES", size)
        monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 1)
        bare = [line[line.index("\\", 1) + 1 :] for line in nmea_fixture[:300]]
        rows = [row for k, line in enumerate(bare) for row in ([line, ""] if k % 25 == 7 else [line])]
        decoded = {}
        for end in ("\n", "\r\n"):
            path, out = tmp_path / "lines.nmea", tmp_path / f"{len(end)}.jsonl"
            data = "".join(row + end for row in rows).encode()
            path.write_bytes(data)
            assert cli.main(["decode", "--input", str(path), "--output", str(out)]) == cli.EXIT_OK
            decoded[end] = out.read_bytes()
        # the first read takes the 3 bytes a byte-order mark would fill
        assert any(data[edge - 1 : edge + 1] == b"\r\n" for edge in range(3, len(data), size))
        assert decoded["\r\n"] == decoded["\n"]
        assert decoded["\n"].count(b"\n") > 250
        unblanked = tmp_path / "unblanked.nmea"
        unblanked.write_text("".join(row + "\n" for row in rows if row))
        assert cli.main(["decode", "--input", str(unblanked), "--output", str(tmp_path / "unblanked.jsonl")]) == 0
        assert (tmp_path / "unblanked.jsonl").read_bytes() != decoded["\n"]  # blank lines move the times


# the bytes of the lines the replay reader splits: line ends, a stored line's and an NMEA line's first byte, ASCII
# letters, a byte that is never UTF-8 and a three-byte sequence cut after two
REPLAY_BYTES = [b"\r", b"\n", b"{", b"!", b"a", b"Z", b"\xff", b"\xe2\x80"]


@pytest.fixture(scope="module")
def replay_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("replay")


@settings(max_examples=400, deadline=None)
@given(data=st.lists(st.sampled_from(REPLAY_BYTES), max_size=40).map(b"".join), mark=st.booleans(),
       read=st.integers(1, 9), block=st.integers(1, 4))
def test_the_replay_reader_gives_the_lines_of_text_mode(replay_dir, data, mark, read, block):
    """The lines _blocks gives, blank ones included and each read as UTF-8 with U+FFFD for a byte that is not, are
    those of reading the file as text with universal newlines, a byte-order mark skipped, at every read size: a \\r
    at the end of a read waits for the next byte."""
    path = replay_dir / "lines"
    path.write_bytes((b"\xef\xbb\xbf" if mark else b"") + data)
    with open(path, encoding="utf-8-sig", errors="replace") as f:
        expected = [line.rstrip("\r\n") for line in f]
    with pytest.MonkeyPatch.context() as patch, open(path, "rb") as f:
        patch.setattr(ingest, "_READ_BYTES", read)
        patch.setattr(ingest, "_REPLAY_BLOCK", block)
        blocks = list(ingest._blocks(f))
    assert [buf[start:end].decode("utf-8", "replace") for buf, starts, ends, _ in blocks
            for start, end in zip(starts.tolist(), ends.tolist())] == expected
    assert [(first, len(starts)) for _, starts, _, first in blocks] == [
        (first, min(block, len(expected) - first)) for first in range(0, len(expected), block)]


class TestStorePartitions:
    def _position(self, ts):
        return PositionReport(mmsi=1, timestamp=ts, lat=0.0, lon=0.0, sog=0.0, cog=None, heading=None,
                              navstat=0, rot=0)

    def test_partition_per_utc_day(self, tmp_path):
        plus2 = dt.timezone(dt.timedelta(hours=2))
        midnight = dt.datetime(2019, 9, 2, tzinfo=UTC)
        stamps = [
            midnight - dt.timedelta(microseconds=1),
            midnight,
            midnight - dt.timedelta(seconds=1),  # an earlier day after a later one
            dt.datetime(2019, 9, 2, 1, 30, tzinfo=plus2),  # 23:30 UTC on the 1st
            midnight + dt.timedelta(days=1, seconds=5),
            dt.datetime(2019, 9, 3, 12),  # naive: read as local time
            midnight + dt.timedelta(hours=3),
        ]
        messages = [self._position(ts) for ts in stamps]
        messages.insert(3, StaticReport(mmsi=2, vessel_name="NO TIME", ship_type=70))
        expected: dict[str, str] = {}
        for m in messages:
            name = "ais-1970-01-01.jsonl" if m.timestamp is None else \
                f"ais-{m.timestamp.astimezone(UTC).date().isoformat()}.jsonl"
            expected[name] = expected.get(name, "") + dumps(message_to_dict(m)) + "\n"
        with ingest.MessageStore(tmp_path / "s") as store:
            store.append(*as_run(messages[:4]))
            store.close()  # the next append reopens its file and appends
            store.append(*as_run(messages[4:]))
        got = {p.name: p.read_text() for p in (tmp_path / "s").iterdir()}
        assert got == expected
        assert {"ais-1970-01-01.jsonl", "ais-2019-09-01.jsonl", "ais-2019-09-02.jsonl"} <= set(got)


class TestColumnPass:
    def test_clean_block_builds_no_object_per_position(self, tmp_path, monkeypatch, nmea_fixture):
        """Replayed blocks of clean position lines and type 5 pairs, tagged or bare, reach the store as columns:
        no outcome, report or datetime per position or static, no timedelta per line, and one store write per
        block. Blocks of 1,024 lines make the file span several."""
        monkeypatch.setattr(ingest, "_REPLAY_BLOCK", 1024)
        built = {"DecodeOutcome": 0, "PositionReport": 0, "from_epoch_us": 0, "_tag_time": 0, "timedelta": 0,
                 "append": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("DecodeOutcome", "PositionReport", "from_epoch_us", "_tag_time"):
            monkeypatch.setattr(codec, name, counted(name, getattr(codec, name)))
        monkeypatch.setattr(ingest, "dt", SimpleNamespace(**{k: getattr(dt, k) for k in ("date", "datetime")},
                                                          timedelta=counted("timedelta", dt.timedelta)))
        messages, k = [], 0  # each a position line or the two lines of a type 5 pair
        while k < len(nmea_fixture):
            messages.append(nmea_fixture[k : k + (2 if "AIVDM,2,1," in nmea_fixture[k] else 1)])
            k += len(messages[-1])
        lines = [line if m % 2 else line[line.index("\\", 1) + 1 :]  # every other message bare
                 for m, message in enumerate(messages[:1400]) for line in message]
        statics = sum("AIVDM,2,1," in line for line in lines)
        assert statics > 50 and len(lines) > ingest._REPLAY_BLOCK
        assert "AIVDM,2,1," not in lines[ingest._REPLAY_BLOCK - 1]  # no pair split between blocks
        path = tmp_path / "clean.nmea"
        path.write_text("\n".join(lines) + "\n")
        with ingest.MessageStore(tmp_path / "s") as store:
            summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path),
                                        counted("append", store.append), raw_start=T0)
        assert summary.messages == len(lines) - statics
        assert built == {**dict.fromkeys(built, 0), "append": -(-len(lines) // ingest._REPLAY_BLOCK)}
        monkeypatch.undo()
        expected = [dumps(message_to_dict(m)) for m in decode_direct_at(lines, T0)]
        assert sum('"type":"static"' in line for line in expected) == statics
        assert read_lines(tmp_path / "s") == sorted(expected, key=lambda line: json.loads(line)["ts"][:10])

    def test_stored_and_parsed_messages_build_no_report(self, tmp_path, monkeypatch, nmea_fixture):
        """Stored lines and the messages the line parser decodes reach the store as table rows too: no report
        object is built for them, and no dict codec document is written."""
        stored = [dumps(message_to_dict(m)) for m in decode_direct(nmea_fixture[:300])]
        parsed = [line.rpartition("\\")[2].replace("!AIVDM", "!BSVDM") for line in nmea_fixture[300:600]]
        parsed = [line[:-2] + f"{oracles.xor_checksum(line[1:-3]):02X}" for line in parsed]  # the line parser's
        lines = stored[:100] + parsed + stored[100:]
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines) + "\n")
        built = {"PositionReport": 0, "dumps": 0, "message_to_dict": 0, "message_from_dict": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codec, "PositionReport", counted("PositionReport", codec.PositionReport))
        for module, name in ((ingest, "dumps"), (ingest, "message_to_dict"), (jsonl, "dumps"),
                             (jsonl, "message_to_dict"), (jsonl, "message_from_dict")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        with ingest.MessageStore(tmp_path / "s") as store:
            summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), store.append, raw_start=T0)
        monkeypatch.undo()
        dec = MessageDecoder()
        assert sum(o.kind == "position" for line in parsed for o in dec.feed(line, T0)) > 100
        assert summary.errors == 0 and summary.messages > len(stored) + 100
        assert built == dict.fromkeys(built, 0)
        expected = [dumps(message_to_dict(m)) for m in read_store(tmp_path / "s")]
        assert read_lines(tmp_path / "s") == expected

    def test_paced_rows_reach_the_rows_sink_one_by_one(self, tmp_path):
        """A paced block's positions and statics each reach the sink as a run of one, after its pause."""
        t0 = int(T0.timestamp())
        positions = [oracles.tag_block(oracles.position_sentence(mmsi=1, navstat=0, rot_raw=0, sog_raw=100, lon_raw=0,
                                                                 lat_raw=0, cog_raw=0, heading_raw=0), t0 + 10 * i)
                     for i in range(3)]
        pair = [oracles.tag_block(line, t0 + 15) for line in oracles.static_sentences(
            message_id=2, mmsi=1, name="PACED", ship_type=70, to_bow=60, to_stern=60, to_port=10, to_starboard=10)]
        lines = positions[:2] + pair + positions[2:]
        path = tmp_path / "paced.nmea"
        path.write_text("\n".join(lines) + "\n")
        events = []
        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path, replay_speed=10.0),
                          lambda run, text: events.append((len(run), text)), sleep=events.append)
        # 10 s and then 5 s twice, at 10x speed
        assert [e if isinstance(e, float) else e[0] for e in events] == [1, pytest.approx(1.0), 1, pytest.approx(0.5),
                                                                         1, pytest.approx(0.5), 1]
        assert [e[1] for e in events if isinstance(e, tuple)] == [
            jsonl_of([dumps(message_to_dict(m))]) for m in decode_direct(lines)]


def decode_direct_at(lines, start, cadence_s=1.0) -> list:
    dec = MessageDecoder()
    return [message_of(o) for i, line in enumerate(lines)
            for o in dec.feed(line, start + dt.timedelta(seconds=i * cadence_s)) if o.kind in ("position", "static")]


def read_lines(root) -> list[str]:
    return [line for path in sorted(pathlib.Path(root).glob("ais-*.jsonl")) for line in path.read_text().splitlines()]


@settings(max_examples=300, deadline=None)
@given(numbers=st.lists(st.integers(0, 10**6), min_size=1, max_size=20).map(sorted),
       cadence=st.sampled_from((0.5, 1 / 3, 0.1, 1e-7, 2.5e-7)) | st.floats(0, 1e5),
       start=st.datetimes(max_value=dt.datetime(9000, 1, 1), timezones=st.just(UTC)))
def test_raw_times_round_as_timedelta(numbers, cadence, start):
    """Untagged receive times, as one array, are the microseconds raw_start + timedelta(seconds=n * cadence) gives."""
    try:
        expected = [codec.epoch_us(start + dt.timedelta(seconds=n * cadence)) for n in numbers]
    except OverflowError:  # past year 9999
        with pytest.raises(ingest.RawTimeOutOfRange):
            ingest._raw_times(codec.epoch_us(start), numbers, cadence)
        return
    assert ingest._raw_times(codec.epoch_us(start), numbers, cadence).tolist() == expected
