import datetime as dt
import pathlib
import random
import socket
import socketserver
import threading

import pytest

import oracles
from conftest import decode_all
from portcall import ingest, synth
from portcall.codec import MessageDecoder, PositionReport
from portcall.jsonl import dumps, message_to_dict

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
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), got.append)
        positions, statics, errors = decode_all(nmea_fixture)
        assert summary.lines == len(nmea_fixture)
        assert summary.messages == len(positions) + len(statics)
        assert summary.errors == 0
        assert [m for m in got if isinstance(m, PositionReport)] == positions

    def test_missing_file(self, tmp_path):
        cfg = ingest.SourceConfig(mode="replay", path=tmp_path / "nope.nmea")
        with pytest.raises(FileNotFoundError):
            ingest.run_replay(cfg, lambda m: None)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nmea"
        path.write_text("")
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), lambda m: None)
        assert summary.lines == 0
        assert summary.messages == 0

    def test_corrupt_lines_counted_not_fatal(self, tmp_path, nmea_fixture):
        path = tmp_path / "mixed.nmea"
        path.write_text(nmea_fixture[0] + "\ngarbage line\n" + nmea_fixture[1] + "\n")
        errors = []
        summary = ingest.run_replay(
            ingest.SourceConfig(mode="replay", path=path), lambda m: None, error_sink=errors.append
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
        ingest.run_replay(
            ingest.SourceConfig(mode="replay", path=path), got.append,
            raw_start=T0, raw_cadence_s=2.0,
        )
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
        sleeps = []
        ingest.run_replay(
            ingest.SourceConfig(mode="replay", path=path, replay_speed=5.0),
            lambda m: None, sleep=sleeps.append,
        )
        assert sleeps == [pytest.approx(2.0)] * 3  # 10 s gaps at 5x speed


def read_store(root) -> list:
    """Every message in a store, read back the way `portcall decode` reads stored JSONL."""
    got = []
    for path in sorted(pathlib.Path(root).glob("ais-*.jsonl")):
        ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), got.append)
    return got


def decode_direct(lines) -> list:
    dec = MessageDecoder()
    return [o.message for line in lines for o in dec.feed(line, T0) if o.kind in ("position", "static")]


class TestStore:
    def test_roundtrip_equals_direct_decode(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)
        with ingest.MessageStore(tmp_path / "store") as store:
            for msg in direct:
                store.append(msg)
        assert read_store(tmp_path / "store") == direct

    def test_partitioned_by_date(self, tmp_path):
        store = ingest.MessageStore(tmp_path / "s")
        for day in (1, 1, 2):
            store.append(PositionReport(mmsi=1, timestamp=dt.datetime(2019, 9, day, tzinfo=UTC),
                                        lat=0.0, lon=0.0, sog=0.0, cog=None, heading=None,
                                        navstat=0, rot=0))
        store.close()
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["ais-2019-09-01.jsonl", "ais-2019-09-02.jsonl"]

    def test_replay_of_store_preserves_messages(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)
        with ingest.MessageStore(tmp_path / "s") as store:
            for msg in direct:
                store.append(msg)
        got = []
        for path in sorted((tmp_path / "s").glob("ais-*.jsonl")):
            part = []
            ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), part.append)
            assert {f"ais-{m.timestamp:%Y-%m-%d}.jsonl" for m in part} == {path.name}
            got += part
        assert got == direct


    def test_torn_last_line_is_one_malformed_error(self, tmp_path, nmea_fixture):
        direct = decode_direct(nmea_fixture)[:50]
        with ingest.MessageStore(tmp_path / "s") as store:
            for msg in direct:
                store.append(msg)
        (path,) = (tmp_path / "s").glob("ais-*.jsonl")
        whole = path.read_text()
        path.write_text(whole + whole.splitlines()[0][:40])  # a crash mid-append
        got, errors = [], []
        summary = ingest.run_replay(ingest.SourceConfig(mode="replay", path=path), got.append,
                                    error_sink=errors.append)
        assert got == direct
        assert (summary.lines, summary.messages, summary.errors) == (51, 50, 1)
        assert [e.error for e in errors] == ["malformed"]


class _LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True


def _serve_lines(lines, chunk=64, close_mid_line=False):
    """One-shot TCP server pushing the fixture and closing."""

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            blob = ("\n".join(lines) + "\n").encode()
            if close_mid_line:
                blob += b"!AIVDM,1,1,,A,truncated"  # no newline, then close
            for i in range(0, len(blob), chunk):
                self.request.sendall(blob[i : i + chunk])
            self.request.shutdown(socket.SHUT_WR)

    server = _LineServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestLive:
    def test_fixture_over_loopback(self, nmea_fixture):
        lines = nmea_fixture[:2000]
        server, thread = _serve_lines(lines, chunk=1024)
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
            summary = ingest.run_live(cfg, sink, stop, rng=random.Random(1))
            assert summary.messages >= expected
            assert [m for m in got if isinstance(m, PositionReport)][: len(positions)] == positions
        finally:
            server.shutdown()
            thread.join()

    def test_partial_line_at_disconnect_counted(self, nmea_fixture):
        lines = nmea_fixture[:50]
        server, thread = _serve_lines(lines, close_mid_line=True)
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
            summary = ingest.run_live(cfg, sink, stop, rng=random.Random(1))
            assert summary.errors >= 1  # the truncated tail
            assert len(got) >= expected
        finally:
            server.shutdown()
            thread.join()

    def test_reconnect_records_gap(self, nmea_fixture):
        lines = nmea_fixture[:20]
        server, thread = _serve_lines(lines)
        try:
            stop = threading.Event()
            seen = {"n": 0}

            def sink(msg):
                seen["n"] += 1
                if seen["n"] >= 30:  # needs a second connection to get here
                    stop.set()

            cfg = ingest.SourceConfig(mode="live", endpoint=server.server_address,
                                      reconnect_initial_s=0.01, reconnect_max_s=0.05)
            summary = ingest.run_live(cfg, sink, stop, rng=random.Random(2))
            assert summary.connection_gaps  # at least one disconnect/reconnect cycle
        finally:
            server.shutdown()
            thread.join()
