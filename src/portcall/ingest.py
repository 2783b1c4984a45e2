"""AIS data acquisition: live TCP line streams, file replay, persistence.

The live client speaks the line-oriented dispatcher protocol (one NMEA
sentence per line over TCP) and reconnects with exponentially backed-off,
fully jittered delays. Connection gaps are recorded so they can seed the
outage detector. Replay reads either raw/tag-blocked NMEA or previously
stored JSONL messages, optionally pacing emission by the recorded
timestamps.
"""

import datetime as dt
import json
import pathlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field

from .codec import DecodeOutcome, MessageDecoder, PositionReport, StaticReport
from .jsonl import dumps, message_from_dict, message_to_dict

UTC = dt.timezone.utc


@dataclass
class SourceConfig:
    """Where messages come from: a TCP endpoint or a file to replay."""

    mode: str  # "live" | "replay"
    endpoint: tuple[str, int] | None = None
    path: pathlib.Path | None = None
    replay_speed: float = 0.0  # 0 = as fast as possible, 1 = real time
    reconnect_initial_s: float = 1.0
    reconnect_max_s: float = 60.0

    def __post_init__(self):
        if self.mode == "live":
            if self.endpoint is None or self.path is not None:
                raise ValueError("live mode needs an endpoint and no path")
        elif self.mode == "replay":
            if self.path is None or self.endpoint is not None:
                raise ValueError("replay mode needs a path and no endpoint")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.replay_speed < 0:
            raise ValueError("replay_speed must be >= 0")

    @classmethod
    def parse_source(cls, source: str, **kwargs) -> "SourceConfig":
        """Build from a CLI-style source string: tcp://host:port or file:path."""
        if source.startswith("tcp://"):
            hostport = source[len("tcp://") :]
            host, _, port = hostport.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"bad tcp source {source!r}")
            return cls(mode="live", endpoint=(host, int(port)), **kwargs)
        if source.startswith("file:"):
            return cls(mode="replay", path=pathlib.Path(source[len("file:") :]), **kwargs)
        return cls(mode="replay", path=pathlib.Path(source), **kwargs)


@dataclass
class IngestSummary:
    lines: int = 0
    messages: int = 0
    errors: int = 0
    skipped: int = 0
    connection_gaps: list[tuple[dt.datetime, dt.datetime]] = field(default_factory=list)


class MessageStore:
    """Append-only JSONL persistence partitioned by UTC date.

    Files are named ais-YYYY-MM-DD.jsonl; messages inside one file keep
    their receive order.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[str, object] = {}

    def append(self, msg: PositionReport | StaticReport) -> None:
        ts = msg.timestamp or dt.datetime(1970, 1, 1, tzinfo=UTC)
        name = f"ais-{ts.astimezone(UTC):%Y-%m-%d}.jsonl"
        f = self._open.get(name)
        if f is None:
            f = open(self.root / name, "a", encoding="utf-8", newline="\n")
            self._open[name] = f
        f.write(dumps(message_to_dict(msg)))
        f.write("\n")

    def close(self) -> None:
        for f in self._open.values():
            f.close()
        self._open.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _utcnow_s() -> dt.datetime:
    return dt.datetime.now(tz=UTC).replace(microsecond=0)


def _dispatch(outcomes, sink, error_sink, summary: IngestSummary) -> None:
    for outcome in outcomes:
        if outcome.kind in ("position", "static"):
            sink(outcome.message)
            summary.messages += 1
        elif outcome.kind == "error":
            summary.errors += 1
            if error_sink is not None:
                error_sink(outcome)
        elif outcome.kind == "skipped":
            summary.skipped += 1


def _stored_outcome(line: str) -> DecodeOutcome:
    """A stored JSONL message as the outcome the decoder gives a sentence; one that does not parse is malformed."""
    try:
        msg = message_from_dict(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return DecodeOutcome("error", error="malformed", detail=str(exc), raw=line)
    return DecodeOutcome("position" if isinstance(msg, PositionReport) else "static", message=msg)


def run_replay(
    cfg: SourceConfig,
    sink,
    *,
    error_sink=None,
    decoder: MessageDecoder | None = None,
    raw_start: dt.datetime = dt.datetime(2000, 1, 1, tzinfo=UTC),
    raw_cadence_s: float = 1.0,
    sleep=time.sleep,
) -> IngestSummary:
    """Replay a stored JSONL or NMEA file through the decoder into the sink.

    Tag-blocked NMEA lines carry their own receiver timestamps; bare lines
    get synthetic ones at raw_cadence_s intervals. A line that starts with
    `{` is read as a stored JSONL message; one that does not parse goes to
    error_sink as a "malformed" error. replay_speed scales the pauses
    between consecutive message timestamps (0 disables pacing).
    """
    if cfg.path is None or not cfg.path.exists():
        raise FileNotFoundError(f"replay source {cfg.path} does not exist")
    dec = decoder or MessageDecoder()
    summary = IngestSummary()
    prev_ts: dt.datetime | None = None
    with open(cfg.path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.rstrip("\r\n")
            if not line:
                continue
            summary.lines += 1
            if line.startswith("{"):
                outcomes = [_stored_outcome(line)]
            else:
                outcomes = dec.feed(line, raw_start + dt.timedelta(seconds=i * raw_cadence_s))
            if cfg.replay_speed > 0:
                for outcome in outcomes:
                    if outcome.kind in ("position", "static"):
                        ts = outcome.message.timestamp
                        if prev_ts is not None and ts is not None:
                            sleep(max(0.0, (ts - prev_ts).total_seconds()) / cfg.replay_speed)
                        prev_ts = ts or prev_ts
            _dispatch(outcomes, sink, error_sink, summary)
    _dispatch(dec.finish(), sink, error_sink, summary)
    return summary


def run_live(
    cfg: SourceConfig,
    sink,
    stop: threading.Event,
    *,
    error_sink=None,
    decoder: MessageDecoder | None = None,
    rng: random.Random | None = None,
    now_fn=_utcnow_s,
) -> IngestSummary:
    """Consume a line-oriented TCP feed until the stop event is set.

    Reconnects with exponential backoff and full jitter (initial 1 s,
    capped at 60 s by default). A partial line at disconnect is discarded
    and counted as an error; completed lines are never lost. Connection
    gaps are returned for outage bookkeeping.
    """
    if cfg.endpoint is None:
        raise ValueError("live mode requires an endpoint")
    dec = decoder or MessageDecoder()
    rng = rng or random.Random()
    summary = IngestSummary()
    backoff = cfg.reconnect_initial_s
    disconnected_at: dt.datetime | None = None

    while not stop.is_set():
        try:
            sock = socket.create_connection(cfg.endpoint, timeout=5.0)
        except OSError:
            stop.wait(rng.uniform(0.0, backoff))
            backoff = min(backoff * 2.0, cfg.reconnect_max_s)
            continue
        if disconnected_at is not None:
            summary.connection_gaps.append((disconnected_at, now_fn()))
            disconnected_at = None
        backoff = cfg.reconnect_initial_s
        sock.settimeout(0.5)
        buf = b""
        try:
            while not stop.is_set():
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buf += chunk
                while True:
                    nl = buf.find(b"\n")
                    if nl == -1:
                        break
                    line = buf[:nl].decode("utf-8", errors="replace").rstrip("\r")
                    buf = buf[nl + 1 :]
                    if not line:
                        continue
                    summary.lines += 1
                    _dispatch(dec.feed(line, now_fn()), sink, error_sink, summary)
        finally:
            sock.close()
        if buf.strip():
            summary.errors += 1  # partial line lost at disconnect
        disconnected_at = now_fn()
    _dispatch(dec.finish(), sink, error_sink, summary)
    return summary
