"""AIS data acquisition: live TCP line streams, file replay, persistence.

The live client speaks the line-oriented dispatcher protocol (one NMEA
sentence per line over TCP) and reconnects with exponentially backed-off,
fully jittered delays. Connection gaps are recorded so they can seed the
outage detector. Replay reads either raw/tag-blocked NMEA or previously
stored JSONL messages, optionally pacing emission by the recorded
timestamps. Live and replayed NMEA both go to MessageDecoder.feed_block
in blocks: the complete lines of each chunk received, or up to
_REPLAY_BLOCK lines of a file. A byte that is not UTF-8 makes its line
malformed; it does not end the read.
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
from .jsonl import dumps, message_from_dict, message_to_dict, position_line

UTC = dt.timezone.utc
_EPOCH = dt.datetime(1970, 1, 1, tzinfo=UTC)  # the partition of a message without a timestamp
_REPLAY_BLOCK = 1024  # NMEA lines decoded together by run_replay


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
    their receive order. The last partition used is kept with its UTC
    [start, end), so a run of messages from one day resolves it once.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[str, object] = {}
        self._day = (_EPOCH, _EPOCH)  # empty: nothing resolved yet
        self._file = None

    def _partition(self, ts: dt.datetime | None):
        day = (ts or _EPOCH).astimezone(UTC).date()
        name = f"ais-{day.isoformat()}.jsonl"
        f = self._open.get(name)
        if f is None:
            f = open(self.root / name, "a", encoding="utf-8", newline="\n")
            self._open[name] = f
        if ts is not None and ts.tzinfo is not None:
            start = dt.datetime(day.year, day.month, day.day, tzinfo=UTC)
            self._day = (start, start + dt.timedelta(days=1) if day < dt.date.max else start)
            self._file = f
        return f

    def append(self, msg: PositionReport | StaticReport) -> None:
        ts = msg.timestamp
        if ts is not None and ts.tzinfo is not None and self._day[0] <= ts < self._day[1]:
            f = self._file
        else:
            f = self._partition(ts)
        f.write(position_line(msg) if isinstance(msg, PositionReport) else dumps(message_to_dict(msg)))
        f.write("\n")

    def close(self) -> None:
        for f in self._open.values():
            f.close()
        self._open.clear()
        self._day = (_EPOCH, _EPOCH)
        self._file = None

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
    raw_start: dt.datetime = dt.datetime(2000, 1, 1, tzinfo=UTC),
    raw_cadence_s: float = 1.0,
    sleep=time.sleep,
) -> IngestSummary:
    """Replay a stored JSONL or NMEA file through the decoder into the sink.

    Tag-blocked NMEA lines carry their own receiver timestamps; bare lines
    get synthetic ones, raw_start plus raw_cadence_s per line of the file
    (blank lines count). NMEA lines go to the decoder in blocks of up to
    _REPLAY_BLOCK lines through feed_block, which gives what feeding them
    one by one would, also when reading the file fails partway. A byte that
    is not UTF-8 reads as U+FFFD, which makes its line malformed. A line
    that starts with `{` is read as a stored JSONL message, after the NMEA
    lines before it; one that does not parse goes to error_sink as a
    "malformed" error. replay_speed scales the pauses between consecutive
    message timestamps (0 disables pacing); each message is emitted right
    after its pause.
    """
    dec = MessageDecoder()
    summary = IngestSummary()
    prev_ts: dt.datetime | None = None
    block: list[str] = []
    rx_times: list[dt.datetime] = []

    def emit(outcomes):
        nonlocal prev_ts
        if cfg.replay_speed <= 0:
            _dispatch(outcomes, sink, error_sink, summary)
            return
        for outcome in outcomes:  # each message reaches the sink right after its pause
            if outcome.kind in ("position", "static"):
                ts = outcome.message.timestamp
                if prev_ts is not None and ts is not None:
                    sleep(max(0.0, (ts - prev_ts).total_seconds()) / cfg.replay_speed)
                prev_ts = ts or prev_ts
            _dispatch((outcome,), sink, error_sink, summary)

    def flush():
        nonlocal block, rx_times
        if block:
            lines, rxs, block, rx_times = block, rx_times, [], []  # taken first: a failing sink cannot resend them
            emit(dec.feed_block(lines, rxs))

    with open(cfg.path, "r", encoding="utf-8", errors="replace") as f:
        try:
            for i, line in enumerate(f):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                summary.lines += 1
                if line.startswith("{"):
                    flush()
                    emit([_stored_outcome(line)])
                else:
                    block.append(line)
                    rx_times.append(raw_start + dt.timedelta(seconds=i * raw_cadence_s))
                    if len(block) == _REPLAY_BLOCK:
                        flush()
        finally:  # a read that fails partway still delivers the lines read before it
            flush()
    _dispatch(dec.finish(), sink, error_sink, summary)
    return summary


def run_live(
    cfg: SourceConfig,
    sink,
    stop: threading.Event,
    *,
    error_sink=None,
    rng: random.Random | None = None,
) -> IngestSummary:
    """Consume a line-oriented TCP feed until the stop event is set.

    The complete lines of each chunk received go to the decoder as one
    block, all with the chunk's receive time (whole seconds); a TAG-block
    time overrides it as in replay. Reconnects with exponential backoff
    and full jitter (initial 1 s, capped at 60 s by default). A partial
    line at disconnect is discarded and counted as an error; completed
    lines are never lost. Connection gaps are returned for outage
    bookkeeping.
    """
    if cfg.endpoint is None:
        raise ValueError("live mode requires an endpoint")
    dec = MessageDecoder()
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
            summary.connection_gaps.append((disconnected_at, _utcnow_s()))
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
                nl = buf.rfind(b"\n")
                if nl == -1:
                    continue
                # no multi-byte character holds a newline byte; lines end at \n, \r\n or \r, as in a replayed file
                text, buf = buf[:nl].decode("utf-8", errors="replace"), buf[nl + 1 :]
                lines = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line]
                summary.lines += len(lines)
                _dispatch(dec.feed_block(lines, [_utcnow_s()] * len(lines)), sink, error_sink, summary)
        finally:
            sock.close()
        if buf.strip():
            summary.errors += 1  # partial line lost at disconnect
        disconnected_at = _utcnow_s()
    _dispatch(dec.finish(), sink, error_sink, summary)
    return summary
