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

Every decoded message leaves this module as a row of a run: the sink is
called as sink(run, lines) with a codec.BlockRun, rows in receive order, and
the stored JSONL document of each row. Each block of lines is one call: a
decoded block's rows, with the documents its Positions and Statics tables
write at once, and among them in line order each message the line parser
decoded; or up to _REPLAY_BLOCK stored JSONL messages. A parser or stored
message gets the dict codec's document (perfbench's tracer counts the
parser's through it). Errors go to the error sink. _paced wraps the sink
to pace a replay, and the summary takes the decoder's counts.
"""

import datetime as dt
import itertools
import json
import math
import pathlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .codec import BlockRun, DecodedBlock, DecodeOutcome, MessageDecoder
from .jsonl import dumps, message_from_dict, message_to_dict
from .table import UTC, epoch_us

_LAST_US = epoch_us(dt.datetime.max.replace(tzinfo=UTC))  # the last receive time a datetime holds
_REPLAY_BLOCK = 1024  # NMEA lines decoded together by run_replay, and stored lines handed on as one run
_OPEN_DAYS = 64  # day files a MessageStore keeps open


class RawTimeOutOfRange(ValueError):
    """An untagged line's receive time, raw_start plus its line number times the cadence, is past year 9999."""


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
        if not 0 <= self.replay_speed < math.inf:
            raise ValueError(f"replay_speed {self.replay_speed!r} is not a finite number >= 0")

    @classmethod
    def parse_source(cls, source: str, **kwargs) -> "SourceConfig":
        """Build from a CLI-style source string: tcp://host:port, the port in 1-65535 and an IPv6 host in
        brackets or bare (tcp://[::1]:4001), or file:path."""
        if source.startswith("tcp://"):
            host, _, port = source[len("tcp://") :].rpartition(":")
            if host.startswith("[") and host.endswith("]"):
                host = host[1:-1]  # the address getaddrinfo takes
            if not host or "[" in host or "]" in host or not port.isdigit() or not 1 <= int(port) <= 65535:
                raise ValueError(f"bad tcp source {source!r}: needs a host, an IPv6 one in balanced brackets "
                                 "or bare, and a port in 1-65535")
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

    def add(self, dec: MessageDecoder) -> "IngestSummary":
        """This summary, the decoder's messages, errors and skipped lines added to its own counts."""
        self.messages += dec.positions + dec.statics
        self.errors += dec.errors
        self.skipped += dec.skipped
        return self


class MessageStore:
    """Append-only JSONL persistence partitioned by UTC date.

    Files are named ais-YYYY-MM-DD.jsonl; messages inside one file keep
    their receive order. append() writes a run of rows with one write per
    stretch of rows from the same UTC day, and flushes each file it writes,
    so a process that is killed loses no run already appended. At most
    _OPEN_DAYS day files stay open: a day not among them closes the one
    opened longest ago.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: dict[int, object] = {}  # the file of each UTC day, by its ordinal, in the order opened

    def _file(self, ordinal: int):
        f = self._open.get(ordinal)
        if f is None:
            if len(self._open) >= _OPEN_DAYS:
                self._open.pop(next(iter(self._open))).close()
            name = f"ais-{dt.date.fromordinal(ordinal).isoformat()}.jsonl"
            f = self._open[ordinal] = open(self.root / name, "a", encoding="utf-8", newline="\n")
        return f

    def append(self, rows: BlockRun, lines: list[str]) -> None:
        """Write a run of rows, given the stored document of each in order; a row without a time goes to 1970."""
        start = 0
        for day, same_day in itertools.groupby(rows.utc_days().tolist()):
            stop = start + len(list(same_day))
            f = self._file(day)
            f.write("\n".join(lines[start:stop]) + "\n")
            f.flush()
            start = stop

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


def _deliver(block: DecodedBlock, sink, error_sink) -> None:
    """A block's messages to sink as one run in order: its rows, and at its place among them each message the line
    parser decoded, with the dict codec's document. Its errors go to error_sink."""
    lines = _documents(block)
    runs, documents, start = [], [], 0
    parsed = [(row, o.message) for o, row in zip(block.outcomes, block.rows) if o.message is not None]
    for row, group in itertools.groupby(parsed, key=lambda item: item[0]):
        messages = [m for _, m in group]
        runs += [block.run(start, row), BlockRun.of_messages(messages)]
        documents += lines[start:row] + [dumps(message_to_dict(m)) for m in messages]
        start = row
    runs.append(block.run(start, len(block)))
    documents += lines[start:]
    for outcome in block.outcomes:
        if outcome.kind == "error":
            error_sink(outcome)
    if documents:
        sink(BlockRun.concat(runs), documents)


def _paced(sink, speed: float, sleep):
    """sink, handed each row of a run as a run of one right after sleeping the time since the row before over
    speed. A static held at time 0, which is stored without one, neither pauses nor moves the clock."""
    prev_us = None

    def paced(run: BlockRun, lines: list[str]) -> None:
        nonlocal prev_us
        for k in range(len(run)):
            row = run.run(k, k + 1)
            t_us = int((row.statics if row.static[0] else row.positions).time_us[0])
            if t_us or not row.static[0]:
                if prev_us is not None:
                    sleep(max(0.0, (t_us - prev_us) / 1_000_000) / speed)
                prev_us = t_us
            sink(row, lines[k : k + 1])

    return paced


def _documents(block: DecodedBlock) -> list[str]:
    """The stored document of each row of a block, in order."""
    positions = block.positions.lines()
    if not len(block.statics):
        return positions
    lines = np.empty(len(block.static), dtype=object)
    lines[~block.static] = np.array(positions, dtype=object)
    lines[block.static] = np.array(block.statics.lines(), dtype=object)
    return lines.tolist()


def _raw_times(start_us: int, numbers, cadence_s: float) -> np.ndarray:
    """start_us plus n × cadence_s for each line number n, in microseconds rounded as
    dt.timedelta(seconds=n * cadence_s) rounds them; RawTimeOutOfRange past year 9999."""
    steps = np.array(numbers, dtype=np.float64) * cadence_s
    late = np.flatnonzero(~(steps <= 4e11))  # ≈ 12,700 years: past any datetime, still exact in int64 microseconds
    if not late.size:
        whole = np.trunc(steps)
        times = start_us + whole.astype(np.int64) * 1_000_000 + np.rint((steps - whole) * 1e6).astype(np.int64)
        late = np.flatnonzero(times > _LAST_US)
    if late.size:
        raise RawTimeOutOfRange(f"line {numbers[late[0]] + 1} would be received after year 9999")
    return times


def run_replay(
    cfg: SourceConfig,
    sink,
    *,
    error_sink=None,
    raw_start: dt.datetime = dt.datetime(2000, 1, 1, tzinfo=UTC),
    raw_cadence_s: float = 1.0,
    sleep=time.sleep,
) -> IngestSummary:
    """Replay a stored JSONL or NMEA file through the decoder into the sinks.

    Tag-blocked NMEA lines carry their own receiver timestamps; bare lines
    get synthetic ones, raw_start plus raw_cadence_s per line of the file
    (blank lines count), computed for a block at a time in integer
    microseconds. A cadence that is not finite or is negative is a
    ValueError; a receive time past year 9999 is RawTimeOutOfRange. NMEA
    lines go to the decoder in blocks of up to _REPLAY_BLOCK lines through
    feed_block, which gives what feeding them one by one would, also when
    reading the file fails partway. Every message reaches sink(run, lines)
    in order: each block's messages in one call, and the stored lines
    between blocks in runs of up to _REPLAY_BLOCK. A byte that is not UTF-8
    reads as U+FFFD, which makes its line malformed. A line that starts with
    `{` is read as a stored JSONL message, after the NMEA lines before it;
    one that does not parse goes to error_sink as a "malformed" error.
    replay_speed scales the pauses between consecutive message timestamps
    (0 disables pacing): _paced hands each message to sink as a run of one
    right after its pause, and a static without a time neither pauses nor
    moves the pacing clock. The summary counts what the decoder counted,
    and the stored messages and malformed stored lines.
    """
    if not (math.isfinite(raw_cadence_s) and raw_cadence_s >= 0):
        raise ValueError(f"raw_cadence_s {raw_cadence_s!r} is not a finite number >= 0")
    dec = MessageDecoder()
    summary = IngestSummary()
    error_sink = error_sink or (lambda outcome: None)
    start_us = epoch_us(raw_start)
    if cfg.replay_speed > 0:
        sink = _paced(sink, cfg.replay_speed, sleep)
    block: list[str] = []  # NMEA lines, or stored lines
    numbers: list[int] = []  # the line number in the file of each line of `block`

    def feed():
        nonlocal block, numbers
        lines, at, block, numbers = block, numbers, [], []  # taken first: a failing sink cannot resend them
        if lines and not lines[0].startswith("{"):
            _deliver(dec.feed_block(lines, _raw_times(start_us, at, raw_cadence_s)), sink, error_sink)
        elif lines:
            messages = []
            for line in lines:
                try:
                    messages.append(message_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    summary.errors += 1
                    error_sink(DecodeOutcome("error", error="malformed", detail=str(exc), raw=line))
            summary.messages += len(messages)
            if messages:
                sink(BlockRun.of_messages(messages), [dumps(message_to_dict(m)) for m in messages])

    with open(cfg.path, "r", encoding="utf-8", errors="replace") as f:
        try:
            for i, line in enumerate(f):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                summary.lines += 1
                if block and block[0].startswith("{") != line.startswith("{"):
                    feed()
                block.append(line)
                numbers.append(i)
                if len(block) == _REPLAY_BLOCK:
                    feed()
        finally:  # a read that fails partway still delivers the lines read before it
            feed()
    for outcome in dec.finish():  # timeouts only
        error_sink(outcome)
    return summary.add(dec)


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
    time overrides it as in replay. Each block's messages reach sink in one
    call, as in run_replay, before the next chunk is read. Waits a backoff
    with full jitter after a failed connect and after every disconnect,
    doubling from 1 s to a cap of 60 s by default and starting over once a
    connection delivers a complete line. A partial
    line at disconnect is discarded and counted as an error; completed
    lines are never lost. Once the stop event is set it returns within the
    socket's 0.5 s timeout, fragment groups still pending counted as
    timeouts. Connection gaps are returned for outage bookkeeping.
    """
    if cfg.endpoint is None:
        raise ValueError("live mode requires an endpoint")
    dec = MessageDecoder()
    rng = rng or random.Random()
    summary = IngestSummary()
    error_sink = error_sink or (lambda outcome: None)
    backoff = cfg.reconnect_initial_s
    disconnected_at: dt.datetime | None = None

    while not stop.is_set():
        try:
            sock = socket.create_connection(cfg.endpoint, timeout=5.0)
        except OSError:
            sock = None
        if sock is not None:
            if disconnected_at is not None:
                summary.connection_gaps.append((disconnected_at, _utcnow_s()))
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
                    if lines:
                        backoff = cfg.reconnect_initial_s  # the feed works again
                    summary.lines += len(lines)
                    _deliver(dec.feed_block(lines, np.full(len(lines), epoch_us(_utcnow_s()))), sink, error_sink)
            finally:
                sock.close()
            if buf.strip():
                summary.errors += 1  # partial line lost at disconnect
            disconnected_at = _utcnow_s()
        # after a failed connect and after every disconnect alike, so a feed that accepts and closes cannot spin
        stop.wait(rng.uniform(0.0, backoff))
        backoff = min(backoff * 2.0, cfg.reconnect_max_s)
    for outcome in dec.finish():
        error_sink(outcome)
    return summary.add(dec)
