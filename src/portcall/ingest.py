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
the stored JSONL document of each row. A block's rows, the positions and
type 5 statics feed_block's own pass decoded, come as runs whose documents
the Positions and Statics tables write for the whole block at once. Every
other message, a position or static the line parser decoded or a stored
JSONL message, is gathered with the ones next to it into one run
(BlockRun.of_messages), each document written by the dict codec. So a sink
such as MessageStore.append writes a run without building an object per
row, and no message or reported error comes between the rows of a run.
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

from .codec import BlockRun, DecodedBlock, DecodeOutcome, MessageDecoder, PositionReport
from .jsonl import dumps, message_from_dict, message_to_dict
from .table import UTC, epoch_us

_LAST_US = epoch_us(dt.datetime.max.replace(tzinfo=UTC))  # the last receive time a datetime holds
_REPLAY_BLOCK = 1024  # NMEA lines decoded together by run_replay, and other messages gathered into one run
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


class MessageStore:
    """Append-only JSONL persistence partitioned by UTC date.

    Files are named ais-YYYY-MM-DD.jsonl; messages inside one file keep
    their receive order. append() writes a run of rows with one write per
    stretch of rows from the same UTC day. At most _OPEN_DAYS day files stay
    open: a day not among them closes the one opened longest ago.
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
            self._file(day).write("\n".join(lines[start:stop]) + "\n")
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


@dataclass
class _Delivery:
    """Hands decoded messages and errors on to the sinks in order, counting them in `summary`.

    A block's rows reach sink as runs with the stored document of each row.
    Every other message is gathered into `_messages`, and flush() hands them
    on as one run: before the next block rows, before an error for
    error_sink, at _REPLAY_BLOCK messages, and whenever the source calls it.
    With a `pause`, each message reaches sink as a run of one right after
    pause(its receive time in microseconds); a message without a time does
    not pause.
    """

    sink: object
    error_sink: object
    summary: IngestSummary
    pause: object = None
    _messages: list = field(default_factory=list)  # messages not yet handed on

    def outcome(self, outcome: DecodeOutcome) -> None:
        if outcome.kind in ("position", "static"):
            if self.pause is not None and outcome.message.timestamp is not None:
                self.pause(epoch_us(outcome.message.timestamp))
            self.summary.messages += 1
            self._messages.append(outcome.message)
            if self.pause is not None or len(self._messages) >= _REPLAY_BLOCK:
                self.flush()
        elif outcome.kind == "error":
            self.summary.errors += 1
            if self.error_sink is not None:
                self.flush()
                self.error_sink(outcome)
        elif outcome.kind == "skipped":
            self.summary.skipped += 1

    def flush(self) -> None:
        """The gathered messages as one run, with the dict codec's document of each."""
        if self._messages:
            messages, self._messages = self._messages, []  # taken first: a failing sink cannot resend them
            self.sink(BlockRun.of_messages(messages), [dumps(message_to_dict(m)) for m in messages])

    def block(self, block: DecodedBlock) -> None:
        """A block's rows and outcomes in order. The documents of its rows are written for the whole block at
        once, and a run of rows reaches sink in one call unless a message or an error for a sink comes between."""
        lines = _documents(block)
        start = 0
        for outcome, row in zip(block.outcomes, block.rows):
            if row > start and (outcome.kind in ("position", "static")
                                or outcome.kind == "error" and self.error_sink is not None):
                self._rows(block, lines, start, row)
                start = row
            self.outcome(outcome)
        if start < len(lines):
            self._rows(block, lines, start, len(lines))

    def _rows(self, block: DecodedBlock, lines: list[str], start: int, stop: int) -> None:
        """Rows start..stop of a block, with their documents, after the messages gathered before them."""
        self.flush()
        if self.pause is not None and stop - start > 1:
            for k in range(start, stop):
                self._rows(block, lines, k, k + 1)
            return
        run = block.run(start, stop)
        if self.pause is not None:
            self.pause(int((run.statics if run.static[0] else run.positions).time_us[0]))
        self.summary.messages += stop - start
        self.sink(run, lines[start:stop])


def _documents(block: DecodedBlock) -> list[str]:
    """The stored document of each row of a block, in order."""
    positions = block.positions.lines()
    if not len(block.statics):
        return positions
    lines = np.empty(len(block.static), dtype=object)
    lines[~block.static] = np.array(positions, dtype=object)
    lines[block.static] = np.array(block.statics.lines(), dtype=object)
    return lines.tolist()


def _stored_outcome(line: str) -> DecodeOutcome:
    """A stored JSONL message as the outcome the decoder gives a sentence; one that does not parse is malformed."""
    try:
        msg = message_from_dict(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return DecodeOutcome("error", error="malformed", detail=str(exc), raw=line)
    return DecodeOutcome("position" if isinstance(msg, PositionReport) else "static", message=msg)


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
    in order, in runs: a block's rows, and runs of up to _REPLAY_BLOCK of
    the other messages between them. A byte that is not UTF-8 reads as
    U+FFFD, which makes its line malformed. A line that starts with `{` is
    read as a stored JSONL message, after the NMEA lines before it; one
    that does not parse goes to error_sink as a "malformed" error.
    replay_speed scales the pauses between consecutive message timestamps
    (0 disables pacing); each message is emitted as a run of one right after
    its pause, and a message without a time neither pauses nor moves the
    pacing clock.
    """
    if not (math.isfinite(raw_cadence_s) and raw_cadence_s >= 0):
        raise ValueError(f"raw_cadence_s {raw_cadence_s!r} is not a finite number >= 0")
    dec = MessageDecoder()
    summary = IngestSummary()
    start_us = epoch_us(raw_start)
    prev_us: int | None = None
    block: list[str] = []
    numbers: list[int] = []  # the line number in the file of each line of `block`

    def pause(t_us: int) -> None:
        nonlocal prev_us
        if prev_us is not None:
            sleep(max(0.0, (t_us - prev_us) / 1_000_000) / cfg.replay_speed)
        prev_us = t_us

    deliver = _Delivery(sink, error_sink, summary, pause if cfg.replay_speed > 0 else None)

    def feed():
        nonlocal block, numbers
        if block:
            lines, at, block, numbers = block, numbers, [], []  # taken first: a failing sink cannot resend them
            deliver.block(dec.feed_block(lines, _raw_times(start_us, at, raw_cadence_s)))

    with open(cfg.path, "r", encoding="utf-8", errors="replace") as f:
        try:
            for i, line in enumerate(f):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                summary.lines += 1
                if line.startswith("{"):
                    feed()
                    deliver.outcome(_stored_outcome(line))
                else:
                    block.append(line)
                    numbers.append(i)
                    if len(block) == _REPLAY_BLOCK:
                        feed()
        finally:  # a read that fails partway still delivers the lines read before it
            feed()
            deliver.flush()
    for outcome in dec.finish():  # timeouts only
        deliver.outcome(outcome)
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
    time overrides it as in replay. Messages reach sink in runs as in
    run_replay, and every message of a block before the next chunk is
    read. Waits a backoff with full jitter after a failed connect and after
    every disconnect, doubling from 1 s to a cap of 60 s by default and
    starting over once a connection delivers a complete line. A partial
    line at disconnect is discarded and counted as an error; completed
    lines are never lost. Connection gaps are returned for outage
    bookkeeping.
    """
    if cfg.endpoint is None:
        raise ValueError("live mode requires an endpoint")
    dec = MessageDecoder()
    rng = rng or random.Random()
    summary = IngestSummary()
    deliver = _Delivery(sink, error_sink, summary)
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
                    deliver.block(dec.feed_block(lines, np.full(len(lines), epoch_us(_utcnow_s()))))
                    deliver.flush()
            finally:
                sock.close()
            if buf.strip():
                summary.errors += 1  # partial line lost at disconnect
            disconnected_at = _utcnow_s()
        # after a failed connect and after every disconnect alike, so a feed that accepts and closes cannot spin
        stop.wait(rng.uniform(0.0, backoff))
        backoff = min(backoff * 2.0, cfg.reconnect_max_s)
    for outcome in dec.finish():
        deliver.outcome(outcome)
    return summary
