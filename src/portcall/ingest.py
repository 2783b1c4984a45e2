"""AIS data acquisition: live TCP line streams, file replay, persistence.

The live client speaks the line-oriented dispatcher protocol (one NMEA
sentence per line over TCP) and reconnects with exponentially backed-off,
fully jittered delays. Connection gaps are recorded so they can seed the
outage detector. Replay reads either raw/tag-blocked NMEA or previously
stored JSONL messages, optionally pacing emission by the recorded
timestamps. Live and replayed NMEA both go to MessageDecoder.feed_block
in blocks: the complete lines of each chunk received, or of each
_REPLAY_BLOCK lines read from a file. A byte that is not UTF-8 makes its
line malformed; it does not end the read.

Every message leaves this module as a table row, with no object built per
message: the sink is called as sink(run, lines) with a codec.BlockRun, rows
in receive order, and the stored JSONL document of each row. Each block of
lines is one call: a decoded block's rows, with the one-row run of each
message the line parser decoded spliced in at its line; or up to
_REPLAY_BLOCK stored JSONL messages, each checked as `table.Table.read`
checks a document. Every document is written by the table writers, a
position's from the texts of its fields, which the run then carries
(BlockRun.texts) for a sink that writes its positions again. Errors go to
the error sink. _paced wraps the sink to pace a replay, and the summary
takes the decoder's counts. The live feed's socket is imported by run_live,
so a replay does not load it.
"""

import datetime as dt
import itertools
import math
import pathlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .codec import BlockRun, DecodedBlock, DecodeOutcome, MessageDecoder, Positions, Statics
from .jsonl import dumps, message_to_dict
from .table import UTC, epoch_us, parse_json

# perfbench's tracer wraps these names here, where no command calls them (see TRACER_ONLY and ROADMAP item 13)
_TRACER_NAMES = (dumps, message_to_dict)

_LAST_US = epoch_us(dt.datetime.max.replace(tzinfo=UTC))  # the last receive time a datetime holds
_REPLAY_BLOCK = 4096  # file lines run_replay reads at once: at most this many in a decoded block or stored run
_OPEN_DAYS = 64  # day files a MessageStore keeps open
_MAX_PARTIAL = 64 * 1024  # bytes a live feed's partial line may hold, far above any sentence with its TAG block


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
        days = rows.utc_days()
        starts = np.flatnonzero(np.diff(days, prepend=0)).tolist()  # a day's ordinal is >= 1: row 0 starts a run
        for start, stop in zip(starts, starts[1:] + [len(days)]):
            f = self._file(int(days[start]))
            f.write("\n".join(lines[start:stop]) + "\n")
            f.flush()

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
    """A block's messages to sink as one run in order: its rows, and spliced in at its place among them the run of
    each message the line parser decoded. Its errors go to error_sink."""
    runs, start = [], 0
    for outcome, row in zip(block.outcomes, block.rows):
        if outcome.run is not None:
            runs += [block.run(start, row), outcome.run] if row > start else [outcome.run]
            start = row
        elif outcome.kind == "error":
            error_sink(outcome)
    runs.append(block.run(start, len(block)))
    run = BlockRun.concat(runs)
    if len(run):
        _send(run, sink)


def _send(run: BlockRun, sink) -> None:
    """A run to sink with the stored document of each row, in order, each written by its table's writer: a
    position's from the texts of its fields, made here once and then carried by the run (BlockRun.texts)."""
    run.texts = run.positions.texts()
    lines = run.positions.lines(run.texts)
    if len(run.statics):
        documents = np.empty(len(run), dtype=object)
        documents[~run.static] = np.array(lines, dtype=object)
        documents[run.static] = np.array(run.statics.lines(), dtype=object)
        lines = documents.tolist()
    sink(run, lines)


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


def _raw_times(start_us: int, numbers, cadence_s: float) -> np.ndarray:
    """start_us plus n × cadence_s for each line number n (an int64 array), in microseconds rounded as
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
    ValueError; a receive time past year 9999 is RawTimeOutOfRange. The
    file is read in chunks of _REPLAY_BLOCK lines, each taken whole: its
    lines stripped and its blank lines dropped at once, with no statement
    run per line, and split into blocks only where a line changes between
    stored and NMEA. A read that fails partway keeps the lines of its chunk
    read before it, and they are replayed. NMEA blocks go to the decoder
    through feed_block, which gives what feeding their lines one by one
    would, wherever a chunk ends. Every message reaches sink(run, lines) in
    order: each block's messages in one call. A UTF-8 byte-order mark
    that starts the file is skipped. A byte that is not UTF-8 reads as
    U+FFFD, which makes its line malformed. A line that starts with
    `{` is read as a stored JSONL message, after the NMEA lines before it;
    one that does not parse, or that its "type"'s table does not take
    (`table.Table.check`), goes to error_sink as a "malformed" error.
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

    def replay(chunk: list[str], first: int) -> None:
        """A chunk of the file's lines, chunk[0] its line `first`, in blocks split where a line changes between
        stored and NMEA."""
        lines = [line.rstrip("\r\n") for line in chunk]
        heads = np.array([line[:1] for line in lines], dtype="U1")
        kept = np.flatnonzero(heads != "")  # a blank line only takes its line number
        if len(kept) < len(lines):
            lines = [lines[k] for k in kept.tolist()]
        summary.lines += len(lines)
        stored = (heads[kept] == "{").view(np.int8)
        starts = np.flatnonzero(np.diff(stored, prepend=2)).tolist()  # where a block starts
        for start, stop in zip(starts, starts[1:] + [len(lines)]):
            if not stored[start]:
                times = _raw_times(start_us, first + kept[start:stop], raw_cadence_s)
                _deliver(dec.feed_block(lines[start:stop], times), sink, error_sink)
            else:
                checked, static = ([], []), []  # the checked values of positions and of statics; which is which
                for line in lines[start:stop]:
                    try:
                        doc = parse_json(line)
                        kind = doc.get("type")
                        if kind not in (Positions.doc_type, Statics.doc_type):
                            raise ValueError(f"unknown message type {kind!r}")
                        is_static = kind == Statics.doc_type
                        checked[is_static].append((Statics if is_static else Positions).check(doc))
                        static.append(is_static)
                    except ValueError as exc:  # a line that starts with `{` and parses is an object
                        summary.errors += 1
                        error_sink(DecodeOutcome("error", error="malformed", detail=str(exc), raw=line))
                summary.messages += len(static)
                if static:
                    _send(BlockRun(Positions.of_checked(checked[0]), Statics.of_checked(checked[1]),
                                   np.array(static, dtype=bool)), sink)

    with open(cfg.path, "r", encoding="utf-8-sig", errors="replace") as f:
        chunk: list[str] = []
        read = 0  # the file's lines before chunk
        try:
            while chunk.extend(itertools.islice(f, _REPLAY_BLOCK)) or chunk:
                taken, chunk = chunk, []  # taken first: a failing sink cannot resend them
                replay(taken, read)
                read += len(taken)
        finally:  # list.extend keeps the lines it took before a read fails: they are still delivered
            replay(chunk, read)
    for outcome in dec.finish():  # timeouts only
        error_sink(outcome)
    return summary.add(dec)


def run_live(
    cfg: SourceConfig,
    sink,
    stop,
    *,
    error_sink=None,
    rng: random.Random | None = None,
) -> IngestSummary:
    """Consume a line-oriented TCP feed until the stop event (a threading.Event) is set.

    The complete lines of each chunk received go to the decoder as one
    block, all with the chunk's receive time (whole seconds); a TAG-block
    time overrides it as in replay, and a line ends at \n, \r\n or \r as
    in replay. Each block's messages reach sink in one
    call, as in run_replay, before the next chunk is read. Waits a backoff
    with full jitter after a failed connect and after every disconnect,
    doubling from 1 s to a cap of 60 s by default and starting over once a
    connection delivers a complete line. A partial line at disconnect is
    discarded and counted as an error, and so is a partial line that grows
    past _MAX_PARTIAL bytes, with what follows it up to its line end;
    completed lines are never lost. Once the stop event is set it returns
    within the socket's 0.5 s timeout, fragment groups still pending counted
    as timeouts. Connection gaps are returned for outage bookkeeping.
    """
    import socket

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
            dropping = False  # the rest of an over-long line, up to its newline, is read and dropped
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
                    # lines end at \n, \r\n or \r as in a replayed file; \r\n, split or not, leaves an empty line
                    chunk = chunk.replace(b"\r", b"\n")
                    if dropping:
                        nl = chunk.find(b"\n")
                        if nl == -1:
                            continue
                        chunk, dropping = chunk[nl + 1 :], False
                    buf += chunk
                    nl = buf.rfind(b"\n")
                    if nl == -1:
                        if len(buf) > _MAX_PARTIAL:
                            summary.errors += 1  # an over-long line
                            buf, dropping = b"", True
                        continue
                    # no multi-byte character holds a newline or carriage return byte
                    text, buf = buf[:nl].decode("utf-8", errors="replace"), buf[nl + 1 :]
                    lines = [line for line in text.split("\n") if line]
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
