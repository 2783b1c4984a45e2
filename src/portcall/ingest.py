"""AIS data acquisition: live TCP line streams, file replay, persistence.

The live client speaks the line-oriented dispatcher protocol (one NMEA
sentence per line over TCP) and reconnects with exponentially backed-off,
fully jittered delays. Connection gaps are recorded so they can seed the
outage detector. Replay reads either raw/tag-blocked NMEA or previously
stored JSONL messages, optionally pacing emission by the recorded
timestamps. Both cut the bytes they read into lines with one splitter
(_lines), and NMEA goes to MessageDecoder.feed_block as bytes, in blocks:
the complete lines of each chunk received, or of each _REPLAY_BLOCK lines
of a file. A byte that is not UTF-8 makes its line malformed.

Every message leaves this module as a table row, with no object built per
message: the sink is called as sink(run, documents) with a codec.BlockRun,
rows in receive order, and the stored JSONL of its rows as bytes. Each
block of lines is one call: a decoded block's rows, with the one-row run of
each message the line parser decoded spliced in at its line; or up to
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
_REPLAY_BLOCK = 4096  # file lines run_replay replays at once: at most this many in a decoded block or stored run
_READ_BYTES = 1 << 18  # bytes run_replay reads at once, about a block of lines
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
            f = self._open[ordinal] = open(self.root / name, "ab")
        return f

    def append(self, rows: BlockRun, documents: bytes) -> None:
        """Write a run of rows, given their stored documents in order as JSONL; a row without a time goes to 1970."""
        days = rows.utc_days()
        starts = np.flatnonzero(np.diff(days, prepend=0)).tolist()  # a day's ordinal is >= 1: row 0 starts a run
        cuts = _row_starts(documents)[starts[1:]].tolist() if len(starts) > 1 else []
        for day, start, stop in zip(days[starts].tolist(), [0, *cuts], [*cuts, len(documents)]):
            f = self._file(day)
            f.write(documents[start:stop])
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


def _row_starts(documents: bytes) -> np.ndarray:
    """Where each line of JSONL starts, and its length last."""
    return np.concatenate(([0], np.flatnonzero(np.frombuffer(documents, dtype=np.uint8) == 10) + 1))


def _send(run: BlockRun, sink) -> None:
    """A run to sink with its rows' stored documents as JSONL: the positions' at once, from the texts of their fields
    made here once and then carried by the run (BlockRun.texts), and each static's spliced in at its row."""
    run.texts = run.positions.texts()
    documents = run.positions.jsonl(run.texts)
    if len(run.statics):
        at = [0, *_row_starts(documents)[np.flatnonzero(run.static) - np.arange(len(run.statics))].tolist()]
        parts = zip([documents[a:b] for a, b in zip(at, at[1:])], run.statics.jsonl().splitlines(keepends=True))
        documents = b"".join(itertools.chain(*parts, [documents[at[-1] :]]))
    sink(run, documents)


def _paced(sink, speed: float, sleep):
    """sink, handed each row of a run as a run of one right after sleeping the time since the row before over
    speed. A static held at time 0, which is stored without one, neither pauses nor moves the clock."""
    prev_us = None

    def paced(run: BlockRun, documents: bytes) -> None:
        nonlocal prev_us
        cuts = _row_starts(documents).tolist()
        for k in range(len(run)):
            row = run.run(k, k + 1)
            t_us = int((row.statics if row.static[0] else row.positions).time_us[0])
            if t_us or not row.static[0]:
                if prev_us is not None:
                    sleep(max(0.0, (t_us - prev_us) / 1_000_000) / speed)
                prev_us = t_us
            sink(row, documents[cuts[k] : cuts[k + 1]])

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


def _lines(data: bytes, final: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The lines that end in data: each one's start and end, its line end left out, and where the rest starts. A line
    ends at \\n, \\r\\n or \\r, but a \\r that ends data only when final: the next bytes may start with its \\n."""
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b <= 13)  # a line holds almost no byte below 14: few to look at again
    ends = ends[(b[ends] == 10) | (b[ends] == 13)]
    lf = np.zeros(len(ends), dtype=bool)  # the \n of a \r\n, which ends no line of its own
    lf[1:] = (ends[1:] == ends[:-1] + 1) & (b[ends[:-1]] == 13) & (b[ends[1:]] == 10)
    starts = np.concatenate(([0], (ends + 1 + np.append(lf, False)[1:])[~lf]))
    ends = ends[~lf]
    if data.endswith(b"\r") and not final:
        ends = ends[:-1]
    return starts[: len(ends)], ends, int(starts[len(ends)])


def _blocks(f):
    """A binary file's lines, blank ones included, in blocks of _REPLAY_BLOCK: bytes holding the block, its lines'
    bounds in them (_lines) and its first line's number. A failed read's error follows the complete lines before it."""
    held, first, final = f.read(3).removeprefix(b"\xef\xbb\xbf"), 0, False  # UTF-8's byte-order mark
    while not final:
        try:
            data = f.read(_READ_BYTES)
        except BaseException:
            yield held, *_lines(held, False)[:2], first
            raise
        buf, final = held + data, not data
        starts, ends, rest = _lines(buf, final)
        if final and rest < len(buf):  # a last line without a line end
            starts, ends = np.append(starts, rest), np.append(ends, len(buf))
        whole = len(ends) if final else len(ends) - len(ends) % _REPLAY_BLOCK  # the lines of whole blocks
        held = buf[starts[whole] if whole < len(ends) else rest :]
        for k in range(0, whole, _REPLAY_BLOCK):
            yield buf, starts[k : k + _REPLAY_BLOCK], ends[k : k + _REPLAY_BLOCK], first + k
        first += whole


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
    file is read as bytes in blocks of _REPLAY_BLOCK lines (_blocks), each
    taken whole: its blank lines dropped at once, with no statement run per
    line, and split into blocks only where a line changes between stored
    and NMEA. A read that fails partway keeps the complete lines read
    before it, and they are replayed. NMEA blocks go to the decoder through
    feed_block, which gives what feeding their lines one by one would,
    wherever a block ends. Every message reaches sink(run, documents) in
    order: each block's messages in one call. A line read as text reads as
    in the file read as UTF-8 text, a byte-order mark that starts it skipped
    and a byte that is not UTF-8 as U+FFFD, which makes its line malformed.
    A line that starts with `{` is read as a stored JSONL message, after
    the NMEA lines before it; one that does not parse, or that its "type"'s
    table does not take (`table.Table.check`), goes to error_sink as a
    "malformed" error.
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

    def replay(data: bytes, starts: np.ndarray, ends: np.ndarray, first: int) -> None:
        """A block of the file's lines, data[starts[k]:ends[k]] its line first + k, in blocks split where a line
        changes between stored and NMEA."""
        kept = np.flatnonzero(ends > starts)  # a blank line only takes its line number
        starts, ends = starts[kept], ends[kept]
        summary.lines += len(kept)
        stored = (np.frombuffer(data, dtype=np.uint8)[starts] == ord("{")).view(np.int8)
        runs = np.flatnonzero(np.diff(stored, prepend=2)).tolist()  # where a block starts
        for start, stop in zip(runs, runs[1:] + [len(kept)]):
            if not stored[start]:
                times = _raw_times(start_us, first + kept[start:stop], raw_cadence_s)
                _deliver(dec.feed_block(data, starts[start:stop], ends[start:stop], times), sink, error_sink)
            else:
                checked, static = ([], []), []  # the checked values of positions and of statics; which is which
                for line_start, line_end in zip(starts[start:stop].tolist(), ends[start:stop].tolist()):
                    line = data[line_start:line_end].decode("utf-8", "replace")
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

    with open(cfg.path, "rb") as f:
        for block in _blocks(f):
            replay(*block)
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
    time overrides it as in replay, and lines are split as in replay, blank
    ones dropped. Each block's messages reach sink in one
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

    def receive(buf: bytes, final: bool) -> bytes:
        """The lines that end in buf (_lines), but blank ones, to the decoder as one block; the bytes after them."""
        nonlocal backoff, dropping
        starts, ends, rest = _lines(buf, final)
        if dropping:  # the first line is the rest of an over-long line
            starts, ends, dropping = starts[1:], ends[1:], not len(ends)
        held = b"" if dropping else buf[rest:]
        if len(held) > _MAX_PARTIAL:
            summary.errors += 1  # an over-long line
            held, dropping = b"", True
        starts, ends = starts[ends > starts], ends[ends > starts]
        if len(ends):
            backoff = cfg.reconnect_initial_s  # the feed works again
        summary.lines += len(ends)
        _deliver(dec.feed_block(buf, starts, ends, np.full(len(ends), epoch_us(_utcnow_s()))), sink, error_sink)
        return held

    while not stop.is_set():
        try:
            sock = socket.create_connection(cfg.endpoint, timeout=5.0)
        except OSError:
            sock = None
        if sock is not None:
            if disconnected_at is not None:
                summary.connection_gaps.append((disconnected_at, _utcnow_s()))
            sock.settimeout(0.5)
            held, dropping = b"", False  # dropping: the rest of an over-long line, up to its line end, is dropped
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
                    held = receive(held + chunk, False)
            finally:
                sock.close()
            if receive(held, True).strip():  # the feed ended, and a \r that ends it ends its line
                summary.errors += 1  # partial line lost at disconnect
            disconnected_at = _utcnow_s()
        # after a failed connect and after every disconnect alike, so a feed that accepts and closes cannot spin
        stop.wait(rng.uniform(0.0, backoff))
        backoff = min(backoff * 2.0, cfg.reconnect_max_s)
    for outcome in dec.finish():
        error_sink(outcome)
    return summary.add(dec)
