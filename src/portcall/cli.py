"""Command-line entry point wiring the pipeline stages together.

Subcommands mirror the processing stages (decode, validate, voyages,
metrics) plus ingest, synth, and an all-in-one run. Each stage is one
function that takes and returns objects and writes that stage's JSONL/CSV
files and manifest. A staged command loads its inputs from files and calls
its stage, so stages compose through the filesystem; `run` calls the four
stages back to back, hands the objects on in memory, and writes the same
files as the staged commands run one after another. `validate` writes the
outages it found and each message's gap flag; `voyages` reads only the
validated messages and flags a voyage from their gap flags.

Positions go from decode to voyages as columns: `decode_stage` returns one
`codec.Positions`, the table that the decoder gives, and writes the bytes
of JSONL it comes with, and `validate_stage` one `columnar.Validated`; no
stage builds an object per decoded row. The staged `validate`, `voyages`
and `metrics --static` commands read their stored lines into the same
tables, _ROWS_PER_PART lines at a time, through each table's checked
reader (`table.Table.read`), and build no object per line either.

`run` formats a position's latitude and longitude once: decode keeps the
JSON text it wrote them with (HANDED_TEXTS, as byte columns), and validate
writes each validated line with its position's texts, taken in the order
validate_stream sorts its rows by, formatting only the other fields. The
staged `validate` hands no texts: the same validate_stage formats every
field of the rows it validated, so it writes `validated.jsonl` without the
hand-off's reordering, and a `run` whose texts went to the wrong rows
writes other bytes than the staged commands.

Exit codes: 0 success, 1 data-quality threshold exceeded, 2 usage or I/O
error.

Each command imports the stages it runs and no other: `validate`, `voyage`,
`geo`, `metrics` and `synth` are imported by the commands that use them,
and the live feed's modules by `ingest` from a socket, so `ingest` and
`decode` load only the decoder, its tables and the store.
"""

import argparse
import datetime as dt
import itertools
import json
import math
import pathlib
import sys
from typing import TYPE_CHECKING, Collection, Mapping

import numpy as np

from . import __version__, columnar, jsonl
from .codec import Positions, Statics
from .ingest import MessageStore, RawTimeOutOfRange, SourceConfig, run_live, run_replay
from .jsonl import message_from_dict, message_to_dict
from .table import CHUNK_ROWS, Table, format_ts, parse_ts, stack_rows

if TYPE_CHECKING:
    from . import geo, metrics, validate, voyage

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad arguments or unreadable inputs; main() reports it and exits 2."""


def _sha256(path: pathlib.Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: pathlib.Path, command: str, config: dict, inputs, outputs,
                    digests: dict[pathlib.Path, str]) -> None:
    """Record the stage's config and the sha256 of each given file that exists.

    `digests` holds the sha256 of every file this command has hashed, by
    path, so a file that several manifests name is read once: a stage
    hashes its outputs after closing them, and no stage writes a file
    another one has hashed.
    """

    def digest(p) -> str:
        p = pathlib.Path(p)
        if p not in digests:
            digests[p] = _sha256(p)
        return digests[p]

    doc = {
        "tool": "portcall",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): digest(p) for p in inputs if p and pathlib.Path(p).exists()},
        "outputs": {str(p): digest(p) for p in outputs if pathlib.Path(p).exists()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# loading the inputs named on the command line


def _readable(path) -> pathlib.Path:
    """`path`, once it opens for reading; a usage error if it does not."""
    path = pathlib.Path(path)
    try:
        open(path, "rb").close()
    except FileNotFoundError:
        raise UsageError(f"input {path} does not exist") from None
    except OSError as exc:
        raise UsageError(f"input {path} cannot be read: {exc.strerror}") from exc
    return path


def load_port_geometry(path) -> "geo.PortGeometry":
    """geo.load_port_geometry, imported by the first command that reads port polygons; a name of this module, as
    perfbench's tracer looks it up."""
    from . import geo

    return geo.load_port_geometry(path)


def _load_port(path) -> "geo.PortGeometry | None":
    if not path:
        return None
    try:
        return load_port_geometry(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad port geometry: {exc}") from exc


def _load_validation(config_path, method, port_path) -> "tuple[validate.ValidationConfig, geo.PortGeometry | None]":
    from . import validate

    try:
        cfg = validate.ValidationConfig.from_file(config_path) if config_path else validate.ValidationConfig()
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}") from exc
    if method:
        cfg.method = method
    port = _load_port(port_path)
    if port is None and cfg.method == "geofence":
        raise UsageError("method 'geofence' requires --port polygons")
    return cfg, port


def _area_filter(area, center, radius_m: float) -> "geo.AreaFilter | None":
    from . import geo

    if not (math.isfinite(radius_m) and radius_m > 0):
        raise UsageError(f"bad --radius-m {radius_m!r}: not a finite number of metres > 0")
    if area:
        try:
            return geo.AreaFilter.from_geojson(area)
        except (OSError, ValueError, geo.InvalidPolygon) as exc:
            raise UsageError(f"bad area: {exc}") from exc
    if center:
        try:
            lat, lon = map(float, center.split(","))
        except ValueError:
            raise UsageError(f"bad --center {center!r}: not a lat,lon") from None
        return geo.AreaFilter.circle(_number_in(lat, -90, 90, "--center"), _number_in(lon, -180, 180, "--center"),
                                 radius_m)
    return None


def _load_ground_truth(path, exclude_dates) -> "tuple[metrics.ArrivalTable | None, set[dt.date]]":
    try:
        exclude = {dt.date.fromisoformat(s) for s in exclude_dates.split(",")} if exclude_dates else set()
    except ValueError as exc:
        raise UsageError(f"bad --exclude-dates: {exc}") from None
    if not path:
        return None, exclude
    from . import metrics

    try:
        table = metrics.load_ground_truth(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad ground truth: {exc}") from exc
    return table, exclude


def _raw_start(text: str) -> dt.datetime:
    """The receive time of an untagged line 0, from --raw-start."""
    try:
        return parse_ts(text)
    except ValueError as exc:
        raise UsageError(f"bad --raw-start {text!r}: {exc}") from None


def _non_negative(value: float, flag: str) -> float:
    """The value of a flag that takes a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"bad {flag} {value!r}: not a finite number >= 0")
    return value


def _number_in(value: float | None, low: float, high: float, flag: str) -> float | None:
    """The value of a flag that takes a number in [low, high], if given."""
    if value is not None and not low <= value <= high:
        raise UsageError(f"bad {flag} {value!r}: not a number in [{low:g}, {high:g}]")
    return value


def _load_parts(path: pathlib.Path, what: str, convert, doc_type: str | None = None, size: int | None = None):
    """convert(documents) of the documents in a stage's JSONL input (only those of one type, if given), in lists
    of up to `size` (all in one without a size).

    A line that is not JSON or does not convert is a usage error.
    """
    docs = (doc for doc in jsonl.read_jsonl(path) if doc_type is None or doc.get("type") == doc_type)
    try:
        while part := list(itertools.islice(docs, size)):
            yield convert(part)
    except (ValueError, TypeError, AttributeError) as exc:
        raise UsageError(f"bad {what} in {path}: {exc}") from exc


# stored lines a staged command holds as documents before it reads them into columns
_ROWS_PER_PART = 4096


def _load_table(path: pathlib.Path, what: str, table: type[Table]) -> Table:
    """The rows of the documents of the table's type in a stage's JSONL input, read _ROWS_PER_PART at a time."""
    return table.concat(list(_load_parts(path, what, table.read, table.doc_type, _ROWS_PER_PART)))


# ---------------------------------------------------------------------------
# decode

# The position fields whose JSON text `run` keeps from decode for validate to write again: latitude and longitude,
# nearly every one a distinct float that repr formats on its own, and so most of what a position's text costs.
# Every field's text would hold 83 B per position through validate's peak memory, where these hold 36 B.
HANDED_TEXTS = ("lat", "lon")


def decode_stage(source: pathlib.Path, out: pathlib.Path, errors: pathlib.Path, raw_start: dt.datetime,
                 raw_cadence_s: float, max_error_rate: float | None, *, keep_texts: Collection[str],
                 digests: dict[pathlib.Path, str]):
    """Decode an NMEA file (or stored JSONL messages) into typed JSONL plus an error channel.

    Each run of messages that run_replay hands on is written to `out` in
    one write of the bytes it gives, the stored document of each row, and
    its statics' ship types are read from their columns. Returns the positions
    as one `codec.Positions` table in the order they came; the JSON text
    their lines were written with of each field keep_texts names, by
    attribute (`table.Table.texts`), for validate_stage to write again; the
    ship type of every MMSI that sent static data (its last); and the exit
    status of the error-rate check. The positions and texts of every run, one per block of lines at
    most, are concatenated once after the last line. Times are cut to the
    whole seconds the JSONL holds, so later stages see the values a staged
    run reads back from the file.
    """
    parts: list[Positions] = []  # the positions of each run, in order
    texts: list[dict[str, np.ndarray]] = []  # the kept texts of each run's positions
    ship_types: dict[int, int] = {}
    with open(out, "wb") as fo, open(errors, "w", encoding="utf-8", newline="\n") as fe:

        def keep(run, documents):
            fo.write(documents)
            parts.append(run.positions)
            texts.append({name: run.texts[name] for name in keep_texts})
            ship_types.update(zip(run.statics.mmsi.tolist(), run.statics.ship_type.tolist()))

        def reject(outcome):
            fe.write(jsonl.dumps({"error": outcome.error, "detail": outcome.detail, "raw": outcome.raw}))
            fe.write("\n")

        try:
            summary = run_replay(SourceConfig(mode="replay", path=source), keep, error_sink=reject,
                                 raw_start=raw_start, raw_cadence_s=raw_cadence_s)
        except RawTimeOutOfRange as exc:
            raise UsageError(f"bad --raw-cadence-s {raw_cadence_s!r}: {exc}") from None
    positions = Positions.concat(parts)
    positions.time_us = positions.time_us - positions.time_us % 1_000_000
    texts = {name: stack_rows([run_texts[name] for run_texts in texts]) for name in keep_texts}
    print(
        f"decoded {len(positions)} positions, {summary.messages - len(positions)} statics, "
        f"{summary.errors} errors, {summary.skipped} skipped from {summary.lines} lines"
    )
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "decode",
        {"raw_start": raw_start.isoformat(), "raw_cadence_s": raw_cadence_s},
        [source],
        [out, errors],
        digests,
    )
    status = EXIT_OK
    if max_error_rate is not None and summary.lines and summary.errors / summary.lines > max_error_rate:
        print(f"error rate {summary.errors / summary.lines:.3f} above threshold", file=sys.stderr)
        status = EXIT_QUALITY
    return positions, texts, ship_types, status


def cmd_decode(args) -> int:
    source = _readable(args.input)
    raw_start = _raw_start(args.raw_start)
    raw_cadence_s = _non_negative(args.raw_cadence_s, "--raw-cadence-s")
    max_error_rate = _number_in(args.max_error_rate, 0, 1, "--max-error-rate")
    out = pathlib.Path(args.output)
    errors = pathlib.Path(args.errors) if args.errors else out.with_suffix(".errors.jsonl")
    *_, status = decode_stage(source, out, errors, raw_start, raw_cadence_s, max_error_rate, keep_texts=(),
                              digests={})
    return status


# ---------------------------------------------------------------------------
# validate


# The dict codec of one validated message: its position's document with the
# fields validate adds. Not on the run path, which writes and reads
# validated lines as a table (columnar.Validated); kept as the reference
# that the tests check those lines against.
def validated_to_dict(vm: columnar.ValidatedMessage) -> dict:
    return {**message_to_dict(vm.report), **columnar.Validated.to_dict(vm)}


def validated_from_dict(doc: dict) -> columnar.ValidatedMessage:
    """The validated message a stored document holds; a field it lacks or holds a value of the wrong type of is a
    ValueError that starts with the field's key."""
    return columnar.ValidatedMessage(message_from_dict(doc), **columnar.Validated.values(doc))


def validate_stage(positions: Positions, texts: Mapping[str, np.ndarray], port: "geo.PortGeometry | None",
                   cfg: "validate.ValidationConfig", out: pathlib.Path, outages_out: pathlib.Path, *,
                   source: pathlib.Path, port_path: str | None, config_path: str | None,
                   min_agreement: float | None, digests: dict[pathlib.Path, str]):
    """Correct the statuses, detect outages and flag the gaps they silenced.

    texts holds the JSON text of any of the positions' fields, by attribute
    (`table.Table.texts`), row-aligned with them. Each validated line takes
    its position's texts, reordered as validate_stream orders its rows
    (validate.stream_order), and only the other fields are formatted here.
    Returns the validated messages and the exit status of the agreement
    check.
    """
    from . import validate

    order = validate.stream_order(positions)
    outages = validate.detect_outages(positions)
    validated = validate.validate_stream(positions, port, cfg, outages=outages)
    with open(out, "wb") as f:
        for a in range(0, len(validated), CHUNK_ROWS):
            rows = order[a:a + CHUNK_ROWS]
            f.write(validated[a:a + CHUNK_ROWS].jsonl({name: t[rows] for name, t in texts.items()}))
    jsonl.write_jsonl(outages_out, map(validate.Outages.to_dict, outages))
    agreement = np.count_nonzero(validated.agreed_with_reported) / len(validated) if len(validated) else 1.0
    print(f"validated {len(validated)} messages, agreement with reported {agreement:.3f}, "
          f"{len(outages)} outages")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "validate",
        {"method": cfg.method, "config": config_path or "", "port": port_path or ""},
        [source, port_path, config_path],
        [out, outages_out],
        digests,
    )
    status = EXIT_OK
    if min_agreement is not None and agreement < min_agreement:
        print(f"agreement {agreement:.3f} below threshold", file=sys.stderr)
        status = EXIT_QUALITY
    return validated, status


def cmd_validate(args) -> int:
    source = _readable(args.input)
    cfg, port = _load_validation(args.config, args.method, args.port)
    min_agreement = _number_in(args.min_agreement, 0, 1, "--min-agreement")
    out = pathlib.Path(args.output)
    outages_out = pathlib.Path(args.outages_output) if args.outages_output else out.with_suffix(".outages.jsonl")
    positions = _load_table(source, "position message", Positions)
    _, status = validate_stage(positions, {}, port, cfg, out, outages_out, source=source, port_path=args.port,
                               config_path=args.config, min_agreement=min_agreement, digests={})
    return status


# ---------------------------------------------------------------------------
# voyages


def voyages_stage(messages: columnar.Validated, area: "geo.AreaFilter | None", out: pathlib.Path, *,
                  source: pathlib.Path, area_path: str | None, center: str | None,
                  radius_m: float, digests: dict[pathlib.Path, str]) -> "list[voyage.Voyage]":
    """Group the messages inside the area into voyages with phases.

    A voyage is gap-flagged from its own messages' gap flags, so with an area
    only the gaps between in-area messages count.
    """
    from . import voyage

    if area is not None:
        messages = messages[area.contains(messages.positions.lat, messages.positions.lon)]
    voyages = [voyage.segment_phases(v) for v in voyage.extract_voyages(messages)]
    voyages = [voyage.flag_gaps(v) for v in voyages]
    jsonl.write_jsonl(out, (voyage.voyage_to_dict(v) for v in voyages))
    print(f"extracted {len(voyages)} voyages from {len(messages)} messages")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "voyages",
        {"area": area_path or "", "center": center or "", "radius_m": radius_m},
        [source],
        [out],
        digests,
    )
    return voyages


def cmd_voyages(args) -> int:
    source = _readable(args.input)
    area = _area_filter(args.area, args.center, args.radius_m)
    messages = _load_table(source, "validated message", columnar.Validated)
    voyages_stage(messages, area, pathlib.Path(args.output), source=source, area_path=args.area,
                  center=args.center, radius_m=args.radius_m, digests={})
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics


def _write_csv(path: pathlib.Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")


def _hours(delta: dt.timedelta) -> str:
    return f"{delta.total_seconds() / 3600.0:.3f}"


def metrics_stage(voyages: "list[voyage.Voyage]", ship_types: dict[int, int], port: "geo.PortGeometry | None",
                  truth: "metrics.ArrivalTable | None", exclude: set[dt.date], outdir: pathlib.Path, *,
                  vessel: int | None, voyages_path: pathlib.Path, static_path: str | None, truth_path: str | None,
                  port_path: str | None, digests: dict[pathlib.Path, str]) -> None:
    """Write the turnaround, arrival and weekly tables, a summary, and the MAE against the truth if given."""
    from . import metrics

    outdir.mkdir(parents=True, exist_ok=True)
    categories = {mmsi: metrics.vessel_category(st) for mmsi, st in ship_types.items()}

    records = metrics.schedule_table(voyages, port)
    turn_csv = outdir / "turnarounds.csv"
    _write_csv(
        turn_csv,
        ["mmsi", "terminal", "arrival", "departure", "turnaround_h"],
        (
            (r.mmsi, r.terminal_name or "", format_ts(r.arrival), format_ts(r.departure), _hours(r.turnaround))
            for r in records
        ),
    )

    arrivals = metrics.daily_arrivals(voyages, categories)
    arrivals_csv = outdir / "daily_arrivals.csv"
    _write_csv(
        arrivals_csv,
        ["date"] + list(metrics.CATEGORIES),
        ((d.isoformat(), *(arrivals[d][c] for c in metrics.CATEGORIES)) for d in sorted(arrivals)),
    )

    weekly = metrics.weekly_aggregate(records)
    weekly_csv = outdir / "weekly_turnaround.csv"
    _write_csv(weekly_csv, ["week", "mean_turnaround_h"], ((week, _hours(v)) for week, v in weekly.items()))

    outputs = [turn_csv, arrivals_csv, weekly_csv]
    summary: dict = {
        "n_voyages": len(voyages),
        "n_turnarounds": len(records),
        "gap_flagged": sum(1 for v in voyages if v.gap_flagged),
        "waits_h": {
            "mean": (
                sum((metrics.anchorage_wait(v).total_seconds() for v in voyages), 0.0)
                / 3600.0 / len(voyages)
                if voyages
                else None
            )
        },
    }

    if vessel:
        own = [v for v in voyages if v.mmsi == vessel]
        schedule = metrics.schedule_table(own, port)
        sched_csv = outdir / f"schedule_{vessel}.csv"
        _write_csv(
            sched_csv,
            ["arrival", "departure", "turnaround_h"],
            ((format_ts(r.arrival), format_ts(r.departure), _hours(r.turnaround)) for r in schedule),
        )
        outputs.append(sched_csv)
        summary["vessel"] = {"mmsi": vessel, "n_calls": len(schedule)}

    if truth is not None:
        try:
            maes, macro = metrics.arrivals_mae(arrivals, truth, exclude)
        except metrics.EmptyOverlap as exc:
            raise UsageError(f"ground truth does not overlap: {exc}") from exc
        summary["mae"] = {"per_category": maes, "macro": macro}
        print(f"daily-arrivals MAE per category: {maes}, macro {macro:.3f}")

    summary_path = outdir / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    outputs.append(summary_path)
    print(f"metrics over {len(voyages)} voyages written to {outdir}")
    _write_manifest(
        outdir / "metrics.manifest.json",
        "metrics",
        {"vessel": vessel, "ground_truth": truth_path or "", "static": static_path or ""},
        [voyages_path, static_path, truth_path, port_path],
        outputs,
        digests,
    )


def cmd_metrics(args) -> int:
    from . import voyage

    voyages_path = _readable(args.voyages)
    port = _load_port(args.port)
    truth, exclude = _load_ground_truth(args.ground_truth, args.exclude_dates)
    voyages = next(_load_parts(voyages_path, "voyage", lambda docs: list(map(voyage.voyage_from_dict, docs))), [])
    ship_types = {}
    if args.static:
        statics = _load_table(_readable(args.static), "static message", Statics)
        ship_types = dict(zip(statics.mmsi.tolist(), statics.ship_type.tolist()))
    metrics_stage(voyages, ship_types, port, truth, exclude, pathlib.Path(args.output_dir), vessel=args.vessel,
                  voyages_path=voyages_path, static_path=args.static, truth_path=args.ground_truth,
                  port_path=args.port, digests={})
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth / ingest / run


def cmd_synth(args) -> int:
    from . import synth

    try:
        if args.scenario:
            scenario = synth.Scenario.load(args.scenario)
        elif args.days < 1:
            raise UsageError(f"bad --days {args.days}: not at least 1")
        elif args.preset == "ferry":
            scenario = synth.ferry_scenario(days=args.days, error_p=args.error_p, seed=args.seed)
        elif args.vessels < 1:
            raise UsageError(f"bad --vessels {args.vessels}: not at least 1")
        else:
            scenario = synth.mixed_port_scenario(n_vessels=args.vessels, days=args.days, error_p=args.error_p,
                                                 seed=args.seed)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    lines, truth = synth.generate(scenario)
    nmea_path = pathlib.Path(args.out_nmea)
    with open(nmea_path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")
    truth.write_jsonl(args.out_truth)
    layout = synth.build_port(scenario.center)
    outputs = [nmea_path, pathlib.Path(args.out_truth)]
    if args.out_port:
        with open(args.out_port, "w", encoding="utf-8", newline="\n") as f:
            json.dump(layout.geojson(), f, indent=2, sort_keys=True)
            f.write("\n")
        outputs.append(pathlib.Path(args.out_port))
    print(f"generated {len(lines)} sentences for {len(scenario.vessels)} vessels")
    _write_manifest(
        nmea_path.with_suffix(nmea_path.suffix + ".manifest.json"),
        "synth",
        {"preset": args.preset, "seed": args.seed, "days": args.days, "error_p": args.error_p},
        [args.scenario],
        outputs,
        {},
    )
    return EXIT_OK


def _until_signalled(run):
    """run(stop), with SIGINT and SIGTERM setting the stop event instead of ending the process.

    The event is set from a thread of its own: the handler runs in the main
    thread, which may be holding the event's lock inside Event.wait.
    """
    import signal
    import threading

    stop = threading.Event()

    def handler(signum, frame):
        threading.Thread(target=stop.set).start()

    previous = {s: signal.signal(s, handler) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return run(stop)
    finally:
        for s, old in previous.items():
            signal.signal(s, old)


def cmd_ingest(args) -> int:
    try:
        cfg = SourceConfig.parse_source(args.source, replay_speed=_non_negative(args.replay_speed, "--replay-speed"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.mode == "replay":
        _readable(cfg.path)
    with MessageStore(args.store) as store:
        if cfg.mode == "replay":
            summary = run_replay(cfg, store.append)
        else:
            summary = _until_signalled(lambda stop: run_live(cfg, store.append, stop))
    print(
        f"ingested {summary.messages} messages ({summary.errors} errors, "
        f"{summary.skipped} skipped) into {args.store}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    source = _readable(args.input)
    cfg, port = _load_validation(args.config, args.method, args.port)
    area = _area_filter(args.area, args.center, args.radius_m)
    truth, exclude = _load_ground_truth(args.ground_truth, args.exclude_dates)
    raw_start = _raw_start(args.raw_start)
    raw_cadence_s = _non_negative(args.raw_cadence_s, "--raw-cadence-s")
    max_error_rate = _number_in(args.max_error_rate, 0, 1, "--max-error-rate")
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    decoded = outdir / "decoded.jsonl"
    validated_path = outdir / "validated.jsonl"
    voyages_path = outdir / "voyages.jsonl"
    digests: dict[pathlib.Path, str] = {}  # each file is hashed once for all four manifests
    positions, texts, ship_types, status = decode_stage(source, decoded, outdir / "errors.jsonl", raw_start,
                                                        raw_cadence_s, max_error_rate, keep_texts=HANDED_TEXTS,
                                                        digests=digests)
    validated, _ = validate_stage(positions, texts, port, cfg, validated_path, outdir / "outages.jsonl",
                                  source=decoded, port_path=args.port, config_path=args.config,
                                  min_agreement=None, digests=digests)
    del positions, texts  # the validated columns hold the positions sorted, and validated.jsonl is written
    voyages = voyages_stage(validated, area, voyages_path, source=validated_path, area_path=args.area,
                            center=args.center, radius_m=args.radius_m, digests=digests)
    metrics_stage(voyages, ship_types, port, truth, exclude, outdir / "metrics", vessel=args.vessel,
                  voyages_path=voyages_path, static_path=str(decoded), truth_path=args.ground_truth,
                  port_path=args.port, digests=digests)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="portcall", description=__doc__)
    parser.add_argument("--version", action="version", version=f"portcall {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of each stage that `run` takes as well, declared once in a parent parser
    decoding = argparse.ArgumentParser(add_help=False)
    decoding.add_argument("--raw-start", default="2000-01-01T00:00:00Z", help="rx time of untagged line 0")
    decoding.add_argument("--raw-cadence-s", type=float, default=1.0, help="rx spacing for untagged lines")
    decoding.add_argument("--max-error-rate", type=float, default=None)
    port = argparse.ArgumentParser(add_help=False)
    port.add_argument("--port", help="GeoJSON with anchorage/terminal polygons")
    validation = argparse.ArgumentParser(add_help=False)
    validation.add_argument("--config", help="key = value config file")
    validation.add_argument("--method", choices=columnar.METHODS)
    area = argparse.ArgumentParser(add_help=False)
    area.add_argument("--area", help="GeoJSON polygon bounding the port area")
    area.add_argument("--center", help="lat,lon of a circular port area")
    area.add_argument("--radius-m", type=float, default=10000.0)
    reports = argparse.ArgumentParser(add_help=False)
    reports.add_argument("--ground-truth", help="CSV of port call records")
    reports.add_argument("--exclude-dates", help="comma-separated ISO dates to skip in MAE")
    reports.add_argument("--vessel", type=int, help="emit a per-vessel schedule table")

    p = sub.add_parser("decode", parents=[decoding], help="NMEA lines to typed JSONL messages")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--errors", help="error-channel JSONL (default: <output>.errors.jsonl)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("validate", parents=[port, validation], help="correct navigational statuses")
    p.add_argument("--input", required=True, help="decoded JSONL")
    p.add_argument("--output", required=True)
    p.add_argument("--outages-output", default=None)
    p.add_argument("--min-agreement", type=float, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("voyages", parents=[area],
                       help="group validated messages into voyages, flagged by their gap flags")
    p.add_argument("--input", required=True, help="validated JSONL")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_voyages)

    p = sub.add_parser("metrics", parents=[port, reports], help="turnaround/wait/arrival reports")
    p.add_argument("--voyages", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--static", help="decoded JSONL supplying ship types")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--preset", choices=("mixed", "ferry"), default="mixed")
    p.add_argument("--vessels", type=int, default=10)
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--error-p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-nmea", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-port", help="write the port polygons as GeoJSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="read a live TCP feed or replay a file into a store")
    p.add_argument("--source", required=True, help="tcp://host:port or file:path")
    p.add_argument("--store", required=True, help="output directory (date-partitioned JSONL)")
    p.add_argument("--replay-speed", type=float, default=0.0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", parents=[decoding, port, validation, area, reports],
                       help="decode + validate + voyages + metrics in one go")
    p.add_argument("--input", required=True, help="NMEA file")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # an input or output a command cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
