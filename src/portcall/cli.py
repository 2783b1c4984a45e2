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

Exit codes: 0 success, 1 data-quality threshold exceeded, 2 usage or I/O
error.
"""

import argparse
import datetime as dt
import hashlib
import json
import pathlib
import sys
import threading

from . import __version__, jsonl, metrics, synth, validate, voyage
from .codec import PositionReport
from .geo import AreaFilter, InvalidPolygon, PortGeometry, load_port_geometry
from .ingest import MessageStore, SourceConfig, run_live, run_replay
from .jsonl import format_ts, message_from_dict, message_to_dict, parse_ts

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad arguments or unreadable inputs; main() reports it and exits 2."""


def _sha256(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: pathlib.Path, command: str, config: dict, inputs, outputs) -> None:
    """Record the stage's config and the sha256 of each given file that exists."""
    doc = {
        "tool": "portcall",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(pathlib.Path(p)) for p in inputs if p and pathlib.Path(p).exists()},
        "outputs": {str(p): _sha256(pathlib.Path(p)) for p in outputs if pathlib.Path(p).exists()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# loading the inputs named on the command line


def _existing(path) -> pathlib.Path:
    path = pathlib.Path(path)
    if not path.exists():
        raise UsageError(f"input {path} does not exist")
    return path


def _load_port(path) -> PortGeometry | None:
    if not path:
        return None
    try:
        return load_port_geometry(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad port geometry: {exc}") from exc


def _load_validation(config_path, method, port_path) -> tuple[validate.ValidationConfig, PortGeometry | None]:
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


def _area_filter(area, center, radius_m: float) -> AreaFilter | None:
    try:
        if area:
            return AreaFilter.from_geojson(area)
        if center:
            lat_s, _, lon_s = center.partition(",")
            return AreaFilter.circle(float(lat_s), float(lon_s), radius_m)
    except (OSError, ValueError, InvalidPolygon) as exc:
        raise UsageError(f"bad area: {exc}") from exc
    return None


def _load_ground_truth(path, exclude_dates) -> tuple[metrics.ArrivalTable | None, set[dt.date]]:
    if not path:
        return None, set()
    try:
        table = metrics.load_ground_truth(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad ground truth: {exc}") from exc
    exclude = {dt.date.fromisoformat(s) for s in exclude_dates.split(",")} if exclude_dates else set()
    return table, exclude


def _load_jsonl(path: pathlib.Path, what: str, from_dict, kind: str | None = None) -> list:
    """The documents in a stage's JSONL input (only those of one type, if given), converted.

    A line that is not JSON or does not convert is a usage error.
    """
    try:
        return [from_dict(doc) for doc in jsonl.read_jsonl(path) if kind is None or doc.get("type") == kind]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"bad {what} in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# decode


def decode_stage(source: pathlib.Path, out: pathlib.Path, errors: pathlib.Path, raw_start: str,
                 raw_cadence_s: float, max_error_rate: float | None):
    """Decode an NMEA file (or stored JSONL messages) into typed JSONL plus an error channel.

    Returns the position reports, the ship type of every MMSI that sent
    static data, and the exit status of the error-rate check. Timestamps are
    cut to the whole seconds the JSONL holds, so later stages see the values
    a staged run reads back from the file.
    """
    positions: list[PositionReport] = []
    ship_types: dict[int, int] = {}
    with open(out, "w", encoding="utf-8", newline="\n") as fo, open(
        errors, "w", encoding="utf-8", newline="\n"
    ) as fe:

        def keep(msg):
            fo.write(jsonl.dumps(message_to_dict(msg)))
            fo.write("\n")
            if isinstance(msg, PositionReport):
                if msg.timestamp.microsecond:
                    msg.timestamp = msg.timestamp.replace(microsecond=0)
                positions.append(msg)
            else:
                ship_types[msg.mmsi] = msg.ship_type

        def reject(outcome):
            fe.write(jsonl.dumps({"error": outcome.error, "detail": outcome.detail, "raw": outcome.raw}))
            fe.write("\n")

        summary = run_replay(SourceConfig(mode="replay", path=source), keep, error_sink=reject,
                             raw_start=parse_ts(raw_start), raw_cadence_s=raw_cadence_s)
    print(
        f"decoded {len(positions)} positions, {summary.messages - len(positions)} statics, "
        f"{summary.errors} errors, {summary.skipped} skipped from {summary.lines} lines"
    )
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "decode",
        {"raw_start": raw_start, "raw_cadence_s": raw_cadence_s},
        [source],
        [out, errors],
    )
    status = EXIT_OK
    if max_error_rate is not None and summary.lines and summary.errors / summary.lines > max_error_rate:
        print(f"error rate {summary.errors / summary.lines:.3f} above threshold", file=sys.stderr)
        status = EXIT_QUALITY
    return positions, ship_types, status


def cmd_decode(args) -> int:
    source = _existing(args.input)
    out = pathlib.Path(args.output)
    errors = pathlib.Path(args.errors) if args.errors else out.with_suffix(".errors.jsonl")
    _, _, status = decode_stage(source, out, errors, args.raw_start, args.raw_cadence_s, args.max_error_rate)
    return status


# ---------------------------------------------------------------------------
# validate


def _outage_to_dict(o: validate.Outage) -> dict:
    return {
        "scope": o.scope,
        "start": format_ts(o.start),
        "end": format_ts(o.end),
        "subject": o.subject,
        "cell_deg": o.cell_deg,
    }


def validated_to_dict(vm: validate.ValidatedMessage) -> dict:
    doc = message_to_dict(vm.report)
    doc["type"] = "validated"
    doc["corrected_navstat"] = vm.corrected_navstat
    doc["method"] = vm.method
    doc["agreed_with_reported"] = vm.agreed_with_reported
    doc["gap_flag"] = vm.gap_flag
    return doc


_VALIDATED_ONLY = ("type", "corrected_navstat", "method", "agreed_with_reported", "gap_flag")


def validated_from_dict(doc: dict) -> validate.ValidatedMessage:
    base = {k: v for k, v in doc.items() if k not in _VALIDATED_ONLY}
    base["type"] = "position"
    return validate.ValidatedMessage(
        report=message_from_dict(base),
        corrected_navstat=doc["corrected_navstat"],
        method=doc["method"],
        agreed_with_reported=doc["agreed_with_reported"],
        gap_flag=doc.get("gap_flag", False),
    )


def validate_stage(positions: list[PositionReport], port: PortGeometry | None, cfg: validate.ValidationConfig,
                   out: pathlib.Path, outages_out: pathlib.Path, *, source: pathlib.Path, port_path: str | None,
                   config_path: str | None, min_agreement: float | None):
    """Correct the statuses, detect outages and flag the gaps they silenced.

    Returns the validated messages and the exit status of the agreement
    check.
    """
    outages = validate.detect_outages(positions)
    validated = validate.validate_stream(positions, port, cfg, outages=outages)
    jsonl.write_jsonl(out, (validated_to_dict(vm) for vm in validated))
    jsonl.write_jsonl(outages_out, (_outage_to_dict(o) for o in outages))
    agreement = (
        sum(1 for vm in validated if vm.agreed_with_reported) / len(validated) if validated else 1.0
    )
    print(f"validated {len(validated)} messages, agreement with reported {agreement:.3f}, "
          f"{len(outages)} outages")
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "validate",
        {"method": cfg.method, "config": config_path or "", "port": port_path or ""},
        [source, port_path, config_path],
        [out, outages_out],
    )
    status = EXIT_OK
    if min_agreement is not None and agreement < min_agreement:
        print(f"agreement {agreement:.3f} below threshold", file=sys.stderr)
        status = EXIT_QUALITY
    return validated, status


def cmd_validate(args) -> int:
    source = _existing(args.input)
    cfg, port = _load_validation(args.config, args.method, args.port)
    out = pathlib.Path(args.output)
    outages_out = pathlib.Path(args.outages_output) if args.outages_output else out.with_suffix(".outages.jsonl")
    positions = _load_jsonl(source, "position message", message_from_dict, "position")
    _, status = validate_stage(positions, port, cfg, out, outages_out, source=source,
                               port_path=args.port, config_path=args.config, min_agreement=args.min_agreement)
    return status


# ---------------------------------------------------------------------------
# voyages


def voyages_stage(messages: list[validate.ValidatedMessage], area: AreaFilter | None, out: pathlib.Path, *,
                  source: pathlib.Path, area_path: str | None, center: str | None,
                  radius_m: float) -> list[voyage.Voyage]:
    """Group the messages inside the area into voyages with phases.

    A voyage is gap-flagged from its own messages' gap flags, so with an area
    only the gaps between in-area messages count.
    """
    if area is not None:
        messages = [m for m in messages if area.contains(m.report.lat, m.report.lon)]
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
    )
    return voyages


def cmd_voyages(args) -> int:
    source = _existing(args.input)
    area = _area_filter(args.area, args.center, args.radius_m)
    messages = _load_jsonl(source, "validated message", validated_from_dict, "validated")
    voyages_stage(messages, area, pathlib.Path(args.output), source=source, area_path=args.area,
                  center=args.center, radius_m=args.radius_m)
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


def metrics_stage(voyages: list[voyage.Voyage], ship_types: dict[int, int], port: PortGeometry | None,
                  truth: metrics.ArrivalTable | None, exclude: set[dt.date], outdir: pathlib.Path, *,
                  vessel: int | None, voyages_path: pathlib.Path, static_path: str | None, truth_path: str | None,
                  port_path: str | None) -> None:
    """Write the turnaround, arrival and weekly tables, a summary, and the MAE against the truth if given."""
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
    )


def cmd_metrics(args) -> int:
    voyages_path = _existing(args.voyages)
    port = _load_port(args.port)
    truth, exclude = _load_ground_truth(args.ground_truth, args.exclude_dates)
    voyages = _load_jsonl(voyages_path, "voyage", voyage.voyage_from_dict)
    ship_types = {}
    if args.static:
        statics = _load_jsonl(_existing(args.static), "static message", message_from_dict, "static")
        ship_types = {s.mmsi: s.ship_type for s in statics}
    metrics_stage(voyages, ship_types, port, truth, exclude, pathlib.Path(args.output_dir), vessel=args.vessel,
                  voyages_path=voyages_path, static_path=args.static, truth_path=args.ground_truth,
                  port_path=args.port)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth / ingest / run


def cmd_synth(args) -> int:
    if args.scenario:
        try:
            scenario = synth.Scenario.load(args.scenario)
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"bad scenario: {exc}") from exc
    elif args.preset == "ferry":
        scenario = synth.ferry_scenario(days=args.days, error_p=args.error_p, seed=args.seed)
    else:
        scenario = synth.mixed_port_scenario(
            n_vessels=args.vessels, days=args.days, error_p=args.error_p, seed=args.seed
        )
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
    )
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        cfg = SourceConfig.parse_source(args.source, replay_speed=args.replay_speed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    store = MessageStore(args.store)
    try:
        if cfg.mode == "replay":
            summary = run_replay(cfg, store.append)
        else:
            stop = threading.Event()
            try:
                summary = run_live(cfg, store.append, stop)
            except KeyboardInterrupt:
                stop.set()
                raise
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    finally:
        store.close()
    print(
        f"ingested {summary.messages} messages ({summary.errors} errors, "
        f"{summary.skipped} skipped) into {args.store}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    source = _existing(args.input)
    cfg, port = _load_validation(args.config, args.method, args.port)
    area = _area_filter(args.area, args.center, args.radius_m)
    truth, exclude = _load_ground_truth(args.ground_truth, args.exclude_dates)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    decoded = outdir / "decoded.jsonl"
    validated_path = outdir / "validated.jsonl"
    voyages_path = outdir / "voyages.jsonl"
    positions, ship_types, status = decode_stage(source, decoded, outdir / "errors.jsonl", args.raw_start,
                                                 args.raw_cadence_s, args.max_error_rate)
    validated, _ = validate_stage(positions, port, cfg, validated_path, outdir / "outages.jsonl",
                                  source=decoded, port_path=args.port, config_path=args.config,
                                  min_agreement=None)
    voyages = voyages_stage(validated, area, voyages_path, source=validated_path, area_path=args.area,
                            center=args.center, radius_m=args.radius_m)
    metrics_stage(voyages, ship_types, port, truth, exclude, outdir / "metrics", vessel=args.vessel,
                  voyages_path=voyages_path, static_path=str(decoded), truth_path=args.ground_truth,
                  port_path=args.port)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="portcall", description=__doc__)
    parser.add_argument("--version", action="version", version=f"portcall {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="NMEA lines to typed JSONL messages")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--errors", help="error-channel JSONL (default: <output>.errors.jsonl)")
    p.add_argument("--raw-start", default="2000-01-01T00:00:00Z", help="rx time of untagged line 0")
    p.add_argument("--raw-cadence-s", type=float, default=1.0, help="rx spacing for untagged lines")
    p.add_argument("--max-error-rate", type=float, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("validate", help="correct navigational statuses")
    p.add_argument("--input", required=True, help="decoded JSONL")
    p.add_argument("--output", required=True)
    p.add_argument("--outages-output", default=None)
    p.add_argument("--port", help="GeoJSON with anchorage/terminal polygons")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--method", choices=validate.METHODS)
    p.add_argument("--min-agreement", type=float, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("voyages", help="group validated messages into voyages, flagged by their gap flags")
    p.add_argument("--input", required=True, help="validated JSONL")
    p.add_argument("--output", required=True)
    p.add_argument("--area", help="GeoJSON polygon bounding the port area")
    p.add_argument("--center", help="lat,lon of a circular port area")
    p.add_argument("--radius-m", type=float, default=10000.0)
    p.set_defaults(func=cmd_voyages)

    p = sub.add_parser("metrics", help="turnaround/wait/arrival reports")
    p.add_argument("--voyages", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--static", help="decoded JSONL supplying ship types")
    p.add_argument("--ground-truth", help="CSV of port call records")
    p.add_argument("--exclude-dates", help="comma-separated ISO dates to skip in MAE")
    p.add_argument("--vessel", type=int, help="emit a per-vessel schedule table")
    p.add_argument("--port", help="GeoJSON for terminal attribution")
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

    p = sub.add_parser("run", help="decode + validate + voyages + metrics in one go")
    p.add_argument("--input", required=True, help="NMEA file")
    p.add_argument("--outdir", required=True)
    p.add_argument("--port", help="GeoJSON with anchorage/terminal polygons")
    p.add_argument("--config")
    p.add_argument("--method", choices=validate.METHODS)
    p.add_argument("--area")
    p.add_argument("--center")
    p.add_argument("--radius-m", type=float, default=10000.0)
    p.add_argument("--ground-truth")
    p.add_argument("--exclude-dates")
    p.add_argument("--vessel", type=int)
    p.add_argument("--raw-start", default="2000-01-01T00:00:00Z")
    p.add_argument("--raw-cadence-s", type=float, default=1.0)
    p.add_argument("--max-error-rate", type=float, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
