"""Scores one CLI run's output files against the seeded truth.

Everything here reads the files the program wrote; nothing calls into the
program, so a change to the program cannot change how it is scored.
"""

import bisect
import collections
import dataclasses
import hashlib
import json
import pathlib
import re

from workloads import Expectation, Inputs, Workload

STATUS = {"underway": 0, "anchored": 1, "moored": 5}
ISO = "%Y-%m-%dT%H:%M:%SZ"


class TruthIndex:
    """The true status of a vessel at an instant, by bisecting its phases.

    TruthLog.status_at scans every phase per call; scoring calls it once per
    message, so the phases are indexed per vessel instead.
    """

    def __init__(self, phases):
        by_vessel = collections.defaultdict(list)
        for p in phases:
            by_vessel[p.mmsi].append((p.start.strftime(ISO), p.end.strftime(ISO), STATUS[p.kind]))
        self._starts = {}
        self._rest = {}
        for mmsi, rows in by_vessel.items():
            rows.sort()
            self._starts[mmsi] = [r[0] for r in rows]
            self._rest[mmsi] = [(r[1], r[2]) for r in rows]

    def status_at(self, mmsi: int, ts: str) -> int | None:
        i = bisect.bisect_right(self._starts.get(mmsi, ()), ts) - 1
        if i < 0:
            return None
        end, status = self._rest[mmsi][i]
        return status if ts < end else None


@dataclasses.dataclass
class Score:
    failed: int  # input lines whose expected outcome is missing or wrong
    status_accuracy: float
    quality: dict[str, float]
    problems: list[str]  # failed output checks, empty when all pass


def _jsonl(path: pathlib.Path):
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


def _mismatch(expected, got: collections.Counter) -> int:
    """Keys that did not appear exactly once, plus keys nobody expected."""
    expected = set(expected)
    return sum(abs(got.get(k, 0) - 1) for k in expected) + sum(c for k, c in got.items() if k not in expected)


def output_hashes(w: Workload, outdir: pathlib.Path) -> dict[str, str]:
    """sha256 of every output: from the CLI manifests for run, else hashed here."""
    hashes = {}
    if w.command == "run":
        for manifest in sorted(outdir.rglob("*.manifest.json")):
            for path, digest in json.loads(manifest.read_text())["outputs"].items():
                hashes[pathlib.Path(path).relative_to(outdir).as_posix()] = digest
    else:
        for path in sorted(outdir.glob("ais-*.jsonl")):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def score(w: Workload, inputs: Inputs, exp: Expectation, outdir: pathlib.Path, stdout: str) -> Score:
    truth = TruthIndex(inputs.truth.phases)
    if w.command == "run":
        return _score_run(inputs, exp, outdir, truth)
    return _score_ingest(exp, outdir, stdout, truth)


def _score_run(inputs: Inputs, exp: Expectation, outdir: pathlib.Path, truth: TruthIndex) -> Score:
    got = collections.Counter()
    right = n = 0
    for doc in _jsonl(outdir / "validated.jsonl"):
        key = (doc["mmsi"], doc["ts"])
        got[key] += 1
        n += 1
        true_ts = exp.positions.get(key)
        right += true_ts is not None and truth.status_at(key[0], true_ts) == doc["corrected_navstat"]
    statics = collections.Counter()
    with open(outdir / "decoded.jsonl", "r", encoding="utf-8") as f:
        for line in f:
            if '"type":"static"' in line:
                doc = json.loads(line)
                statics[(doc["mmsi"], doc["ts"])] += 1
    failed = _mismatch(exp.positions, got) + 2 * _mismatch(exp.statics, statics)

    visits = sum(len(v.visits) for v in inputs.scenario.vessels)
    voyages = sum(1 for _ in _jsonl(outdir / "voyages.jsonl"))
    summary = json.loads((outdir / "metrics" / "summary.json").read_text())
    reported = list(_jsonl(outdir / "outages.jsonl"))
    injected = [
        (o.scope, o.mmsi, o.start.strftime(ISO), o.end.strftime(ISO)) for o in inputs.scenario.outages
    ]
    missed = sum(
        not any(
            r["scope"] == scope and r.get("subject") == mmsi and r["start"] <= start and end <= r["end"]
            for r in reported
        )
        for scope, mmsi, start, end in injected
    )
    false_alarms = sum(
        not any(r["start"] < end and start < r["end"] for _, _, start, end in injected) for r in reported
    )
    quality = {
        "voyage_count_error": abs(voyages - visits),
        "arrivals_mae": summary["mae"]["macro"],
        "outages_missed": missed,
        "outage_false_alarms": false_alarms,
    }
    problems = [f"{k} is {v}, expected 0" for k, v in quality.items() if k != "outage_false_alarms" and v]
    return Score(failed, right / n if n else 0.0, quality, problems)


_INGESTED = re.compile(r"ingested (\d+) messages \((\d+) errors, (\d+) skipped\)")


def _score_ingest(exp: Expectation, outdir: pathlib.Path, stdout: str, truth: TruthIndex) -> Score:
    positions = collections.Counter()
    statics = collections.Counter()
    right = n = 0
    for path in sorted(outdir.glob("ais-*.jsonl")):
        for doc in _jsonl(path):
            key = (doc["mmsi"], doc["ts"])
            if doc["type"] == "static":
                statics[key] += 1
                continue
            positions[key] += 1
            n += 1
            true_ts = exp.positions.get(key)
            right += true_ts is not None and truth.status_at(key[0], true_ts) == doc["navstat"]
    m = _INGESTED.search(stdout)
    errors = int(m.group(2)) if m else 0
    failed = (
        _mismatch(exp.positions, positions)
        + 2 * _mismatch(exp.statics, statics)
        + abs(errors - exp.expected_errors)
    )
    problems = [] if m else ["no ingest summary on stdout"]
    quality = {"voyage_count_error": 0, "arrivals_mae": 0.0, "outages_missed": 0, "outage_false_alarms": 0}
    return Score(failed, right / n if n else 0.0, quality, problems)
