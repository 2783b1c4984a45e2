"""Seeded inputs for the benchmark workloads, and what each run must produce.

Every workload is built on one fixed call schedule per size (the plan seed
never changes), so the input size, and with it the throughput, is the same
for every seed. The run seed draws everything else: the status errors, the
anchor spots and position jitter, the outage windows and, for `raw_ingest`,
the injected faults.
"""

import bisect
import dataclasses
import datetime as dt
import hashlib
import json
import pathlib
import random
import time

from portcall import synth
from portcall.codec import ARMOR_ALPHABET

FINGERPRINTS = pathlib.Path(__file__).resolve().parent / "fingerprints.json"
PLAN_SEED = 7
DEFAULT_SEED = 7
RAW_START = dt.datetime(2000, 1, 1, tzinfo=dt.timezone.utc)  # the CLI's default --raw-start

FLIP_P = 0.02  # position lines with one payload character changed
TRUNCATE_P = 0.01  # position lines cut short
DROP_GROUP_P = 0.10  # eligible static groups that lose their second fragment
REASSEMBLY_LINES = 40  # untagged lines arrive 1 s apart; the decoder's window is 30 s


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "ingest"
    size: tuple[int, int]  # vessels, days
    tiny: tuple[int, int]  # the self-check's size
    port: bool = False  # pass the published polygons with --port
    method: str | None = None
    outages: bool = False  # inject one global and two vessel outages
    faults: bool = False  # strip TAG blocks and inject recorded faults
    error_p: float = 0.3  # share of reported statuses that are wrong


WORKLOADS = {
    w.name: w
    for w in (
        Workload("port_run", "run", (20, 6), (4, 2), port=True, outages=True),
        Workload("knn_noport", "run", (20, 6), (4, 2), method="knn"),
        # ingest stores statuses as reported, so they are left true: status
        # accuracy then checks that decoding and storing keep them intact
        Workload("raw_ingest", "ingest", (24, 8), (4, 2), faults=True, error_p=0.0),
    )
}


@dataclasses.dataclass
class Expectation:
    """What a correct run produces for one input file.

    positions maps the (mmsi, ts) key the program must report to the
    original time of the report, which is where the truth is looked up; the
    two differ only when TAG blocks were stripped. statics holds the
    (mmsi, ts) key of every static group that must decode.
    """

    n_lines: int
    positions: dict[tuple[int, str], str]
    statics: list[tuple[int, str]]
    expected_errors: int


@dataclasses.dataclass
class Inputs:
    files: dict[str, pathlib.Path]
    scenario: synth.Scenario
    truth: synth.TruthLog
    lines: list[str]  # as written to the NMEA file
    ledger: list[dict]  # injected faults, empty unless the workload has faults
    epochs: list[int] | None  # original TAG time per line, when the tags were stripped
    generate_s: float  # time spent in synth.generate

    def fingerprint(self) -> str:
        """sha256 over the input files, so synth drift cannot go unnoticed."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(hashlib.sha256(self.files[name].read_bytes()).digest())
        return h.hexdigest()


def scenario_for(w: Workload, seed: int, tiny: bool = False) -> synth.Scenario:
    n_vessels, days = w.tiny if tiny else w.size
    plan = synth.mixed_port_scenario(n_vessels=n_vessels, days=days, error_p=w.error_p, seed=PLAN_SEED)
    outages = _outage_plans(plan, seed) if w.outages else ()
    return dataclasses.replace(plan, seed=seed, outages=outages)


def _outage_plans(plan: synth.Scenario, seed: int) -> tuple[synth.OutagePlan, ...]:
    """One 40 min global outage and two 2 h vessel outages while moored.

    Berthing follows the anchorage stop within about an hour (the legs are a
    few km at 9-13.5 kn) and lasts at least 8 h, so a window 2 h after the
    anchor stop ends lies inside the mooring; make_inputs checks it.
    """
    rng = random.Random(seed)
    first = min(v.visits[0].arrive for v in plan.vessels)
    last = max(v.visits[-1].arrive for v in plan.vessels)
    g_start = first + dt.timedelta(seconds=round(rng.uniform(0.25, 0.75) * (last - first).total_seconds()))
    plans = [synth.OutagePlan("global", g_start, g_start + dt.timedelta(minutes=40))]
    for vessel in rng.sample(plan.vessels, 2):
        visit = rng.choice(vessel.visits)
        start = visit.arrive + dt.timedelta(seconds=round((visit.anchor_h + 2.0) * 3600))
        plans.append(synth.OutagePlan("vessel", start, start + dt.timedelta(hours=2), mmsi=vessel.mmsi))
    return tuple(plans)


def _check_outages_moored(scenario: synth.Scenario, truth: synth.TruthLog) -> None:
    for o in scenario.outages:
        if o.scope == "vessel" and not any(
            p.mmsi == o.mmsi and p.kind == "moored" and p.start <= o.start and o.end <= p.end
            for p in truth.phases
        ):
            raise RuntimeError(f"vessel outage {o} does not lie inside a mooring")


def _write_lines(path: pathlib.Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def make_inputs(w: Workload, seed: int, outdir: pathlib.Path, tiny: bool = False) -> Inputs:
    """Generate and write one workload's inputs; this is the timed set-up."""
    outdir.mkdir(parents=True, exist_ok=True)
    scenario = scenario_for(w, seed, tiny)
    t0 = time.perf_counter()
    lines, truth = synth.generate(scenario)
    generate_s = time.perf_counter() - t0
    _check_outages_moored(scenario, truth)
    ledger: list[dict] = []
    epochs = None
    if w.faults:
        lines, ledger, epochs = inject_faults(lines, random.Random(seed))
    files = {"nmea": outdir / "input.nmea", "truth": outdir / "truth.jsonl"}
    _write_lines(files["nmea"], lines)
    truth.write_jsonl(files["truth"])
    if w.port:
        files["port"] = outdir / "port.geojson"
        with open(files["port"], "w", encoding="utf-8", newline="\n") as f:
            json.dump(synth.build_port(scenario.center).geojson(), f, indent=2, sort_keys=True)
            f.write("\n")
    if w.command == "run":
        files["ground_truth"] = outdir / "ground_truth.csv"
        rows = ["date,category,arrivals"]
        for day in sorted(truth.arrivals):
            rows.extend(f"{day.isoformat()},{cat},{n}" for cat, n in sorted(truth.arrivals[day].items()))
        _write_lines(files["ground_truth"], rows)
    return Inputs(files, scenario, truth, lines, ledger, epochs, generate_s)


def check_fingerprint(w: Workload, seed: int, tiny: bool, inputs: Inputs, scratch: pathlib.Path) -> str | None:
    """Compare generated inputs with the recorded sha256; returns a problem or None.

    Every run checks the tiny inputs at the default seed, which is cheap; a
    run at the default seed also checks its own inputs.
    """
    recorded = json.loads(FINGERPRINTS.read_text())
    checks = [("tiny", make_inputs(w, DEFAULT_SEED, scratch, tiny=True))]
    if seed == DEFAULT_SEED:
        checks.append(("tiny" if tiny else "full", inputs))
    for size, got in checks:
        want = recorded[size].get(w.name)
        if got.fingerprint() != want:
            return (
                f"{w.name} {size} inputs at seed {DEFAULT_SEED} have sha256 {got.fingerprint()}, "
                f"recorded {want}: synth output drifted, so this is no longer the same workload"
            )
    return None


# ---------------------------------------------------------------------------
# line anatomy, read from outside the codec


def _sentence(line: str) -> str:
    return line[line.index("\\", 1) + 1 :] if line.startswith("\\") else line


def _fields(line: str) -> list[str]:
    return _sentence(line).split("*", 1)[0].split(",")


def _tag_epoch(line: str) -> int:
    return int(line[3 : line.index("*")])  # the line starts with \c:<epoch>*hh


def _mmsi(payload: str) -> int:
    value = 0
    for ch in payload[:7]:
        six = ord(ch) - 48
        value = (value << 6) | (six - 8 if six > 40 else six)
    return (value >> 4) & 0x3FFFFFFF  # bits 8..37 of the 42 read


def _iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


# ---------------------------------------------------------------------------
# faults


def inject_faults(tagged: list[str], rng: random.Random) -> tuple[list[str], list[dict], list[int]]:
    """Strip TAG blocks and inject faults, recording each in a ledger.

    Flipped and truncated position lines must each become one error. A
    static group that loses its second fragment must become one timeout for
    the surviving fragment. A group is only eligible when no other static
    group with the same message id starts within the reassembly window:
    message ids are reused, so a later first fragment would collide with the
    orphan, which is the protocol's ambiguity and not a decoder fault.

    Returns the written lines, the ledger (indices into the written lines)
    and the original TAG time of each written line.
    """
    bare = [_sentence(line) for line in tagged]
    first_frag = [i for i, s in enumerate(bare) if s.startswith("!AIVDM,2,1,")]
    out: list[str] = []
    epochs: list[int] = []
    ledger: list[dict] = []
    i = 0
    while i < len(bare):
        s = bare[i]
        epochs.append(_tag_epoch(tagged[i]))
        i += 1
        if s.startswith("!AIVDM,2,1,"):
            mid = s.split(",")[3]
            k = bisect.bisect_right(first_frag, i - 1)
            collides = any(
                bare[j].split(",")[3] == mid
                for j in first_frag[k : bisect.bisect_right(first_frag, i - 1 + REASSEMBLY_LINES)]
            )
            if not collides and rng.random() < DROP_GROUP_P:
                ledger.append({"line": len(out), "fault": "drop_second_fragment", "expect": "timeout"})
                i += 1
        elif s.startswith("!AIVDM,1,1,"):
            r = rng.random()
            if r < FLIP_P:
                parts = s.split(",")
                k = rng.randrange(len(parts[5]))
                parts[5] = parts[5][:k] + rng.choice(ARMOR_ALPHABET.replace(parts[5][k], "")) + parts[5][k + 1 :]
                ledger.append({"line": len(out), "fault": "flip", "expect": "error"})
                s = ",".join(parts)
            elif r < FLIP_P + TRUNCATE_P:
                ledger.append({"line": len(out), "fault": "truncate", "expect": "error"})
                s = s[: rng.randrange(8, len(s) - 1)]
        out.append(s)
    return out, ledger, epochs


def expectation(inputs: Inputs) -> Expectation:
    """Derive each line's expected outcome from the lines and the ledger."""
    faulted = {e["line"] for e in inputs.ledger}
    raw0 = int(RAW_START.timestamp())
    positions: dict[tuple[int, str], str] = {}
    statics: list[tuple[int, str]] = []
    for i, line in enumerate(inputs.lines):
        if i in faulted:
            continue
        f = _fields(line)
        if inputs.epochs is None:
            key_ts = true_ts = _iso(_tag_epoch(line))
            done_ts = key_ts  # both fragments of a group carry the same TAG time
        else:
            key_ts, true_ts = _iso(raw0 + i), _iso(inputs.epochs[i])
            done_ts = _iso(raw0 + i + 1)  # the second fragment, the next line, completes it
        if f[1] == "1":
            positions[(_mmsi(f[5]), key_ts)] = true_ts
        elif f[2] == "1":
            statics.append((_mmsi(f[5]), done_ts))
    return Expectation(len(inputs.lines), positions, statics, len(inputs.ledger))
