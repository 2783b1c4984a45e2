"""Benchmark for the portcall pipeline, run from the root of the repository.

    python3 perfbench/run.py --workload port_run --seed 1 --seconds 20 --trace 0

Each run generates its workload's inputs from the seed with portcall.synth
(the set-up, repeated SETUP_REPS times; setup_s is the median), then runs
the real CLI as child processes, one per vCPU at a time and each on a fresh
output directory, starting new ones for --seconds and at least one per vCPU.
The first successful child's outputs are scored against the truth from
outside; every other child must write byte-identical outputs.

Times are normalised to a nominal host speed. The vCPUs of a shared VM run
20-40% faster or slower for seconds to minutes, each nearly on its own, and
that swing is larger than any bound worth keeping. So a fixed reference
task (reference.py) runs on each child's vCPU while the child runs, and the
child's CPU time is scaled by REF_NOMINAL_S over the reference's chunk time
meanwhile, to the power HOST_SLOPE; each set-up rep is scaled alike by
reference bursts just before and after it on the same vCPU.

lines_per_s is the input lines over the median normalised CPU time of the
children that exited 0. The median's expected value does not depend on how
many children fit in the window, so a faster program does not also get more
draws; a child that crashes cannot stand for the program.

--trace 0 prints the end-to-end metrics. --trace 1 then runs the command
once more in perfbench/trace_child.py, which wraps each layer from outside,
beside one untraced child, and prints the per-layer metrics instead. The
metric names and units are those listed in BENCHMARK.json. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import reference

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0
# Children run two at a time, one per vCPU: the vCPUs of a shared VM slow
# down nearly independently, so pairs sample both.
ALL_CPUS = os.sched_getaffinity(0)
CPUS = sorted(ALL_CPUS)[:2]
# The reference chunk's CPU time that counts as nominal speed (about this
# task's time on an unloaded 2-vCPU KVM guest); normalised times are scaled
# to it, so they read as seconds on such a guest.
REF_NOMINAL_S = 0.025
# How far the CLI's CPU time follows the reference's: the log-log slope of a
# port_run child's CPU time on the reference chunk time over the same
# interval was 0.66-0.70 in three runs of 9-13 children on a 2-vCPU KVM guest
# (correlation 0.96-0.99). Scaling by the full ratio would over-correct.
HOST_SLOPE = 2 / 3
SETUP_REF_S = 0.3  # length of each reference burst around a set-up rep


@dataclasses.dataclass
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float  # its own user + system time, from wait4
    ref_s: float | None  # median reference chunk time on its vCPU while it ran
    peak_rss_mb: float  # its own peak, from wait4
    rc: int
    output: str

    @property
    def norm_s(self) -> float:
        """CPU time at nominal host speed."""
        return scale(self.cpu_s, self.ref_s)


def scale(seconds: float, ref_s: float) -> float:
    """A time measured while a reference chunk took ref_s, at nominal speed."""
    return seconds * (REF_NOMINAL_S / ref_s) ** HOST_SLOPE


def on_cpu(cpu: int, argv: list[str], **kwargs) -> subprocess.Popen:
    """Start argv pinned to one vCPU: it inherits this thread's affinity."""
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(argv, **kwargs)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def run_children(command, seconds: float, on_done=None, at_least: int = 1,
                 with_reference: bool = True) -> list[Child]:
    """Run command(i) -> (argv, log) as children, one per vCPU at a time.

    A reference task (reference.py) runs pinned to each vCPU throughout, so
    the kernel time-slices it with that vCPU's child; each child's ref_s is
    the reference's median chunk time over the child's life. New children
    start until `seconds` have passed since the first one and at least
    `at_least` have started; all are waited for. on_done(i, child) runs as
    each one ends, before ref_s is known. Without `with_reference` no reference
    task runs and ref_s stays None. Returns the children in start order.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs = {}
    if with_reference:
        refs = {cpu: on_cpu(cpu, [sys.executable, str(HERE / "reference.py")], stdout=subprocess.PIPE) for cpu in CPUS}
    running = {}
    done: dict[int, Child] = {}
    spans: dict[int, tuple[int, float, float]] = {}  # i -> cpu, start, end
    start = time.monotonic()
    try:
        while True:
            free = [cpu for cpu in CPUS if cpu not in {r[5] for r in running.values()}]
            while free and (len(done) + len(running) < at_least or time.monotonic() - start < seconds):
                i = len(done) + len(running)
                cpu = free.pop()
                argv, log = command(i)
                with open(log, "w", encoding="utf-8") as out:
                    t0 = time.monotonic()
                    proc = on_cpu(cpu, argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
                watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                watchdog.start()
                running[proc.pid] = (i, proc, t0, log, watchdog, cpu)
            if not running:
                break
            # wait4 reports the child's own rusage; RUSAGE_CHILDREN would keep the
            # largest peak of every child this process has waited for
            pid, status, usage = os.wait4(-1, 0)
            t1 = time.monotonic()
            i, proc, t0, log, watchdog, cpu = running.pop(pid)
            watchdog.cancel()
            watchdog.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            output = log.read_text(encoding="utf-8", errors="replace")
            done[i] = Child(t1 - t0, usage.ru_utime + usage.ru_stime, None, usage.ru_maxrss / 1024.0,  # KiB
                            proc.returncode, output)
            spans[i] = (cpu, t0, t1)
            if on_done is not None:
                on_done(i, done[i])
        chunks = {}
        for cpu, ref in refs.items():
            ref.send_signal(signal.SIGTERM)
            out, _ = ref.communicate(timeout=30)
            if ref.returncode != 0:
                raise SystemExit(f"error: the reference task exited {ref.returncode}")
            chunks[cpu] = json.loads(out)
        for i, (cpu, t0, t1) in spans.items() if refs else ():
            during = sorted(s for end, s in chunks[cpu] if t0 <= end <= t1)
            # a child shorter than a chunk falls back to the whole run's chunks
            during = during or sorted(s for _, s in chunks[cpu])
            done[i].ref_s = during[len(during) // 2]
        return [done[i] for i in range(len(done))]
    finally:
        # after an error: stop and reap whatever still runs
        for _, proc, _, _, watchdog, _ in running.values():
            watchdog.cancel()
            proc.kill()
            proc.wait()
        for ref in refs.values():
            if ref.poll() is None:
                ref.kill()
                ref.communicate()


def cli_argv(w, files: dict, outdir: pathlib.Path) -> list[str]:
    if w.command == "run":
        argv = ["run", "--input", files["nmea"], "--outdir", outdir, "--ground-truth", files["ground_truth"]]
        if w.port:
            argv += ["--port", files["port"]]
        if w.method:
            argv += ["--method", w.method]
    else:
        argv = ["ingest", "--source", f"file:{files['nmea']}", "--store", outdir]
    return [str(a) for a in argv]


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(trace: dict, generate_s: float, n_lines: int, store_bytes: int, quality: dict,
                  traced_wall: float, untraced_wall: float) -> dict:
    spans, aggs, counts = trace["spans"], trace["aggs"], trace["counts"]

    def span_s(name, own=False):
        return sum(s["self_s"] if own else s["end"] - s["start"] for s in spans if s["name"] == name)

    def agg(name, i):
        return aggs.get(name, [0, 0.0, 0.0])[i]

    def self_s(prefix):
        return sum(row[2] for name, row in aggs.items() if name.startswith(prefix))

    decoded = counts.get("codec.positions", 0) + counts.get("codec.statics", 0)
    values = {
        "synth.generate_s": generate_s,
        "synth.lines": n_lines,
        "codec.feed_calls": agg("codec.MessageDecoder.feed", 0),
        "codec.feed_s": agg("codec.MessageDecoder.feed", 1),
        "codec.yield": decoded / counts["codec.lines"] if counts.get("codec.lines") else 0.0,
        "jsonl.docs_written": agg("jsonl.dumps", 0),
        "jsonl.docs_parsed": counts.get("jsonl.read_jsonl.items", 0),
        "jsonl.encode_s": agg("jsonl.dumps", 1),
        "jsonl.decode_s": agg("jsonl.read_jsonl", 1),
        "jsonl.dict_codec_s": self_s("dict."),
        "cli.decode_s": span_s("cli.cmd_decode"),
        "cli.validate_s": span_s("cli.cmd_validate"),
        "cli.voyages_s": span_s("cli.cmd_voyages"),
        "cli.metrics_s": span_s("cli.cmd_metrics"),
        "validate.stream_s": span_s("validate.validate_stream"),
        "validate.stream_self_s": span_s("validate.validate_stream", own=True),
        "validate.fit_knn_s": span_s("validate.fit_knn"),
        "validate.detect_outages_calls": sum(s["name"] == "validate.detect_outages" for s in spans),
        "validate.detect_outages_s": span_s("validate.detect_outages"),
        "geo.load_port_geometry_s": span_s("geo.load_port_geometry"),
        "geo.polygon_lookups": agg("geo.PortGeometry.anchorage_at", 0) + agg("geo.PortGeometry.terminal_at", 0),
        "voyage.extract_s": span_s("voyage.extract_voyages"),
        "voyage.segment_s": agg("voyage.segment_phases", 1),
        "voyage.flag_gaps_s": agg("voyage.flag_gaps", 1),
        "metrics.s": self_s("metrics."),
        "ingest.run_replay_s": span_s("ingest.run_replay"),
        "ingest.store_append_calls": agg("ingest.MessageStore.append", 0),
        "ingest.store_append_s": agg("ingest.MessageStore.append", 1),
        "ingest.store_bytes": store_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }
    values.update({"quality." + k: v for k, v in quality.items()})
    for name in metric_units("per_layer"):
        values.setdefault(name, counts.get(name, 0))
    return values


def run(args) -> dict:
    import score
    import workloads

    w = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK))
    try:
        setup_s, generate_s = [], []
        # Set-up runs in this process, pinned to one vCPU between reference
        # bursts on it; each rep's time is scaled by the mean of its two bursts.
        os.sched_setaffinity(0, CPUS[:1])
        try:
            ref_s = [reference.chunk_s(SETUP_REF_S)]
            for rep in range(SETUP_REPS):  # each rep from scratch, into its own directory
                t0 = time.perf_counter()
                inputs = workloads.make_inputs(w, args.seed, workdir / f"inputs{rep}", tiny=args.tiny)
                wall = time.perf_counter() - t0
                ref_s.append(reference.chunk_s(SETUP_REF_S))
                setup_s.append(scale(wall, statistics.mean(ref_s[-2:])))
                generate_s.append(inputs.generate_s)
        finally:
            os.sched_setaffinity(0, ALL_CPUS)
        problem = workloads.check_fingerprint(w, args.seed, args.tiny, inputs, workdir / "canary")
        if problem:
            raise SystemExit(f"error: {problem}")
        exp = workloads.expectation(inputs)
        print(f"{w.name} seed {args.seed}: {exp.n_lines} input lines, {len(inputs.ledger)} injected faults")

        failed = 0
        problems: list[str] = []
        first_ok = None
        hashes = {}

        def command(i):
            return ([sys.executable, "-m", "portcall.cli", *cli_argv(w, inputs.files, workdir / f"out{i}")],
                    workdir / f"out{i}.log")

        def on_done(i, child):
            nonlocal failed, first_ok
            if child.rc != 0:
                failed += exp.n_lines
                problems.append(f"CLI exited {child.rc}: {child.output.strip()[-500:]}")
                return
            hashes[i] = score.output_hashes(w, workdir / f"out{i}")
            if first_ok is None:
                first_ok = i  # kept and scored once no child is running
            else:
                shutil.rmtree(workdir / f"out{i}", ignore_errors=True)

        children = run_children(command, args.seconds, on_done, at_least=len(CPUS))
        if first_ok is None:
            raise SystemExit("error: no CLI run succeeded: " + "; ".join(problems))
        outdir = workdir / f"out{first_ok}"
        result = score.score(w, inputs, exp, outdir, children[first_ok].output)
        failed += result.failed
        problems += result.problems
        first = hashes[first_ok]
        store_bytes = sum(p.stat().st_size for p in outdir.glob("ais-*.jsonl"))
        differing = sum(h != first for h in hashes.values())
        if differing:
            failed += exp.n_lines * differing
            problems.append(f"{differing} repeated runs wrote other outputs than the first")
        for name, digest in first.items():
            print(f"output sha256 {name} {digest}")
        ok = [c for c in children if c.rc == 0]
        if not args.trace:
            values = {
                "setup_s": statistics.median(setup_s),
                "lines_per_s": exp.n_lines / statistics.median(c.norm_s for c in ok),
                "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
                "status_accuracy": result.status_accuracy,
            }
            units = metric_units("end_to_end")
        else:
            # the traced child runs beside an untraced one, so both see the same
            # contention, and without reference tasks, so its spans time real work
            trace_json = workdir / "trace.json"
            traced_argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_json)]
            pair = [
                traced_argv + cli_argv(w, inputs.files, workdir / "traced"),
                [sys.executable, "-m", "portcall.cli", *cli_argv(w, inputs.files, workdir / "plain")],
            ]
            traced, plain = run_children(lambda i: (pair[i], workdir / f"pair{i}.log"), 0, at_least=2,
                                         with_reference=False)
            if traced.rc != 0 or plain.rc != 0 or not trace_json.exists():
                raise SystemExit(f"error: traced pair exited {traced.rc} and {plain.rc}: {traced.output.strip()[-500:]}")
            if score.output_hashes(w, workdir / "traced") != first:
                failed += exp.n_lines
                problems.append("the traced run wrote other outputs than the untraced runs")
            trace = json.loads(trace_json.read_text())
            values = layer_metrics(trace, statistics.median(generate_s), exp.n_lines, store_bytes, result.quality,
                                   traced.wall_s, plain.wall_s)
            units = metric_units("per_layer")
        for p in problems:
            print(f"check failed: {p}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        return {
            "correct": failed == 0 and not problems,
            "attempted": exp.n_lines * len(children),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the self-check's small inputs")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # so children are stopped
    if not (SRC / "portcall" / "cli.py").is_file():
        print(f"error: no portcall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
