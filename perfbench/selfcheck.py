"""Self-check of the benchmark, run from the root of the repository.

    python3 perfbench/selfcheck.py            # check
    python3 perfbench/selfcheck.py --record   # rewrite fingerprints.json

Runs every workload on its tiny inputs at the default seed through run.py,
twice untraced and twice traced. Asserts that every metric BENCHMARK.json
names is printed with its unit, that every output check passes, and that
the counts repeat exactly between the two traced runs. It also regenerates
each workload's full-size inputs at the default seed and compares their
sha256 with the recorded fingerprints.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402



def fingerprints(tiny: bool) -> dict[str, str]:
    out = {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for name, w in workloads.WORKLOADS.items():
            inputs = workloads.make_inputs(w, workloads.DEFAULT_SEED, pathlib.Path(tmp) / name, tiny=tiny)
            out[name] = inputs.fingerprint()
    return out


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    recorded = json.loads(workloads.FINGERPRINTS.read_text())
    if fingerprints(tiny=False) != recorded["full"]:
        problems.append("full-size inputs at the default seed differ from fingerprints.json")
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = bench(name, trace), bench(name, trace)
            for result in (first, second):
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{name} trace={trace}: keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} trace={trace}: an output check failed")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != {m["name"]: m["unit"] for m in wanted}:
                    problems.append(f"{name} trace={trace}: metrics {got} differ from BENCHMARK.json")
            for metric, unit in got.items():
                timed = unit == "s" or metric in ("lines_per_s", "peak_rss_mb", "trace.overhead_share")
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                if not timed and a != b:
                    problems.append(f"{name} trace={trace}: {metric} was {a}, then {b}")
            print(f"{name} trace={trace}: checked", flush=True)
    return problems


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        doc = {
            "default_seed": workloads.DEFAULT_SEED,
            "tiny": fingerprints(tiny=True),
            "full": fingerprints(tiny=False),
        }
        workloads.FINGERPRINTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    problems = check()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
