"""A fixed pure-Python reference task that measures how fast a vCPU runs now.

    python3 perfbench/reference.py     # chunk after chunk until SIGTERM

The vCPUs of a shared VM slow down and speed up by 20-40% over seconds to
minutes, and each vCPU does so nearly on its own. run.py therefore runs this
task pinned to the same vCPU as each CLI child, so the kernel time-slices the
two, and scales the child's CPU time by how long a chunk took meanwhile. The
chunk does the kind of work the CLI does (JSON encode and decode, float
math, string splitting, sorting) and never changes with the program.

On SIGTERM it finishes the current chunk and prints one JSON list of
[end, cpu_s] pairs: the time.monotonic() at which each chunk ended and the
CPU time it took.
"""

import json
import math
import signal
import sys
import time

RECORDS = [
    {
        "mmsi": 200000000 + i,
        "ts": f"2020-01-01T{i // 60 % 24:02d}:{i % 60:02d}:00Z",
        "lat": 50.0 + i * 1e-4,
        "lon": 4.0 + i * 2e-4,
        "sog": i % 15 / 1.0,
        "navstat": i % 9,
    }
    for i in range(2000)
]


def chunk() -> float:
    """One fixed unit of work; returns a value so that none of it is skipped."""
    back = [json.loads(json.dumps(r, sort_keys=True)) for r in RECORDS]
    acc = 0.0
    for r in back:
        acc += math.sin(math.radians(r["lat"])) * math.cos(math.radians(r["lon"]))
        acc += len(f"!AIVDM,1,1,,A,{r['mmsi']},{r['ts']},0".split(",")[4])
    back.sort(key=lambda r: (r["navstat"], r["ts"]))
    return acc


def chunk_s(seconds: float) -> float:
    """Median CPU time of one chunk, run in this process for about `seconds`."""
    times = []
    end = time.monotonic() + seconds
    while not times or time.monotonic() < end:
        t0 = time.process_time()
        chunk()
        times.append(time.process_time() - t0)
    times.sort()
    return times[len(times) // 2]


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    rows = []
    while not stop:
        t0 = time.process_time()
        chunk()
        rows.append((time.monotonic(), time.process_time() - t0))
    json.dump(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
