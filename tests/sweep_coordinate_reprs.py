"""Check `table.shortest_reprs` against repr on every latitude and longitude the NMEA decoder gives at 1 <= |v| <= 180.

    PYTHONPATH=src python tests/sweep_coordinate_reprs.py

The decoder reads a coordinate as k / 600000 degrees for an integer k. This
checks each such value with 600,000 <= |k| <= 108,000,000, both signs: the
text of every value the kernel makes must be repr's. It prints the number of
values checked, of mismatches and of values the kernel declined (which the
writer then formats with repr), and exits 1 on any mismatch. It takes a few
minutes on one core; pytest does not collect it.
"""

import sys

import numpy as np

from portcall.table import join_rows, shortest_reprs

UNITS = 600_000  # 1/10000 minute
LOW, HIGH = 600_000, 108_000_000
CHUNK = 500_000


def check(values: np.ndarray) -> tuple[int, list[float]]:
    """The number of values declined, and the values whose text is not their repr."""
    rows, made = shortest_reprs(values)
    expected = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~made).tolist():
        expected[i] = ""
    got = join_rows(len(values), [rows, b"\n"])
    if got == ("\n".join(expected) + "\n").encode():
        return int((~made).sum()), []
    wrong = [v for v, g, e in zip(values.tolist(), got.decode().split("\n"), expected) if g != e]
    return int((~made).sum()), wrong


def main() -> int:
    checked = declined = 0
    mismatches: list[float] = []
    for start in range(LOW, HIGH + 1, CHUNK):
        values = np.arange(start, min(start + CHUNK, HIGH + 1)) / UNITS
        for signed in (values, -values):
            n, wrong = check(signed)
            checked += len(signed)
            declined += n
            mismatches += wrong
    for v in mismatches[:20]:
        print(f"mismatch: {v!r}")
    print(f"{checked} values checked, {len(mismatches)} mismatches, {declined} declined")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
