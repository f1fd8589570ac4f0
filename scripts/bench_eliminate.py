#!/usr/bin/env python3
"""Time the mod-p PLU kernel `linalg._eliminate` on the matrices that
`report` eliminates for lines9 and degree9_cubics.

Usage: PYTHONPATH=src python scripts/bench_eliminate.py

The matrices are captured by running `cli.report_json_bytes` once per curve
with `_eliminate` wrapped.  Each of 5 repetitions then eliminates fresh
copies of all of them in process; the script prints the count, the largest
shape, the pivot count and the minimum total time, and exits 1 when two
repetitions disagree on the pivots, the row order or the packed L/U.  It is
a measuring tool, not a test.
"""

import sys
import time
from pathlib import Path

import numpy as np

from planecurves import linalg
from planecurves.cli import report_json_bytes

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CURVES = ("lines9", "degree9_cubics")
REPEAT = 5


def capture() -> list[tuple[np.ndarray, int]]:
    """(input, p) for every `_eliminate` call of `report` on the curves."""
    calls = []
    eliminate = linalg._eliminate

    def spy(a, p):
        calls.append((a.copy(), p))
        return eliminate(a, p)

    linalg._eliminate = spy
    try:
        for name in CURVES:
            report_json_bytes(CORPUS / f"{name}.curve")
    finally:
        linalg._eliminate = eliminate
    return calls


def run(calls) -> tuple[float, list]:
    """Total time of `_eliminate` over fresh copies, and its outputs."""
    total, outputs = 0.0, []
    for a, p in calls:
        work = a.copy()
        t0 = time.perf_counter()
        pivots, order = linalg._eliminate(work, p)
        total += time.perf_counter() - t0
        outputs.append((pivots, order, work))
    return total, outputs


def same(x, y) -> bool:
    return all(
        px == py and np.array_equal(ox, oy) and np.array_equal(wx, wy)
        for (px, ox, wx), (py, oy, wy) in zip(x, y)
    )


def main() -> int:
    calls = capture()
    times, first = [], None
    for _ in range(REPEAT):
        elapsed, outputs = run(calls)
        times.append(elapsed)
        if first is None:
            first = outputs
        elif not same(first, outputs):
            print("outputs differ between repetitions", file=sys.stderr)
            return 1
    shapes = [a.shape for a, _ in calls]
    pivots = sum(len(pivots) for pivots, _, _ in first)
    print(f"{len(calls)} matrices, largest {max(shapes, key=lambda s: s[0] * s[1])}, {pivots} pivots")
    print(f"_eliminate min of {REPEAT}: {min(times):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
