#!/usr/bin/env python3
"""Time the mod-p PLU kernel `linalg._eliminate` on the matrices that
`report` eliminates for lines9 and degree9_cubics.

Usage: PYTHONPATH=src python scripts/bench_eliminate.py

The matrices are captured by running `cli.report_json_bytes` once per curve
with `_eliminate` wrapped; each is labelled by the function that asked for
it (`ROLES`): the sweep's rank profile of J_{2N-2}, its contraction pivots,
a Dixon lift.  Each of 5 repetitions then eliminates fresh copies of all of
them in process; the script prints the set per curve and role, the count,
the largest shape, the pivot count and the minimum total time, and exits 1
when two repetitions disagree on the pivots, the row order or the packed
L/U.  It is a measuring tool, not a test.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from planecurves import linalg
from planecurves.cli import report_json_bytes

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CURVES = ("lines9", "degree9_cubics")
REPEAT = 5
# the innermost caller with one of these names labels an elimination
ROLES = {
    "jacobian_rank_profile": "profile",
    "lift_kernel": "lift",
    "sweep": "contraction",
    "_rank_mod_p": "rank mod p",
}


def role() -> str:
    """The role of the `_eliminate` call that the caller is intercepting."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name not in ROLES:
        frame = frame.f_back
    return "other" if frame is None else ROLES[frame.f_code.co_name]


def capture() -> tuple[list[tuple[np.ndarray, int]], Counter]:
    """(input, p) for every `_eliminate` call of `report` on the curves, and
    their count per (curve, role)."""
    calls, roles = [], Counter()
    eliminate = linalg._eliminate

    def spy(a, p):
        calls.append((a.copy(), p))
        roles[name, role()] += 1
        return eliminate(a, p)

    linalg._eliminate = spy
    try:
        for name in CURVES:
            report_json_bytes(CORPUS / f"{name}.curve")
    finally:
        linalg._eliminate = eliminate
    return calls, roles


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
    calls, roles = capture()
    for name in CURVES:
        counts = ", ".join(f"{n} {r}" for (curve, r), n in sorted(roles.items()) if curve == name)
        print(f"{name}: {sum(n for (curve, _), n in roles.items() if curve == name)} matrices ({counts})")
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
