#!/usr/bin/env python3
"""Time the rank mod p of W_k both ways: plain Python against numpy.

Usage: PYTHONPATH=src python scripts/bench_wk.py [--reps N] [--sizes N ...]

The inputs are the corpus arrangements that have a local dual and one draw
of `perfbench/arrangements.py` per size (`random.Random(size)`, default 7 to
20 lines).  For each, at every degree k = 0..3N-5 (not only at the degrees
the defect scan ranks, so that the crossover keeps its sample) the script
builds W_k mod p once with `TjurinaDual.rows(k, p)` and ranks those rows
both ways, `len(echelon(rows, p).pivots)` and
`_rank_mod_p(np.array(rows, dtype=np.int64))` (the conversion counts on the
numpy side), keeping the best of the repetitions.  It prints one line per
matrix (cells = tau x dim S_k, the two times in ms and the rank), then the
crossover: the largest matrix on which plain Python is faster, the smallest
on which numpy is, and how plain Python fares up to `linalg.PLAIN_CELLS`
(which `scripts/bench_plain.py` sets, numpy's load counted).  The script
exits 1 when the two ranks of a matrix differ.  It is a measuring tool, not
a test.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from planecurves import Strand, parse_polynomial
from planecurves.gradedmaps import s_dim
from planecurves.linalg import PLAIN_CELLS, PRIMES, echelon, np
from planecurves.linalg_numpy import _rank_mod_p
from planecurves.polynomials import MAX_DEGREE

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import arrangements  # noqa: E402  (the benchmark's generator)


def inputs(sizes):
    """(name, lines) of the corpus arrangements and one draw per size."""
    for path in sorted((ROOT / "corpus").glob("*.curve")):
        texts = [e if isinstance(e, str) else e["poly"] for e in json.loads(path.read_text())["factors"]]
        lines = [parse_polynomial(t) for t in texts]
        if all(line.degree() == 1 for line in lines):
            yield path.stem, lines
    for n in sizes:
        vecs, _ = arrangements.random_arrangement(random.Random(n), n)
        yield f"random{n}", [parse_polynomial(arrangements.line_text(v)) for v in vecs]


def best(fn, reps: int) -> tuple[float, int]:
    """(least seconds over reps calls, the value of the last)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return min(times), value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5, help="repetitions per matrix and way (best is kept)")
    parser.add_argument("--sizes", type=int, nargs="*", default=list(range(7, 21)), help="lines per random draw")
    args = parser.parse_args(argv)
    if any(not 3 <= n <= MAX_DEGREE for n in args.sizes):
        parser.error(f"sizes must lie between 3 and {MAX_DEGREE}")
    np.zeros(1)  # load numpy before the first timing
    p = PRIMES[0]
    samples, differ = [], False
    print(f"{'input':<16} {'k':>3} {'tau x dim S_k':>14} {'cells':>6} {'plain ms':>9} {'numpy ms':>9} {'rank':>5}")
    for name, lines in inputs(args.sizes):
        dual = Strand(lines).dual
        if dual is None:
            continue
        for k in range(3 * len(lines) - 4):
            rows = dual.rows(k, p)
            plain, got = best(lambda: len(echelon(rows, p).pivots), args.reps)
            fast, want = best(lambda: _rank_mod_p(np.array(rows, dtype=np.int64), p), args.reps)
            cells = dual.tau * s_dim(k)
            samples.append((cells, plain, fast))
            shape = f"{dual.tau} x {s_dim(k)}"
            print(f"{name:<16} {k:>3} {shape:>14} {cells:>6} {1e3 * plain:9.2f} {1e3 * fast:9.2f} {want:>5}")
            if got != want:
                print(f"{name} W_{k}: plain rank {got}, numpy rank {want}", file=sys.stderr)
                differ = True
    plain_wins = [cells for cells, plain, fast in samples if plain < fast]
    numpy_wins = [cells for cells, plain, fast in samples if plain >= fast]
    print(f"matrices: {len(samples)}; plain faster on {len(plain_wins)}, numpy on {len(numpy_wins)}")
    print(f"largest with plain faster: {max(plain_wins, default=None)} cells")
    print(f"smallest with numpy faster: {min(numpy_wins, default=None)} cells")
    below = [plain / fast for cells, plain, fast in samples if cells <= PLAIN_CELLS]
    wins = sum(ratio < 1 for ratio in below)
    print(f"up to PLAIN_CELLS = {PLAIN_CELLS}: plain faster on {wins} of {len(below)}, "
          f"at most {max(below, default=0):.2f} x numpy's time")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
