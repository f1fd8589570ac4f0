#!/usr/bin/env python3
"""Time each Strand's ranks on the plain and the numpy path, in fresh
interpreters, so that numpy's load is counted.

Usage: PYTHONPATH=src python scripts/bench_plain.py [--reps N] [--names NAME ...]

The inputs are the corpus curves and the arrangements of the benchmark's
hilbert-lines workload (`perfbench/workloads.py`: one draw of
`perfbench/arrangements.py` from its family seed).  For each input and path
a fresh interpreter imports planecurves and parses the curve, then, timed,
does what `report` ranks on it, `hilbert_series` and er_dim(N-2), and the
kernel of `syzygy_basis` at N-2.  The plain path sets `linalg.PLAIN_CELLS`
so high that every matrix is worked in plain Python, the numpy path sets
it to 0.  Each path runs `--reps` times and the best time is kept.

It prints one line per input: the largest entry count that the size rule
(`linalg.is_plain`) saw, the two times in ms and the faster path; then the
crossover, the largest count on which plain Python was faster and the
smallest on which numpy was, between which `linalg.PLAIN_CELLS` is set.  It
exits 1 when the two paths differ in a rank, a certificate, a pivot list or
a kernel.  It is a measuring tool, not a test.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

from planecurves.linalg import PLAIN_CELLS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import arrangements  # noqa: E402  (the benchmark's generator)
import workloads  # noqa: E402  (the benchmark's hilbert-lines family)

WORKER = """\
import json, sys, time
from planecurves import Strand, er_dim, hilbert_series, koszul, linalg, parse_polynomial
texts, cutoff = json.loads(sys.argv[1])
factors = [parse_polynomial(t) for t in texts]
linalg.PLAIN_CELLS = cutoff
seen = []
rule = linalg.is_plain
linalg.is_plain = lambda cells: seen.append(cells) or rule(cells)
kernels = []
real = koszul.certified_kernel
koszul.certified_kernel = lambda m: kernels.append(real(m)) or kernels[-1]
start = time.perf_counter()
strand = Strand(factors)
h = hilbert_series(strand)
er = er_dim(strand, strand.N - 2)
classes = koszul.syzygy_basis(strand, strand.N - 2)
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "cells": max(seen, default=0),
    "result": [
        h.dims, er, strand.certified, sorted(map(str, strand._ranks.values())), [str(c) for c in classes],
        [[k.rank, k.pivots, k.free, k.num, k.den] for k in kernels],
    ],
}))
"""


def inputs():
    """(name, factor texts) of the corpus curves and the hilbert-lines draws."""
    for path in sorted((ROOT / "corpus").glob("*.curve")):
        factors = json.loads(path.read_text())["factors"]
        yield path.stem, [e if isinstance(e, str) else e["poly"] for e in factors]
    family = random.Random(workloads.FAMILY_SEED)
    for i, n in enumerate(workloads.FAMILY_SIZES):
        vecs, _ = arrangements.random_arrangement(family, n)
        yield f"lines{n}_{i}", [arrangements.line_text(v) for v in vecs]


def run(texts, cutoff: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", WORKER, json.dumps([texts, cutoff])],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=3, help="fresh interpreters per input and path (best is kept)")
    parser.add_argument("--names", nargs="*", help="only these inputs")
    args = parser.parse_args(argv)
    samples, differ = [], False
    print(f"{'input':<16} {'cells':>7} {'plain ms':>9} {'numpy ms':>9}  faster")
    for name, texts in inputs():
        if args.names and name not in args.names:
            continue
        plain = [run(texts, 1 << 62) for _ in range(args.reps)]
        fast = [run(texts, 0) for _ in range(args.reps)]
        if any(r["result"] != fast[0]["result"] for r in plain + fast):
            print(f"{name}: the plain and the numpy path differ", file=sys.stderr)
            differ = True
        cells = plain[0]["cells"]
        best_plain = min(r["seconds"] for r in plain)
        best_numpy = min(r["seconds"] for r in fast)
        samples.append((cells, best_plain, best_numpy))
        winner = "plain" if best_plain < best_numpy else "numpy"
        print(f"{name:<16} {cells:>7} {1e3 * best_plain:9.1f} {1e3 * best_numpy:9.1f}  {winner}")
    plain_wins = [cells for cells, plain, fast in samples if plain < fast]
    numpy_wins = [cells for cells, plain, fast in samples if plain >= fast]
    print(f"largest with plain faster: {max(plain_wins, default=None)} cells")
    print(f"smallest with numpy faster: {min(numpy_wins, default=None)} cells")
    print(f"PLAIN_CELLS = {PLAIN_CELLS}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
