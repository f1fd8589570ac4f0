#!/usr/bin/env python3
"""Split the wall time of `planecurves report --format json` into its phases.

Usage: python scripts/bench_phases.py [--reps N] [CURVE ...]

Each repetition runs the report on one corpus curve (all of them by default)
in a fresh interpreter, started with PYTHONPATH=src as the benchmark starts
its workers, and reads three phases off the monotonic clock: start-up (spawn
to `planecurves.cli` imported), call (`cli.main`) and exit (call done to the
process gone, which is interpreter finalization).  The script prints the
median of each phase per curve in ms, and exits 1 when an output differs
from `corpus/<curve>.expected.json` or a report exits non-zero.  It is a
measuring tool, not a test.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
# Runs in the fresh interpreter; its last line of stderr is the two clock
# readings that bound the call.
CHILD = """\
import sys, time
import planecurves.cli
start = time.clock_gettime(time.CLOCK_MONOTONIC)
code = planecurves.cli.main(["report", sys.argv[1], "--format", "json"])
sys.stdout.flush()
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(start, done, file=sys.stderr)
sys.exit(code)
"""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def phases(spec: Path, env: dict) -> tuple[float, float, float, bytes]:
    """(start-up, call, exit) seconds of one report, and its output; a report
    that exits non-zero ends the script with exit code 1."""
    spawn = clock()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate()
    gone = clock()
    if proc.returncode != 0:
        sys.exit(f"{spec.stem}: exit {proc.returncode}: {err.decode(errors='replace')[-300:]}")
    start, done = (float(t) for t in err.decode().splitlines()[-1].split())
    return start - spawn, done - start, gone - done, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5, help="fresh interpreters per curve")
    parser.add_argument("curves", nargs="*", help="corpus curve names (default: all)")
    args = parser.parse_args(argv)
    names = args.curves or [p.stem for p in sorted(CORPUS.glob("*.curve"))]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    failed = False
    print(f"{'curve':<16} {'start-up ms':>11} {'call ms':>9} {'exit ms':>8}  (median of {args.reps})")
    for name in names:
        want = (CORPUS / f"{name}.expected.json").read_bytes()
        samples = []
        for _ in range(args.reps):
            *times, out = phases(CORPUS / f"{name}.curve", env)
            if out != want:
                print(f"{name}: output differs from the fixture", file=sys.stderr)
                failed = True
            samples.append(times)
        start, call, exit_ = (1000 * statistics.median(col) for col in zip(*samples))
        print(f"{name:<16} {start:11.1f} {call:9.1f} {exit_:8.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
