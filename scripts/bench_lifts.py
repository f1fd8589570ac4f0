#!/usr/bin/env python3
"""Time each Dixon lift, in process, on the inputs that make them.

Usage: PYTHONPATH=src python scripts/bench_lifts.py [--reps N] [--names NAME ...] [--base FILE]

The lifts are every `linalg._plain_lift` and `linalg_numpy.lift_kernel` call that
`report` (`cli.report_json_bytes`) and `koszul.syzygy_basis` make on the
corpus curves, the latter for m from mdr to N-2 as in the benchmark's
syzygy workload, and every lift of `hilbert_series` on curves that take
the sweep: the arrangements of the benchmark's hilbert-lines workload (one
draw of `perfbench/arrangements.py` from `workloads.FAMILY_SEED`), given
without their lines, and the unions of the first 4 and 5 conics drawn from
`random.Random(7)` with coefficients in [-5, 5].  The sweep's first lift is
its top one, of J_{2N-2}^T.

Each call is recorded with its arguments and replayed `--reps` times; the
script prints one JSON list with, per lift, its source and input, engine,
shape, prime, rank, kernel dimension, the number of p-adic digits it
solved, the minimum time in ms and a digest of its result.  With `--base
FILE`, another version of `linalg.py` replays the same calls: one file that
holds both engines, as before the numpy engine moved to `linalg_numpy.py`,
and imports nothing from the package.  Its runs are alternated with this
version's, so that a drifting host load falls on both alike; each lift then
has both figures, and the script exits 1 when the two results differ.  It
is a measuring tool, not a test.
"""

import argparse
import hashlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

from planecurves import Strand, hilbert_series, koszul, linalg, linalg_numpy, parse_polynomial
from planecurves.cli import report_json_bytes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import arrangements  # noqa: E402  (the benchmark's generator)
import workloads  # noqa: E402  (the benchmark's hilbert-lines family)

CONICS = (4, 5)


def conic_unions():
    """(name, f) for the unions of the first n random conics, n in CONICS;
    a conic whose symmetric matrix is singular is redrawn."""
    rng, conics = random.Random(7), []
    while len(conics) < max(CONICS):
        a, b, c, d, e, g = (rng.randint(-5, 5) for _ in range(6))
        det = 2 * a * (4 * b * c - g * g) - d * (2 * d * c - g * e) + e * (d * g - 2 * b * e)
        if det:
            conics.append(f"({a})*x^2+({b})*y^2+({c})*z^2+({d})*x*y+({e})*x*z+({g})*y*z")
    for n in CONICS:
        yield f"conics{n}", parse_polynomial("*".join(f"({q})" for q in conics[:n]))


def swept():
    """(name, f) of the curves whose sweep is timed."""
    family = random.Random(workloads.FAMILY_SEED)
    for i, n in enumerate(workloads.FAMILY_SIZES):
        vecs, _ = arrangements.random_arrangement(family, n)
        yield f"lines{n}_{i}", parse_polynomial("*".join(f"({arrangements.line_text(v)})" for v in vecs))
    yield from conic_unions()


def corpus_syzygies():
    """(name, f, degrees) as in the benchmark's syzygy workload."""
    for path in sorted((ROOT / "corpus").glob("*.curve")):
        expected = json.loads(path.with_suffix(".expected.json").read_text())
        N, mdr = expected["hilbert"]["N"], expected["hilbert"]["mdr"]
        if N < 5 or mdr is None:
            continue
        texts = [e if isinstance(e, str) else e["poly"] for e in json.loads(path.read_text())["factors"]]
        f = parse_polynomial("*".join(f"({t})" for t in texts))
        yield path.stem, f, range(min(mdr, N - 2), max(mdr, N - 2) + 1)


def capture(names) -> list[dict]:
    """Every lift call of the inputs, with its arguments, in call order."""
    calls, label = [], {}
    real = {"plain": linalg._plain_lift, "numpy": linalg_numpy.lift_kernel}

    def spy(engine):
        def lift(*args):
            calls.append({**label, "engine": engine, "args": args})
            return real[engine](*args)
        return lift

    linalg._plain_lift, linalg_numpy.lift_kernel = spy("plain"), spy("numpy")
    try:
        for path in sorted((ROOT / "corpus").glob("*.curve")):
            if not names or path.stem in names:
                label.update(source="report", input=path.stem)
                report_json_bytes(path)
        for name, f, degrees in corpus_syzygies():
            if not names or name in names:
                label.update(source="syzygy", input=name)
                for m in degrees:
                    koszul.syzygy_basis(f, m)
        for name, f in swept():
            if not names or name in names:
                label.update(source="sweep", input=name)
                hilbert_series(Strand(f))
    finally:
        linalg._plain_lift, linalg_numpy.lift_kernel = real["plain"], real["numpy"]
    return calls


def counted_solvers(engines: tuple, counter: list[int]) -> None:
    """Wrap both engines' solver factories, in their (plain, numpy) modules,
    so that each solve adds 1 to counter[0]."""
    for module, name in zip(engines, ("_echelon_solver", "_lu_solver")):
        factory = getattr(module, name)

        def wrapped(*args, factory=factory):
            solve = factory(*args)

            def counting(y):
                counter[0] += 1
                return solve(y)
            return counting

        setattr(module, name, wrapped)


def load(path: str):
    """The single-file `linalg` module at path, as a module of its own."""
    spec = importlib.util.spec_from_file_location("base_linalg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(call: dict, modules: dict, reps: int, counter: list[int]) -> dict:
    """The call's row: its input and, per version (its plain and numpy
    modules), digits, best ms and result digest."""
    args = call["args"]
    plain = call["engine"] == "plain"
    row = {
        "source": call["source"], "input": call["input"], "engine": call["engine"],
        "shape": [len(args[0]), args[1]] if plain else list(args[0].shape),
        "p": args[2] if plain else args[1],
    }
    best = dict.fromkeys(modules, float("inf"))
    for _ in range(reps):
        for name, (plain_engine, numpy_engine) in modules.items():
            counter[0] = 0
            fn = plain_engine._plain_lift if plain else numpy_engine.lift_kernel
            start = time.perf_counter()
            lift = fn(*args)
            best[name] = min(best[name], time.perf_counter() - start)
            result = None if lift is None else [lift.rank, lift.pivots, lift.free, lift.num, lift.den]
            row.update({
                "rank": None if lift is None else lift.rank,
                "kernel": None if lift is None else len(lift.free),
                f"digits{name}": counter[0], f"ms{name}": round(1e3 * best[name], 3),
                f"result{name}": hashlib.sha1(json.dumps(result).encode()).hexdigest()[:12],
            })
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=10, help="runs per lift (the minimum is kept)")
    parser.add_argument("--names", nargs="*", help="only these inputs")
    parser.add_argument("--base", help="another linalg.py to time on the same calls")
    args = parser.parse_args(argv)
    calls = capture(set(args.names or ()))
    modules = {"": (linalg, linalg_numpy)}
    if args.base is not None:
        base = load(args.base)
        modules = {"_base": (base, base), **modules}
    counter = [0]
    for engines in modules.values():
        counted_solvers(engines, counter)
    rows = [measure(call, modules, args.reps, counter) for call in calls]
    print(json.dumps(rows, indent=1))
    return 1 if args.base and any(row["result_base"] != row["result"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
