"""The three workloads: operations, their inputs and their output checks.

Every operation is one worker process.  Inputs depend only on the seed.

* ``report``: ``planecurves report --format json`` on every corpus curve
  except ``pappus_a2`` (same shape and cost as ``pappus_a1``), in seeded
  order.  Output must equal the frozen fixture byte for byte.
* ``hilbert-lines``: ``planecurves hilbert --format json`` on line
  arrangements of 7, 7 and 8 lines with forced triple points.  The
  arrangements are one draw of the generator from FAMILY_SEED; the workload
  seed picks the signs of x, y and z, the sign of each line and the order of
  the lines, which changes the input files but not the amount of work.  (The
  time of an exact 8-line Hilbert series varies about 3x between fresh draws,
  4.8-15.7 s, which would swamp any regression bound.)
* ``syzygy``: ``syzygy_basis(f, m)`` for m from mdr to N-2 (from N-2 to mdr
  when mdr > N-2) on every corpus curve with N >= 5 and finite mdr except
  ``pappus_a2``, one worker per curve, in seeded order.
"""

from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path

import arrangements
import oracles

WORKLOADS = ("report", "hilbert-lines", "syzygy")
# pappus_a2 repeats the shape and the cost of pappus_a1.
SKIP = {"pappus_a2"}
FAMILY_SEED = 1401
FAMILY_SIZES = (7, 7, 8)
POINTS = 3
# Short operations took under about 2 s when this was written; they are
# sampled three times per pass (see run.run_pass): in report the curves of
# degree <= 6, in syzygy every curve but pappus_a1.
SHORT_N = 6
SYZYGY_LONG = {"pappus_a1"}


def _factor_texts(spec: dict) -> list[str]:
    return [e if isinstance(e, str) else e["poly"] for e in spec["factors"]]


def _report_ops(root: Path, rng: random.Random, work: Path) -> list[dict]:
    ops = []
    for spec in sorted((root / "corpus").glob("*.curve")):
        name = spec.stem
        if name in SKIP:
            continue
        expected = spec.with_suffix(".expected.json").read_bytes()
        N = json.loads(expected)["curve"]["N"]
        ops.append({
            "name": name,
            "request": {"op": "cli", "argv": ["report", str(spec), "--format", "json"]},
            "check": partial(oracles.check_report, expected=expected),
            "info": {"N": N},
            "short": N <= SHORT_N,
        })
    rng.shuffle(ops)
    return ops


def _hilbert_ops(root: Path, rng: random.Random, work: Path) -> list[dict]:
    family_rng = random.Random(FAMILY_SEED)
    family = [arrangements.random_arrangement(family_rng, n) for n in FAMILY_SIZES]
    ops = []
    for i, (vecs, census) in enumerate(family):
        flips = [rng.choice((1, -1)) for _ in range(3)]
        signs = [rng.choice((1, -1)) for _ in vecs]
        vecs = [tuple(sign * c * s for c, s in zip(v, flips)) for v, sign in zip(vecs, signs)]
        rng.shuffle(vecs)
        name = f"lines{len(vecs)}_{i}"
        path = work / f"{name}.curve"
        spec = {"name": name, "factors": [arrangements.line_text(v) for v in vecs]}
        path.write_text(json.dumps(spec, indent=1) + "\n")
        info = {
            "N": len(vecs), "n": census["n"], "t": census["t"],
            "coeff_bits": arrangements.product_coeff_bits(vecs),
        }
        ops.append({
            "name": name,
            "request": {"op": "cli", "argv": ["hilbert", str(path), "--format", "json"]},
            "check": partial(oracles.check_hilbert, info=info),
            "info": info,
            "short": False,
        })
    return ops


def _syzygy_ops(root: Path, rng: random.Random, work: Path) -> list[dict]:
    points = [tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(POINTS)]
    ops = []
    for spec_path in sorted((root / "corpus").glob("*.curve")):
        expected = json.loads(spec_path.with_suffix(".expected.json").read_text())
        N, mdr = expected["hilbert"]["N"], expected["hilbert"]["mdr"]
        if N < 5 or mdr is None or spec_path.stem in SKIP:
            continue
        spec = json.loads(spec_path.read_text())
        degrees = list(range(min(mdr, N - 2), max(mdr, N - 2) + 1))
        info = {
            "N": N, "mdr": mdr, "degrees": degrees,
            "er_top": expected["theorem2"]["part_b"]["value"],
            "f": "*".join(f"({t})" for t in _factor_texts(spec)),
        }
        ops.append({
            "name": spec_path.stem,
            "request": {"op": "syzygy", "curve": str(spec_path), "degrees": degrees},
            "check": partial(oracles.check_syzygy, info=info, points=points),
            "info": info,
            "short": spec_path.stem not in SYZYGY_LONG,
        })
    rng.shuffle(ops)
    return ops


BUILDERS = {"report": _report_ops, "hilbert-lines": _hilbert_ops, "syzygy": _syzygy_ops}


def build(workload: str, seed: int, root: Path, work: Path) -> list[dict]:
    """Operations of one pass; every pass of a run repeats the same list."""
    return BUILDERS[workload](root, random.Random(f"{workload}:{seed}"), work)
