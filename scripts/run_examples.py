#!/usr/bin/env python3
"""Print the headline invariants for every corpus curve.

Usage: python scripts/run_examples.py [--modp]

With --modp the rank computations run modulo two word-sized primes, without
a certificate and more slowly than the exact path, which certifies most
ranks by contraction; without it every rank is exact and certified.  Each
curve's Strand comes from `cli.resolve_strand`, as in the CLI.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from planecurves import hilbert_series, spectral_table, theorem2_report
from planecurves.cli import build_from_spec, fmt_threshold, resolve_profile, resolve_strand

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modp", action="store_true", help="modular rank mode")
    args = parser.parse_args(argv)
    modp = argparse.Namespace(modp="1060937,536969711" if args.modp else None)

    for spec_path in sorted(CORPUS.glob("*.curve")):
        data = json.loads(spec_path.read_text())
        curve = build_from_spec(data)
        t0 = time.time()
        strand = resolve_strand(curve, data, modp)
        profile = resolve_profile(curve, data, strand.census)
        h = hilbert_series(strand)
        table = spectral_table(strand)
        report = theorem2_report(strand, profile)
        elapsed = time.time() - t0
        print(f"== {spec_path.stem}  (N={curve.N}, r={curve.r}, {elapsed:.1f}s)")
        print(f"   HP(M(f)) = {h.series_str()}")
        print(f"   tau={h.stable_value} ct={fmt_threshold(h.ct)} st={h.st} mdr={fmt_threshold(h.mdr)}")
        print(f"   n={profile.n} t={profile.t} sum(g_j)={profile.sum_genus}")
        a, b = report.part_a, report.part_b
        print(f"   A: {a.lower} <= {a.value} <= {a.upper} ({a.verdict})"
              f"   B: {b.lower} <= {b.value} <= {b.upper} ({b.verdict})"
              f"   F^2=P^2: {report.f2_equals_p2}")
        print(f"   E2^(2,1) dim = {table.e2_21}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
