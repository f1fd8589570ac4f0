"""Seeded random line arrangements with only double and triple points.

A copy of the test-suite generator, kept here so that editing a test cannot
change the benchmark's workload.  Lines have small integer coefficients; with
probability 0.35 a new line is forced through an existing intersection point
so triple points occur.  An arrangement with a point on four or more lines is
redrawn.  The census is computed here from pairwise intersections in exact
integers, independently of the program under test.
"""

from __future__ import annotations

import random
from math import gcd


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _proportional(u, v) -> bool:
    return all(c == 0 for c in cross(u, v))


def _canonical(p):
    """Primitive integer vector whose first nonzero coordinate is positive."""
    g = 0
    for c in p:
        g = gcd(g, c)
    p = tuple(c // g for c in p)
    first = next(c for c in p if c != 0)
    return p if first > 0 else tuple(-c for c in p)


def census(vecs) -> dict:
    """Exact census of the arrangement of lines a x + b y + c z = 0.

    Returns n (double points), t (triple points) and the largest number of
    lines through one point.
    """
    points: dict = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            p = cross(vecs[i], vecs[j])
            if all(c == 0 for c in p):
                raise ValueError(f"lines {i} and {j} are proportional")
            points.setdefault(_canonical(p), set()).update((i, j))
    mults = [len(s) for s in points.values()]
    return {
        "n": sum(1 for m in mults if m == 2),
        "t": sum(1 for m in mults if m == 3),
        "max_multiplicity": max(mults),
    }


def random_arrangement(rng: random.Random, nlines: int):
    """Draw coefficient vectors of nlines lines with only double and triple points."""
    while True:
        vecs = []
        tries = 0
        while len(vecs) < nlines and tries < 200:
            tries += 1
            if len(vecs) >= 2 and rng.random() < 0.35:
                i, j = rng.sample(range(len(vecs)), 2)
                point = cross(vecs[i], vecs[j])
                other = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                cand = cross(point, other)
            else:
                cand = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            if all(c == 0 for c in cand):
                continue
            if any(_proportional(cand, v) for v in vecs):
                continue
            vecs.append(cand)
        if len(vecs) < nlines:
            continue
        info = census(vecs)
        if info["max_multiplicity"] >= 4:
            continue
        return vecs, info


def line_text(v) -> str:
    """A linear form in the program's input syntax, e.g. '3x-y+12z'."""
    out = ""
    for coeff, var in zip(v, "xyz"):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if out else "")
        mag = abs(coeff)
        out += f"{sign}{'' if mag == 1 else mag}{var}"
    return out


def product_coeff_bits(vecs) -> int:
    """Largest coefficient bit-length of the expanded product of the lines."""
    poly = {(0, 0, 0): 1}
    for a, b, c in vecs:
        nxt: dict = {}
        for (i, j, k), v in poly.items():
            for step, coeff in (((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), c)):
                if coeff:
                    key = (i + step[0], j + step[1], k + step[2])
                    nxt[key] = nxt.get(key, 0) + v * coeff
        poly = nxt
    return max(abs(v).bit_length() for v in poly.values())
