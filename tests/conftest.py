"""Shared fixtures: named curves, corpus access, random arrangements, and the
modular Strands of the criterion-8 property sweep."""

import functools
import importlib.util
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from planecurves import (
    MultiplicityError,
    Polynomial,
    Strand,
    analyze_arrangement,
    parse_polynomial,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# One word-sized prime is enough for the bulk property sweeps; every identity
# they assert is itself a cross-check, and unlucky primes only ever lower a
# rank, which breaks the identities rather than masking a failure.
MODP_PRIMES = (1060937,)

CURVE_TEXTS = {
    "generic4": "xyz(x+y+z)",
    "nodal4": "x(x^3+y^3+z^3)",
    "smooth4": "x^4+y^4+z^4",
    "degree5": "xy(x+y)z^2+x^5+2y^5",
    "degree9": "(x^3+y^3+z^3)^3+(x^3+2y^3+3z^3)^3",
    "cusp3": "xy^2+z^3",
}


@pytest.fixture(scope="session")
def curves():
    return {name: parse_polynomial(text) for name, text in CURVE_TEXTS.items()}


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


def corpus_specs():
    return sorted(CORPUS.glob("*.curve"))


def load_corpus_curve(path):
    from planecurves.cli import build_from_spec, resolve_profile

    data = json.loads(path.read_text())
    curve = build_from_spec(data)
    profile = resolve_profile(curve, data)
    return curve, profile


def line_poly(a, b, c) -> Polynomial:
    terms = {}
    for mono, coeff in (((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), c)):
        if coeff:
            terms[mono] = Fraction(coeff)
    return Polynomial(terms)


def hilbert_lines_family():
    """The line vectors of the benchmark's hilbert-lines inputs, before the
    seeded signs and order: `perfbench.workloads` draws them from
    FAMILY_SEED = 1401 with sizes 7, 7 and 8."""
    path = CORPUS.parent / "perfbench" / "arrangements.py"
    spec = importlib.util.spec_from_file_location("perfbench_arrangements", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(1401)
    return {f"lines{n}_{i}": module.random_arrangement(rng, n)[0] for i, n in enumerate((7, 7, 8))}


def _line_coeff_vec(p: Polynomial):
    return (
        p.terms.get((1, 0, 0), Fraction(0)),
        p.terms.get((0, 1, 0), Fraction(0)),
        p.terms.get((0, 0, 1), Fraction(0)),
    )


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _proportional(u, v):
    return all(c == 0 for c in _cross(u, v))


def random_arrangement(rng: random.Random, nlines: int):
    """Random arrangement with only double and triple points.

    Lines are drawn with small integer coefficients; with some probability a
    new line is forced through an existing double point so triple points
    actually occur.  Arrangements with a point of multiplicity >= 4 are
    rejected and redrawn.
    """
    while True:
        vecs = []
        tries = 0
        while len(vecs) < nlines and tries < 200:
            tries += 1
            if len(vecs) >= 2 and rng.random() < 0.35:
                i, j = rng.sample(range(len(vecs)), 2)
                point = _cross(vecs[i], vecs[j])
                other = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                cand = _cross(point, other)
            else:
                cand = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            if all(c == 0 for c in cand):
                continue
            if any(_proportional(cand, v) for v in vecs):
                continue
            vecs.append(cand)
        if len(vecs) < nlines:
            continue
        lines = [line_poly(*v) for v in vecs]
        try:
            profile = analyze_arrangement(lines)
        except MultiplicityError:
            continue
        return lines, profile


@pytest.fixture(scope="session")
def random_arrangements():
    """50 seeded arrangements of <= 7 lines, biased toward small ones."""
    rng = random.Random(20260826)
    sizes = [3] * 22 + [4] * 15 + [5] * 8 + [6] * 3 + [7] * 2
    return [random_arrangement(rng, n) for n in sizes]


@pytest.fixture(scope="session")
def sweep_arrangements(random_arrangements):
    """(lines, f, profile) for every arrangement of the sweep: the corpus
    arrangements, then the random ones."""
    items = [
        (curve.factor_polys, curve.f, profile)
        for curve, profile in map(load_corpus_curve, corpus_specs())
        if profile.points
    ]
    items += [(lines, functools.reduce(operator.mul, lines), profile) for lines, profile in random_arrangements]
    return items


@pytest.fixture(scope="session")
def sweep(random_arrangements):
    """(modular Strand, profile, N) for every corpus curve and random arrangement.

    One Strand per curve for the whole session, so the sweeps of criterion 8
    share each curve's ranks.
    """
    items = [(curve.f, profile) for curve, profile in map(load_corpus_curve, corpus_specs())]
    items += [(functools.reduce(operator.mul, lines), profile) for lines, profile in random_arrangements]
    return [(Strand(f, MODP_PRIMES), profile, f.degree()) for f, profile in items]
