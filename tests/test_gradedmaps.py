"""The graded matrix builders, entry for entry against monomial shifts."""

from fractions import Fraction

import numpy as np
import pytest

from planecurves.gradedmaps import (
    cross_matrix,
    gradient_column_matrix,
    integer_scaled,
    jacobian_matrix,
    jacobian_partials,
)
from planecurves.polynomials import Polynomial, monomial_basis, parse_polynomial
from tests.conftest import CORPUS, corpus_specs, load_corpus_curve

CURVES = ["degree5_D4", "triangle_cubic"]


def shifted(entries, m, d, nrows, ncols):
    """Matrix whose column (col0 + j) is gen * u_j for the j-th degree-m
    monomial u_j, written at row row0 + (index of the product monomial among
    the degree-(m + d) monomials), for each (gen, row0, col0) in entries."""
    rows = [[0] * ncols for _ in range(nrows)]
    index = {mono: i for i, mono in enumerate(monomial_basis(m + d))}
    for gen, row0, col0 in entries:
        for j, u in enumerate(monomial_basis(m)):
            for mono, c in gen.items():
                rows[row0 + index[tuple(a + b for a, b in zip(mono, u))]][col0 + j] = c
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def int_terms(p: Polynomial) -> dict:
    assert all(c.denominator == 1 for c in p.terms.values())
    return {mono: int(c) for mono, c in p.terms.items()}


def scaled_partials(f):
    fi = Polynomial({mono: Fraction(c) for mono, c in integer_scaled(f).items()})
    return [int_terms(g) for g in jacobian_partials(fi)]


def degrees(N):
    return sorted({0, 1, N - 2, 2 * N - 3})


def cases():
    for name in CURVES:
        curve, _ = load_corpus_curve(CORPUS / f"{name}.curve")
        for m in degrees(curve.N):
            yield pytest.param(curve.f, m, id=f"{name}-m{m}")


def assert_same(built, expected):
    assert built.array.dtype == np.int64
    assert built.array.shape == expected.shape
    assert np.array_equal(built.array, expected)
    assert built.rows == expected.tolist()


@pytest.mark.parametrize("f, m", cases())
def test_jacobian_scaled(f, m):
    """Slot s gets the s-th partial of f scaled to coprime integers: one
    scale of f for all three slots, so the kernel is that over Q."""
    N = f.degree()
    width = len(monomial_basis(m))
    nrows = len(monomial_basis(m + N - 1))
    entries = [(g, 0, s * width) for s, g in enumerate(scaled_partials(f))]
    assert_same(jacobian_matrix(f, m), shifted(entries, m, N - 1, nrows, 3 * width))


@pytest.mark.parametrize("f, m", cases())
def test_jacobian_unscaled(f, m):
    """The map is one nonzero rational multiple of the map built from the
    raw partials of f, entry for entry, so the two have the same kernel."""
    N = f.degree()
    width = len(monomial_basis(m))
    nrows = len(monomial_basis(m + N - 1))
    raw = np.zeros((nrows, 3 * width), dtype=object)
    index = {mono: i for i, mono in enumerate(monomial_basis(m + N - 1))}
    for s, g in enumerate(jacobian_partials(f)):
        for j, u in enumerate(monomial_basis(m)):
            for mono, c in g.terms.items():
                raw[index[tuple(a + b for a, b in zip(mono, u))], s * width + j] = Fraction(c)
    built = jacobian_matrix(f, m).array.astype(object)
    assert (built != 0).tolist() == (raw != 0).tolist()
    ratios = {Fraction(int(b)) / r for b, r in zip(built.flat, raw.flat) if r != 0}
    assert len(ratios) == 1


@pytest.mark.parametrize("f, m", cases())
def test_cross(f, m):
    """v -> grad(f) x v: component i gets eps(i, j, s) f_j times slot s."""
    N = f.degree()
    grad = scaled_partials(f)
    width = len(monomial_basis(m))
    block = len(monomial_basis(m + N - 1))
    entries = []
    for i in range(3):
        for s in range(3):
            if s == i:
                continue
            j = 3 - i - s
            sign = 1 if (i, j, s) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            entries.append(({mono: sign * c for mono, c in grad[j].items()}, i * block, s * width))
    assert_same(cross_matrix(f, m), shifted(entries, m, N - 1, 3 * block, 3 * width))


@pytest.mark.parametrize("f, m", cases())
def test_gradient(f, m):
    N = f.degree()
    width = len(monomial_basis(m))
    block = len(monomial_basis(m + N - 1))
    entries = [(g, t * block, 0) for t, g in enumerate(scaled_partials(f))]
    assert_same(gradient_column_matrix(f, m), shifted(entries, m, N - 1, 3 * block, width))


def test_negative_degree_is_empty():
    f = load_corpus_curve(CORPUS / "degree5_D4.curve")[0].f
    for build in (jacobian_matrix, cross_matrix, gradient_column_matrix):
        assert build(f, -1).array.shape == (0, 0)


def test_rational_coefficients_cleared_by_one_factor():
    """x^2/4 + y^2/6 + z^2 is scaled once, to 3x^2 + 2y^2 + 12z^2, so the
    partials 6x, 4y, 24z keep their ratios and the kernel of the map."""
    built = jacobian_matrix(parse_polynomial("1/4*x^2 + 1/6*y^2 + z^2"), 0)
    assert built.rows == [[6, 0, 0], [0, 4, 0], [0, 0, 24]]


@pytest.mark.parametrize("spec", corpus_specs(), ids=lambda spec: spec.stem)
def test_strand_is_an_integer_complex(spec):
    """J_m C_{m-N+1} = 0 and C_m G_{m-N+1} = 0 as products of the integer
    matrices, at the first two degrees where the inner map is nonzero."""
    f = load_corpus_curve(spec)[0].f
    N = f.degree()
    for m in (N - 1, N):
        for outer, inner in ((jacobian_matrix, cross_matrix), (cross_matrix, gradient_column_matrix)):
            product = outer(f, m).array.astype(object) @ inner(f, m - N + 1).array.astype(object)
            assert not product.any(), (outer.__name__, m)
