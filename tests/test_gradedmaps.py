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
    multiplication_matrix,
)
from planecurves.polynomials import Polynomial, monomial_basis
from tests.conftest import CORPUS, load_corpus_curve

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
def test_jacobian_unscaled(f, m):
    """The kernel-preserving form that feeds syzygy_basis: raw partials."""
    N = f.degree()
    parts = [int_terms(g) for g in jacobian_partials(f)]
    width = len(monomial_basis(m))
    nrows = len(monomial_basis(m + N - 1))
    entries = [(g, 0, s * width) for s, g in enumerate(parts)]
    expected = shifted(entries, m, N - 1, nrows, 3 * width)
    assert_same(jacobian_matrix(f, m, scale_generators=False), expected)


@pytest.mark.parametrize("f, m", cases())
def test_jacobian_scaled(f, m):
    N = f.degree()
    parts = [integer_scaled(g) for g in jacobian_partials(f)]
    width = len(monomial_basis(m))
    nrows = len(monomial_basis(m + N - 1))
    entries = [(g, 0, s * width) for s, g in enumerate(parts)]
    assert_same(jacobian_matrix(f, m), shifted(entries, m, N - 1, nrows, 3 * width))


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
    """Without generator scaling one common denominator clears every
    generator, so the kernel of the map is unchanged."""
    gens = [Polynomial({(1, 0, 0): Fraction(1, 2)}), Polynomial({(0, 1, 0): Fraction(1, 3)})]
    built = multiplication_matrix(gens, 0, scale_generators=False)
    assert built.rows == [[3, 0], [0, 2], [0, 0]]
