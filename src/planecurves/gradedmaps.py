"""Matrix builders for the graded multiplication maps used everywhere.

Each matrix is written straight into one integer ndarray.  Columns are indexed
slot-major in monomial_basis order, rows block-major in monomial_basis order,
so pivoting and fixtures are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import ExactMatrix, _row_to_int, int_dtype, np
from .polynomials import Polynomial, monomial_basis


def s_dim(d: int) -> int:
    """dim of the space of homogeneous degree-d polynomials in x, y, z."""
    if d < 0:
        return 0
    return (d + 1) * (d + 2) // 2


def integer_scaled(p: Polynomial) -> dict[tuple[int, int, int], int]:
    """Term map of p scaled to coprime integer coefficients."""
    return dict(zip(p.terms, _row_to_int(list(p.terms.values()))))


def _monomial_index(b, c):
    """Position of x^a y^b z^c in monomial_basis(a + b + c), for any a."""
    e = b + c
    return e * (e + 1) // 2 + c


def contractions(phi: np.ndarray, k: int) -> np.ndarray:
    """x⌟φ, y⌟φ and z⌟φ side by side, for the columns φ of phi, functionals
    on S_k in the monomial basis: (x⌟φ)(u) = φ(x u) for u in S_{k-1}.

    Only re-indexing, so it commutes with reduction mod p: x u has the index
    of u, and y u, z u those of (b+1, c), (b, c+1).
    """
    basis = np.array(monomial_basis(k - 1), dtype=np.int64).reshape(-1, 3)
    b, c = basis[:, 1], basis[:, 2]
    return np.hstack([phi[: len(basis)], phi[_monomial_index(b + 1, c)], phi[_monomial_index(b, c + 1)]])


def _assemble(blocks: list[tuple[dict, int, int]], m: int, shape: tuple[int, int]) -> ExactMatrix:
    """Matrix in which each (gen, row0, col0) block maps the degree-m monomial
    u (column col0 + its index) to gen * u (rows row0 + monomial index).

    Built straight into one ndarray: int64 when every coefficient fits,
    object (Python ints) otherwise.
    """
    arr = np.zeros(shape, dtype=int_dtype(c for gen, _, _ in blocks for c in gen.values()))
    basis = np.array(monomial_basis(m), dtype=np.int64).reshape(-1, 3)
    cols = np.arange(len(basis))
    for gen, row0, col0 in blocks:
        for (_, b, c), coeff in gen.items():
            arr[row0 + _monomial_index(basis[:, 1] + b, basis[:, 2] + c), col0 + cols] = coeff
    return ExactMatrix(arr)


def jacobian_partials(f: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    return (
        f.partial_derivative("x"),
        f.partial_derivative("y"),
        f.partial_derivative("z"),
    )


def _integer_partials(f: Polynomial) -> list[dict]:
    """Integer term maps of the partials of f scaled to coprime integers.

    All three strand maps (jacobian, cross, gradient) are built from these,
    so they share one scale of f: J_m C_{m-N+1} = 0 and C_m G_{m-N+1} = 0
    hold as integer products, and every kernel is the kernel over Q.
    """
    fi = Polynomial({m: Fraction(c) for m, c in integer_scaled(f).items()})
    return [{m: int(c) for m, c in p.terms.items()} for p in jacobian_partials(fi)]


def jacobian_matrix(f: Polynomial, m: int) -> ExactMatrix:
    """Matrix of S_m^3 -> S_{m+N-1}, (a,b,c) -> a f_x + b f_y + c f_z."""
    if m < 0:
        return ExactMatrix([], ncols=0)
    width = s_dim(m)
    blocks = [(g, 0, s * width) for s, g in enumerate(_integer_partials(f))]
    return _assemble(blocks, m, (s_dim(m + f.degree() - 1), 3 * width))


def cross_matrix(f: Polynomial, m: int) -> ExactMatrix:
    """Matrix of S_m^3 -> S_{m+N-1}^3, v -> grad(f) x v (wedge with df on 1-forms)."""
    if m < 0:
        return ExactMatrix([], ncols=0)
    fx, fy, fz = _integer_partials(f)
    block = s_dim(m + f.degree() - 1)
    width = s_dim(m)
    neg = lambda g: {k: -v for k, v in g.items()}
    # (a,0,0) -> (0, a f_z, -a f_y); (0,b,0) -> (-b f_z, 0, b f_x);
    # (0,0,c) -> (c f_y, -c f_x, 0)   [components on dy^dz, dz^dx, dx^dy]
    slot_images = [
        (None, fz, neg(fy)),
        (neg(fz), None, fx),
        (fy, neg(fx), None),
    ]
    blocks = [
        (g, t * block, s * width)
        for s, images in enumerate(slot_images)
        for t, g in enumerate(images)
        if g is not None
    ]
    return _assemble(blocks, m, (3 * block, 3 * width))


def gradient_column_matrix(f: Polynomial, m: int) -> ExactMatrix:
    """Matrix of S_m -> S_{m+N-1}^3, g -> g * (f_x, f_y, f_z)."""
    if m < 0:
        return ExactMatrix([], ncols=0)
    block = s_dim(m + f.degree() - 1)
    blocks = [(g, t * block, 0) for t, g in enumerate(_integer_partials(f))]
    return _assemble(blocks, m, (3 * block, s_dim(m)))
