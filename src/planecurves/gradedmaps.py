"""Matrix builders for the graded multiplication maps used everywhere.

Each matrix is built as what the engine that ranks it takes
(`linalg.is_plain`): rows of Python ints for the plain engine, one integer
ndarray for numpy's.  Columns are indexed slot-major in monomial_basis order, rows
block-major in monomial_basis order, so pivoting and fixtures are
reproducible.
"""

from __future__ import annotations

from .linalg import ExactMatrix, _row_to_int, int_dtype, is_plain, np
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


def contractions(phi: np.ndarray | list[list[int]], k: int) -> np.ndarray | list[list[int]]:
    """x⌟φ, y⌟φ and z⌟φ, functionals on S_k in the monomial basis:
    (x⌟φ)(u) = φ(x u) for u in S_{k-1}.  phi holds the φ as its columns (an
    ndarray, and so does the result, x⌟ first) or is their list (and so is
    the result, in the same order).

    Only re-indexing, so it commutes with reduction mod p: x u has the index
    of u, and y u, z u those of (b+1, c), (b, c+1).
    """
    basis = monomial_basis(k - 1)
    indices = [
        range(len(basis)),
        [_monomial_index(b + 1, c) for _, b, c in basis],
        [_monomial_index(b, c + 1) for _, b, c in basis],
    ]
    if isinstance(phi, list):
        return [[f[i] for i in index] for index in indices for f in phi]
    return np.hstack([phi[list(index)] for index in indices])


def _assemble(blocks: list[tuple[dict, int, int]], m: int, shape: tuple[int, int]) -> ExactMatrix:
    """Matrix in which each (gen, row0, col0) block maps the degree-m monomial
    u (column col0 + its index) to gen * u (rows row0 + monomial index).

    Built as what its engine takes (`linalg.is_plain`): lists of Python ints
    for the plain engine, else straight into one ndarray, int64 when every
    coefficient fits and object (Python ints) otherwise.
    """
    basis = monomial_basis(m)
    if is_plain(shape[0] * shape[1]):
        rows = [[0] * shape[1] for _ in range(shape[0])]
        for gen, row0, col0 in blocks:
            for (_, db, dc), coeff in gen.items():
                for col, (_, b, c) in enumerate(basis):
                    rows[row0 + _monomial_index(b + db, c + dc)][col0 + col] = coeff
        return ExactMatrix(rows, ncols=shape[1])
    arr = np.zeros(shape, dtype=int_dtype(c for gen, _, _ in blocks for c in gen.values()))
    exponents = np.array(basis, dtype=np.int64).reshape(-1, 3)
    cols = np.arange(len(basis))
    for gen, row0, col0 in blocks:
        for (_, b, c), coeff in gen.items():
            arr[row0 + _monomial_index(exponents[:, 1] + b, exponents[:, 2] + c), col0 + cols] = coeff
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
    return [p.terms for p in jacobian_partials(Polynomial(integer_scaled(f)))]


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
