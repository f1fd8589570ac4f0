"""Matrix builders for the graded multiplication maps used everywhere.

Each matrix is built as what the engine that ranks it takes
(`linalg.is_plain`): rows of Python ints for the plain engine, one integer
ndarray for numpy's.  Columns are indexed slot-major in monomial_basis order, rows
block-major in monomial_basis order, so pivoting and fixtures are
reproducible.

The Jacobian maps of a curve with a diagonal symmetry are block diagonal
(`Grading`, `jacobian_blocks`).  Grade x^a y^b z^c by (b, c) modulo the
projection of the lattice spanned by the differences of f's exponents (the
degree fixes a).  Column (s, u) of J_m is u f_s, and every term of f_s is
e - 1_s for an exponent e of f, so its entries lie in the rows of the class
of u + e_0 - 1_s.  x has class 0, so x^e u has the class and the index of u:
a block of J_m is a corner of the block of J_{m+e} of its class.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, isqrt
from typing import NamedTuple, Sequence

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


def _exponents(i: int) -> tuple[int, int]:
    """(b, c) of the monomial at index i of any monomial_basis."""
    e = (isqrt(8 * i + 1) - 1) // 2
    c = i - e * (e + 1) // 2
    return e - c, c


def contractions(phis: Sequence, where: dict[int, tuple[int, int]], rows: Sequence[int]) -> list[list[int]] | np.ndarray:
    """x⌟φ, y⌟φ and z⌟φ, in that order, read on the monomials u at the
    indices `rows`: (x⌟φ)(u) = φ(x u).  Each φ is a functional on a block of
    rows one degree up, by its values there; phis[block] is their list, an
    ndarray of them as columns (the result takes the same form; a list holds
    a φ only when no ndarray is given) or None.  `where` maps a row index to
    (block, position).  Only re-indexing, so it commutes with reduction mod
    p: x u has the index of u, y u and z u those of (b+1, c) and (b, c+1).
    """
    pairs = [_exponents(i) for i in rows]
    lists, arrays = [], []
    for images in (rows, [_monomial_index(b + 1, c) for b, c in pairs], [_monomial_index(b, c + 1) for b, c in pairs]):
        chain = phis[where[images[0]][0]] if images else None
        at = [where[i][1] for i in images]
        if isinstance(chain, list):
            lists += [[phi[i] for i in at] for phi in chain]
        elif chain is not None:
            arrays.append(chain[at])
    return np.hstack(arrays) if arrays else lists


class Grading:
    """The classes of monomials under the diagonal symmetry of f (see the
    module docstring): (b, c) modulo L = Z(p, q) + Z(0, r), the projection of
    the lattice of exponent differences in Hermite form, with p, r >= 0 and
    (p, q) = 0 when p is.  A class is its reduced representative."""

    def __init__(self, f: Polynomial):
        (_, b0, c0), *rest = f.terms
        p = q = r = 0
        for _, b, c in rest:
            u, v = b - b0, c - c0
            while u:  # Euclid on the first coordinates keeps the lattice
                t = p // u
                (p, q), (u, v) = (u, v), (p - t * u, q - t * v)
            r = gcd(r, v)
        self.lattice = (p, q, r) if p >= 0 else (-p, -q, r)
        self.e0 = (b0, c0)

    def __call__(self, b: int, c: int) -> tuple[int, int]:
        """The class of x^a y^b z^c."""
        p, q, r = self.lattice
        if p:
            t = b // p
            b, c = b - t * p, c - t * q
        return b, c % r if r else c

    def column(self, s: int, b: int, c: int) -> tuple[int, int]:
        """The class of the rows of column (s, x^a y^b z^c) of J_m."""
        return self(b + self.e0[0] - (s == 1), c + self.e0[1] - (s == 2))


class Block(NamedTuple):
    """One diagonal block of a matrix: its row and column indices in the
    matrix, increasing, and its entries there."""

    rows: list[int]
    columns: list[int]
    matrix: ExactMatrix


def _assemble(blocks: list[tuple[dict, int, list]], shape: tuple[int, int], place: Sequence[int] = ()) -> ExactMatrix:
    """Matrix in which each (gen, row0, columns) block maps the monomial
    x^a y^b z^c of each (j, b, c) in `columns` (column j) to gen times it
    (row place[row0 + its monomial index]; no `place` is the identity).

    Built as what its engine takes (`linalg.is_plain`): lists of Python ints
    for the plain engine, else straight into one ndarray, int64 when every
    coefficient fits and object (Python ints) otherwise.
    """
    place = place or range(shape[0])
    if is_plain(shape[0] * shape[1]):
        rows = [[0] * shape[1] for _ in range(shape[0])]
        for gen, row0, columns in blocks:
            for (_, db, dc), coeff in gen.items():
                for j, b, c in columns:
                    rows[place[row0 + _monomial_index(b + db, c + dc)]][j] = coeff
        return ExactMatrix(rows, ncols=shape[1])
    arr = np.zeros(shape, dtype=int_dtype(c for gen, _, _ in blocks for c in gen.values()))
    place = np.asarray(place)
    for gen, row0, columns in blocks:
        j, b, c = np.array(columns, dtype=np.int64).reshape(-1, 3).T
        for (_, db, dc), coeff in gen.items():
            arr[place[row0 + _monomial_index(b + db, c + dc)], j] = coeff
    return ExactMatrix(arr)


def _columns(m: int, col0: int) -> list[tuple[int, int, int]]:
    """(col0 + index, b, c) for the monomials x^a y^b z^c of degree m."""
    return [(col0 + i, b, c) for i, (_, b, c) in enumerate(monomial_basis(m))]


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
    blocks = [(g, 0, _columns(m, s * width)) for s, g in enumerate(_integer_partials(f))]
    return _assemble(blocks, (s_dim(m + f.degree() - 1), 3 * width))


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
        (g, t * block, _columns(m, s * width))
        for s, images in enumerate(slot_images)
        for t, g in enumerate(images)
        if g is not None
    ]
    return _assemble(blocks, (3 * block, 3 * width))


def gradient_column_matrix(f: Polynomial, m: int) -> ExactMatrix:
    """Matrix of S_m -> S_{m+N-1}^3, g -> g * (f_x, f_y, f_z)."""
    if m < 0:
        return ExactMatrix([], ncols=0)
    block = s_dim(m + f.degree() - 1)
    blocks = [(g, t * block, _columns(m, 0)) for t, g in enumerate(_integer_partials(f))]
    return _assemble(blocks, (3 * block, s_dim(m)))


def jacobian_blocks(f: Polynomial, m: int) -> list[Block]:
    """The diagonal blocks of jacobian_matrix(f, m), one per class of
    `Grading(f)` that holds a row or a column, each built for its engine."""
    grading, width, basis = Grading(f), s_dim(m), monomial_basis(m)
    rows, columns = defaultdict(list), defaultdict(list)
    place = []  # row index -> position in its block
    for i, (_, b, c) in enumerate(monomial_basis(m + f.degree() - 1)):
        block = rows[grading(b, c)]
        place.append(len(block))
        block.append(i)
    for s in range(3):
        for i, (_, b, c) in enumerate(basis):
            columns[grading.column(s, b, c)].append(s * width + i)
    partials, blocks = _integer_partials(f), []
    for key in sorted(rows.keys() | columns.keys()):
        slots = [[], [], []]
        for j, col in enumerate(columns[key]):
            slots[col // width].append((j, *basis[col % width][1:]))
        matrix = _assemble(list(zip(partials, (0, 0, 0), slots)), (len(rows[key]), len(columns[key])), place)
        blocks.append(Block(rows[key], columns[key], matrix))
    return blocks
