"""Graded Koszul cohomology of (f_x, f_y, f_z), essential syzygies, and the
first-page spectral table.

`koszul_h_dim` computes H^m at internal degree k directly from the two
adjacent wedge-df maps of the strand; the tests hold it against the
Milnor-algebra difference formula.  `spectral_table` is derived from the
Hilbert function by that formula and ranks nothing beyond it.

`syzygy_basis` works in integers until it renders the classes.  The kernel
of the Jacobian map J_m is lifted by the certified engine as integer columns,
each reduced against the trivial syzygies and the classes before it in an
integer `EchelonAccumulator` whose residues are exact; one product
J_m V = 0 over all chosen classes V certifies them, and their number must
equal dim ker J_m minus the rank of the trivial map.  Fractions appear only
in the rendered polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .gradedmaps import (
    Block,
    cross_matrix,
    gradient_column_matrix,
    jacobian_blocks,
    jacobian_matrix,
    jacobian_partials,
    s_dim,
)
from .linalg import EchelonAccumulator, annihilates, certified_kernel
from .milnor import Strand, hilbert_series, jacobian_rank, smooth_reference_dim
from .polynomials import Monomial, Polynomial, monomial_basis


def omega_dim(m: int, k: int) -> int:
    """dim of the degree-k piece of the polynomial m-forms on C^3."""
    if m < 0 or m > 3:
        return 0
    return comb(3, m) * s_dim(k - m)


def cross_rank(f: Polynomial | Strand, m: int) -> int:
    """Rank of S_m^3 -> S_{m+N-1}^3, v -> grad(f) x v."""
    return Strand.of(f).map_rank(cross_matrix, m)


def gradient_rank(f: Polynomial | Strand, m: int) -> int:
    """Rank of S_m -> S_{m+N-1}^3, g -> g * grad(f)."""
    return Strand.of(f).map_rank(gradient_column_matrix, m)


def _outgoing_rank(strand: Strand, m: int, k: int) -> int:
    """Rank of wedge-df on the degree-k piece of Omega^m."""
    if m == 0:
        return gradient_rank(strand, k)
    if m == 1:
        return cross_rank(strand, k - 1)
    if m == 2:
        return jacobian_rank(strand, k - 2)
    return 0


def koszul_h_dim(f: Polynomial | Strand, m: int, k: int) -> int:
    """dim H^m(K^*(f))_k: strand kernel minus incoming rank."""
    if m < 0 or m > 3:
        return 0
    dim = omega_dim(m, k)
    if dim == 0:
        return 0
    strand = Strand.of(f)
    incoming = _outgoing_rank(strand, m - 1, k - strand.N) if m > 0 else 0
    return dim - _outgoing_rank(strand, m, k) - incoming


def er_dim(f: Polynomial | Strand, m: int) -> int:
    """dim of degree-m essential relations: H^2 of the strand at degree m+2."""
    if m < 0:
        return 0
    return koszul_h_dim(f, 2, m + 2)


def trivial_syzygy_dim(f: Polynomial | Strand, m: int) -> int:
    """dim of the degree-m trivial (Koszul) syzygies: 3 dim S_{m-N+1} - dim S_{m-2N+2}.

    Closed form for the image of v -> v x grad(f); valid for reduced f, where
    the kernel of that map is exactly the multiples of grad(f).
    """
    N = Strand.of(f).N
    return 3 * s_dim(m - N + 1) - s_dim(m - 2 * N + 2)


class SyzygyClass(NamedTuple):
    """A nontrivial relation a f_x + b f_y + c f_z = 0 in one degree."""

    a: Polynomial
    b: Polynomial
    c: Polynomial
    degree: int

    def is_syzygy_of(self, f: Polynomial) -> bool:
        fx, fy, fz = jacobian_partials(f)
        return (self.a * fx + self.b * fy + self.c * fz).is_zero()

    def __str__(self) -> str:
        return f"({self.a})·fx + ({self.b})·fy + ({self.c})·fz = 0"


def _class_of(row: list[int], lead: int, basis: list[Monomial], m: int) -> SyzygyClass:
    """The class of an integer row scaled to 1 at its leading column."""
    n, pv = len(basis), row[lead]
    a, b, c = (
        Polynomial({mon: Fraction(v, pv) for mon, v in zip(basis, row[slot * n:(slot + 1) * n]) if v})
        for slot in range(3)
    )
    return SyzygyClass(a=a, b=b, c=c, degree=m)


def jacobian_kernel(blocks: list[Block]) -> list[list[int]]:
    """`linalg.certified_kernel(J_m).vectors()` from the diagonal blocks of
    J_m (`gradedmaps.jacobian_blocks`): the RREF kernel of a block diagonal
    matrix is its blocks', each vector put back in place."""
    width, kernel = sum(len(block.columns) for block in blocks), {}  # free column -> its vector
    for block in blocks:
        if block.columns:
            lift = certified_kernel(block.matrix)
            for free, vec in zip(lift.free, lift.vectors()):
                kernel[block.columns[free]] = full = [0] * width
                for col, v in zip(block.columns, vec):
                    full[col] = v
    return [kernel[free] for free in sorted(kernel)]


def syzygy_basis(f: Polynomial | Strand, m: int) -> list[SyzygyClass]:
    """Deterministic basis of a complement of the trivial syzygies in degree m.

    The kernel of the Jacobian map J_m comes from the certified engine as
    integer columns (`linalg.certified_kernel`, the basis read off the RREF over
    Q), one diagonal block at a time (`jacobian_kernel`).  Each is reduced,
    in free-column order, against the span of the trivial syzygies (the
    columns of the cross map out of degree m-N+1) and of the classes already
    chosen; a nonzero residue enlarges the span and yields one class, scaled
    to 1 at its leading column.  The residue is the unique vector of its
    coset vanishing on the span's pivot columns, so the classes do not
    depend on how the span is stored.  Certificates: one exact
    product J_m V = 0 over the classes V, and their count equals er_dim, read
    as dim ker J_m minus the rank of the trivial map; the lift's rank stays
    out of the Strand's memo.
    """
    if m < 0:
        return []
    strand = Strand.of(f)
    f, N = strand.f, strand.N
    blocks = jacobian_blocks(f, m)
    kernel = jacobian_kernel(blocks)
    acc = EchelonAccumulator(3 * s_dim(m))
    for col in cross_matrix(f, m - N + 1).transpose().rows:
        acc.add(col)
    chosen = []
    for vec in kernel:
        if acc.add(vec):
            chosen.append(len(acc.rows) - 1)
    whole = blocks[0].matrix if len(blocks) == 1 else jacobian_matrix(f, m)  # one class: J_m itself
    if not annihilates(whole.rows, [acc.rows[i] for i in chosen]):
        raise AssertionError("kernel vector is not a syzygy")
    expected = len(kernel) - cross_rank(strand, m - N + 1)
    if len(chosen) != expected:
        raise AssertionError(
            f"essential basis size {len(chosen)} != H^2 dimension {expected}"
        )
    basis = monomial_basis(m)
    return [_class_of(acc.rows[i], acc.pivots[i], basis, m) for i in chosen]


class SpectralTable(NamedTuple):
    """E_1 dimensions on the two nonzero lines p+q=2, p+q=3 and dim E_2^{2,1}."""

    entries: tuple[tuple[int, int, int], ...]
    e2_21: int

    def to_json(self) -> list[dict]:
        return [{"p": p, "q": q, "dim": d} for p, q, d in self.entries]


def spectral_table(f: Polynomial | Strand) -> SpectralTable:
    """E_1^{p,q} dims at q = 0..2 plus the degenerate E_2^{2,1} dimension.

    Every entry is read off h = hilbert_series(f), with no further rank.  The
    strand at internal degree k is

        Omega^0_{k-2N} -> Omega^1_{k-N} -> Omega^2_k -> Omega^3_{k+N}

    (each map is wedge df), so H^3_{k+N} = M(f)_{k+N-3}.  Its Euler
    characteristic depends on N alone, and a smooth f_s of degree N has only
    H^3 = M(f_s).  For a reduced f the Jacobian ideal has height 2, so
    H^0 = H^1 = 0 and

        dim H^2_k = dim M(f)_{k+N-3} - dim M(f_s)_{k+N-3}

    (Dimca; Dimca-Sticlaru).  Moreover dim M(f)_j = tau for j >= 3N-5, which
    `hilbert_series` checks on 3N-5..3N-3, and M(f_s)_j = 0 for j > 3N-6, so
    H^2_{2N} = H^2_{3N} = tau.  A non-reduced f fails that check and raises
    NonStabilizationError.
    """
    h = hilbert_series(f)
    N, tau_val = h.N, h.stable_value
    h2 = (h.dims[2 * N - 3] - smooth_reference_dim(N, 2 * N - 3), tau_val, tau_val)
    entries = [(2 - q, q, h2[q]) for q in range(3)]
    entries += [(3 - q, q, h.dims[(q + 1) * N - 3]) for q in range(3)]
    return SpectralTable(entries=tuple(entries), e2_21=h.dims[2 * N - 3] - tau_val)
