"""The numpy engine of `linalg`: elimination over GF(p) on int64 arrays
(`_eliminate`, `factor`, `PLU`), the Dixon lift of an ndarray (`lift_kernel`)
with its blocked triangular solves and exact limb products, and the rank mod
p of modular mode (`_rank_mod_p`).

`linalg` imports this module inside the entry points that send a matrix to
numpy, the first of which also loads numpy, so a process whose matrices all
go to the plain engine never compiles it.  No other module imports it: they
ask `linalg` for ranks, profiles and kernels.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .linalg import _INT64_LIMIT, KernelLift, _dixon, _norm_bits, np, pivot_columns


_CHUNK = 128  # rows per step of the elimination and the check: bounds temporaries


# -- elimination over GF(p) -------------------------------------------------


def _bits(a: np.ndarray) -> int:
    """Bit length of the largest absolute entry."""
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(int(v)) for v in a.flat).bit_length()
    return max(int(a.max()), -int(a.min())).bit_length()


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """Residues in [0, p) as a fresh int64 array."""
    return np.remainder(a, p, order="C").astype(np.int64, copy=False)


def _lazy_budget(p: int) -> int:
    """Rank-one updates of residues mod p that an int64 entry absorbs exactly."""
    return (_INT64_LIMIT - p) // ((p - 1) * (p - 1))


def _dot(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """Exact a @ b of int64 arrays whose products and partial sums all lie
    below 2^bits <= 2^62 in absolute value.

    Through float64 BLAS when bits <= 53: every partial sum is then an
    exactly representable integer, in any summation order.  Rows of `a` are
    converted in chunks, which bounds the temporaries.
    """
    if bits > 53:
        return a @ b
    bf = b.astype(np.float64)
    if a.ndim > 2:  # a stack of blocks no larger than b: no chunking needed
        return (a.astype(np.float64) @ bf).astype(np.int64)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[0], _CHUNK):
        out[lo:lo + _CHUNK] = a[lo:lo + _CHUNK].astype(np.float64, copy=False) @ bf
    return out


def _eliminate(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """PLU factorization of `a` over GF(p), in place; p < 2^31.

    `a` is int64 with entries in [0, p).  Returns the pivot columns and the
    row order: afterwards row i holds input row order[i]; for i < rank it
    holds U from its pivot on and the multipliers of L in the earlier pivot
    columns.  Updates are lazy: an entry is reduced when it enters a pivot
    row or column, or after the most rank-one updates int64 absorbs.

    Cost model: on the matrices of a sweep (a few hundred rows, a few
    percent nonzero, about 8 rows below a pivot) the time is numpy call
    overhead, not arithmetic.  So per column there is one in-place reduction
    and one nonzero scan; per pivot a row swap, one gather and one scatter of
    the multipliers through the column view, and one update of the rows
    below per `_CHUNK` of them.
    """
    nrows, ncols = a.shape
    order = list(range(nrows))
    pivots: list[int] = []
    budget = left = _lazy_budget(p)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        np.remainder(col, p, out=col)
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            i = r + int(nz[0])
            row = a[i].copy()
            a[i] = a[r]
            a[r] = row
            order[r], order[i] = order[i], order[r]
        nz = nz[1:]
        prow = a[r, c + 1:]
        np.remainder(prow, p, out=prow)
        if nz.size:
            mult = col[nz]
            mult *= pow(int(col[0]), -1, p)
            mult %= p
            col[nz] = mult
            below = a[r:, c + 1:]
            # in row chunks, which bounds the temporaries
            for lo in range(0, nz.size, _CHUNK):
                below[nz[lo:lo + _CHUNK]] -= mult[lo:lo + _CHUNK, None] * prow
        pivots.append(c)
        r += 1
        left -= 1
        if left == 0:
            a[r:, c + 1:] %= p
            left = budget
    return pivots, np.array(order, dtype=int)


_STEP, _SHIFT = 64, 13  # block size of the triangular solves; bits of a limb


def _times(a: np.ndarray, z: np.ndarray, p: int) -> np.ndarray:
    """a @ z mod p for residues in [0, p), p < 2^26, and a at most `_STEP`
    columns wide; a and z may be matching stacks of blocks.

    z is split into two 13-bit limbs, so every product and partial sum of
    `_dot` stays below 2^(26 + 13 + 7) = 2^46 and float64 is exact.
    """
    bits = p.bit_length() + _SHIFT + _STEP.bit_length()
    hi = _dot(a, z >> _SHIFT, bits) % p
    return ((hi << _SHIFT) + _dot(a, z & ((1 << _SHIFT) - 1), bits)) % p


def _unit_lower_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a stack of unit-lower-triangular s x s blocks whose
    entries lie in [0, p), s a power of 2 at most `_STEP`, p < 2^26.

    By 2 x 2 block recursion, all blocks and all pairs of one level at once:
    once x holds the inverses of the diagonal b x b blocks of t,

        [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]

    fills its diagonal 2b x 2b blocks with two `_times` per level.
    """
    count, s, _ = t.shape
    x = np.zeros_like(t)
    x[:, np.arange(s), np.arange(s)] = 1
    b = 1
    while b < s:
        pairs = np.arange(s // (2 * b))
        shape = (count, len(pairs), 2, b, len(pairs), 2, b)
        tv, xv = t.reshape(shape), x.reshape(shape)  # views: xv writes into x
        c = tv[:, pairs, 1, :, pairs, 0, :]
        a_inv, d_inv = xv[:, pairs, 0, :, pairs, 0, :], xv[:, pairs, 1, :, pairs, 1, :]
        xv[:, pairs, 1, :, pairs, 0, :] = -_times(d_inv, _times(c, a_inv, p), p) % p
        b *= 2
    return x


def _diagonal_block_inverses(
    lu: np.ndarray, spans: list[tuple[int, int]], p: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverses mod p of the diagonal blocks lu[j0:j1, j0:j1], (j0, j1) in
    `spans`, of the unit-lower L and of the upper U packed in `lu`: blocks
    of at most `_STEP` rows, the first the largest; p < 2^26.

    A U block is made unit by scaling its rows, U = D M, and reversed into
    a lower one, so all blocks of both factors go through one stack of
    `_unit_lower_inverse`; then U^-1 = M^-1 D^-1.  Smaller blocks are padded
    with the identity.
    """
    size = 1 << (spans[0][1] - 1).bit_length()
    dinv = np.array([pow(int(v), -1, p) for v in np.diagonal(lu)], dtype=np.int64)
    stack = np.zeros((2 * len(spans), size, size), dtype=np.int64)
    stack[:, np.arange(size), np.arange(size)] = 1
    for i, (j0, j1) in enumerate(spans):
        n, block = j1 - j0, lu[j0:j1, j0:j1]
        stack[i, :n, :n] += np.tril(block, -1)
        stack[len(spans) + i, :n, :n] += np.tril((block * dinv[j0:j1, None] % p)[::-1, ::-1], -1)
    x = _unit_lower_inverse(stack, p)
    linv = [x[i, :j1 - j0, :j1 - j0] for i, (j0, j1) in enumerate(spans)]
    uinv = [
        x[len(spans) + i, :j1 - j0, :j1 - j0][::-1, ::-1] * dinv[j0:j1] % p
        for i, (j0, j1) in enumerate(spans)
    ]
    return linv, uinv


def _lu_solver(lu: np.ndarray, p: int):
    """Solver of L U x = y (mod p), `lu` packing unit-lower L and upper U.

    Blocked by `_STEP` columns: the triangular diagonal blocks are inverted
    once (`_diagonal_block_inverses`), so each solve is a sequence of block
    products (`_times`).  Needs p < 2^26.
    """
    r = lu.shape[0]
    blocks = [(j0, min(j0 + _STEP, r)) for j0 in range(0, r, _STEP)]
    linv, uinv = _diagonal_block_inverses(lu, blocks, p)

    def solve(y: np.ndarray) -> np.ndarray:
        z = y % p
        for (j0, j1), inv in zip(blocks, linv):
            z[j0:j1] = _times(inv, z[j0:j1], p)
            z[j1:] = (z[j1:] - _times(lu[j1:, j0:j1], z[j0:j1], p)) % p
        for (j0, j1), inv in zip(reversed(blocks), reversed(uinv)):
            z[j0:j1] = _times(inv, z[j0:j1], p)
            z[:j0] = (z[:j0] - _times(lu[:j0, j0:j1], z[j0:j1], p)) % p
        return z

    return solve



def _limb_products(b: np.ndarray, z: np.ndarray):
    """(s, products): b @ z_t for the signed s-bit limbs z_t of z, low limb
    first, with s chosen up front from the bits of int64 `b` so that every
    product is exact in `_dot`; products is None when no s >= 8 exists or
    `b` holds Python ints."""
    head = 0 if b.dtype == object else _bits(b) + b.shape[1].bit_length()
    s = 53 - head if head <= 45 else 61 - head
    if b.dtype == object or s < 8:
        return s, None

    def products():
        neg = z < 0
        mag = np.where(neg, -z, z)
        sign = np.where(neg, -1, 1).astype(np.int64)
        while True:
            yield _dot(b, (mag & ((1 << s) - 1)).astype(np.int64) * sign, head + s)
            mag = mag >> s
            if not mag.any():
                return

    return s, products()


def _product(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exact b @ z as Python ints."""
    s, products = _limb_products(b, z)
    if products is None:
        return np.dot(b.astype(object), z.astype(object))
    return sum(c.astype(object) << (s * t) for t, c in enumerate(products))


def _divmod_product(a: np.ndarray, z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) with a @ z = p Q + R and 0 <= R < p, for int64 a with
    bits(a) + bits(ncols) <= 53 and z in [0, 2^26).

    The limb products are folded in from the top limb, V <- V 2^s + P_t, with
    V carried as (Q, R): Q stays below 2^55, and z has a second limb only
    when s < 26, so R 2^s + P_t stays below 2^62 and nothing leaves int64.
    """
    s, products = _limb_products(a, z)
    q = rem = 0
    for prod in reversed(list(products)):
        w = (rem << s) + prod
        q = (q << s) + w // p
        rem = w % p
    return q, rem


def _nonzero_entries(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Boolean mask of the nonzero entries of the exact product b @ z.

    The limb products are combined by carrying: b @ z = 0 exactly iff every
    carried partial sum is divisible by 2^s and the last carry is 0.
    """
    s, products = _limb_products(b, z)
    if products is None:
        return np.dot(b.astype(object), z.astype(object)) != 0
    mask = (1 << s) - 1
    carry = np.zeros((b.shape[0], z.shape[1]), dtype=np.int64)
    bad = np.zeros(carry.shape, dtype=bool)
    for c in products:
        c += carry
        bad |= (c & mask) != 0
        carry = c >> s
    return bad | (carry != 0)


def _hadamard_bits(a: np.ndarray) -> int:
    """Upper bound on log2 of the product of the Euclidean row norms of a."""
    if a.dtype == object:
        return _norm_bits(a)
    f = a.astype(np.float64)
    return int(np.ceil(np.log2(np.einsum("ij,ij->i", f, f) + 1) / 2 + 1).sum())


class PLU(NamedTuple):
    """An elimination of B mod p: its pivot columns P, its pivot rows Q in
    pivot order, and `lu`, unit-lower L and upper U packed, B[Q, P] = L U."""

    pivots: list[int]
    rows: list[int]
    lu: np.ndarray

    def transpose(self, p: int) -> "PLU":
        """The same elimination read as one of B^T, p < 2^31:
        B^T[P', Q'] = U^T L^T = (U^T D^-1)(D L^T), D the diagonal of U."""
        lu = self.lu.T.copy()
        d = np.diagonal(lu).copy()
        dinv = np.array([pow(int(v), -1, p) for v in d], dtype=np.int64)
        lower = np.tri(len(d), k=-1, dtype=bool)
        np.multiply(lu, dinv, out=lu, where=lower)
        np.multiply(lu, d[:, None], out=lu, where=~lower)
        lu %= p
        np.fill_diagonal(lu, d)
        return PLU(self.rows, self.pivots, lu)


def factor(a: np.ndarray, p: int) -> PLU:
    """The PLU over GF(p) of residues `a` (int64 in [0, p)), eliminated in place."""
    pivots, order = _eliminate(a, p)
    r = len(pivots)
    return PLU(pivots, order[:r].tolist(), a[:r, pivots])


def lift_kernel(b: np.ndarray, p: int, plu: Optional[PLU] = None) -> Optional[KernelLift]:
    """Certified rank and right kernel of integer matrix b via prime p < 2^26.

    One PLU mod p (`plu` when an elimination elsewhere already gave it) gives
    the rank r, the pivot columns P and pivot rows Q; `_dixon` lifts the
    kernel, each digit solved by blocked triangular products (`_lu_solver`)
    and accumulated in an object array.
    """
    if p >= 1 << 26:
        raise ValueError("the lift needs a prime below 2^26")
    pivots, rows_q, lu = factor(_mod(b, p), p) if plu is None else plu
    pivot_set = set(pivots)
    free = [c for c in range(b.shape[1]) if c not in pivot_set]
    acc = np.zeros((len(pivots), len(free)), dtype=object)

    def digits():
        m, res = b[np.ix_(rows_q, pivots)], -b[np.ix_(rows_q, free)]
        # the residual stays below 2^(bits(b) + bits(r) + 1) in absolute value
        fast = b.dtype != object and _bits(b) + len(pivots).bit_length() <= 53
        res, solve, modulus = res if fast else res.astype(object), _lu_solver(lu, p), 1
        while True:
            digit = solve(_mod(res, p))
            np.add(acc, digit.astype(object) * modulus, out=acc)
            modulus *= p
            yield modulus
            if fast:
                q, rem = _divmod_product(m, digit, p)
                res = (res - rem) // p - q
            else:
                res = (res - _product(m, digit)) // p

    def check(lift: KernelLift, cols: list[int]) -> list[tuple[bool, bool]]:
        bad = _nonzero_entries(b, lift.columns(cols))
        return list(zip(bad[rows_q].any(axis=0).tolist(), bad.any(axis=0).tolist()))

    return _dixon(pivots, free, p, lambda: _hadamard_bits(b[rows_q]), digits(),
                  lambda j: acc[:, j].tolist(), check)


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) for a prime accepted by `check_primes`, eliminated
    along the short side (a, or a^T when a is wide)."""
    return len(pivot_columns(a if a.shape[1] <= a.shape[0] else a.T, p))
