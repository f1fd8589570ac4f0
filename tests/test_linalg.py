"""Exact and modular rank/kernel computations."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planecurves import (
    ExactMatrix,
    Polynomial,
    kernel_basis,
    kernel_dim,
    modular_rank_with_check,
    monomial_basis,
    rank,
)
from planecurves import linalg
from planecurves.gradedmaps import jacobian_matrix
from planecurves.linalg import (
    PRIMES,
    EchelonAccumulator,
    _nonzero_entries,
    _rank_integer,
    certified_kernel,
    lift_kernel,
    rref_fraction,
)
from planecurves.milnor import jacobian_rank_profile

P1 = 1060937
P2 = 536969711
P21 = 2097143  # < 2^21: exercises the float64 elimination path


@st.composite
def int_matrices(draw, max_dim=6, max_entry=20):
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [
        [draw(st.integers(min_value=-max_entry, max_value=max_entry)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return ExactMatrix(rows, ncols=ncols)


class TestRank:
    def test_identity(self):
        m = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(m) == 3

    def test_zero_and_empty(self):
        assert rank(ExactMatrix([[0, 0], [0, 0]])) == 0
        assert rank(ExactMatrix([], ncols=5)) == 0
        assert kernel_dim(ExactMatrix([], ncols=5)) == 5

    def test_dependent_rows(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(m) == 2

    def test_rational_rows_cleared(self):
        m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, 1]])
        assert rank(m) == 2

    def test_row_scaling_preserves_rank_and_kernel(self):
        rows = [[2, 4, 6], [1, 5, 9]]
        scaled = [[7 * v for v in rows[0]], [-3 * v for v in rows[1]]]
        a, b = ExactMatrix(rows), ExactMatrix(scaled)
        assert rank(a) == rank(b)
        assert kernel_basis(a) == kernel_basis(b)

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, m):
        assert rank(m) == sympy.Matrix(m.rows).rank()

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_dim(m) == m.ncols


class TestKernel:
    def test_kernel_vectors_annihilate(self):
        m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        (v,) = basis
        for row in m.rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0

    def test_kernel_of_empty_matrix_is_everything(self):
        basis = kernel_basis(ExactMatrix([], ncols=3))
        assert len(basis) == 3

    def test_deterministic_free_column_order(self):
        m = ExactMatrix([[1, 1, 1, 1]])
        basis = kernel_basis(m)
        assert [v.index(Fraction(1)) for v in basis] == [1, 2, 3]

    def test_rref_pivots(self):
        rows = [[Fraction(v) for v in r] for r in ([0, 2, 4], [1, 1, 1])]
        rref, pivots = rref_fraction(rows, 3)
        assert pivots == [0, 1]
        assert rref[0][0] == 1 and rref[1][1] == 1

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_kernel_basis_size_and_membership(self, m):
        basis = kernel_basis(m)
        assert len(basis) == kernel_dim(m)
        for v in basis:
            for row in m.rows:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


class TestModular:
    def test_agrees_with_rational(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-50, 50) for _ in range(5)] for _ in range(4)]
            m = ExactMatrix(rows)
            assert modular_rank_with_check(m, (P1, P2)) == rank(m)

    def test_lazy_reduction_with_large_prime(self):
        # p near 2^30 leaves room for 8 lazy updates between reductions
        rng = random.Random(5)
        left = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(40)]
        right = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(24)]
        rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)] for lr in left]
        m = ExactMatrix(rows)
        assert modular_rank_with_check(m, (1073741789,)) == rank(m) == 24

    def test_float_path_agrees(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(6)]
            m = ExactMatrix(rows)
            assert modular_rank_with_check(m, (P21,)) == rank(m)

    def test_unlucky_prime_recovered_by_second(self):
        # rank drops mod P1; the larger prime sees rank 1 and wins.
        m = ExactMatrix([[P1]])
        assert modular_rank_with_check(m, (P1, P2)) == 1

    def test_unlucky_prime_recovered_by_rational_fallback(self):
        # ranks disagree (1 mod P1, 2 mod P2); the rational recheck confirms 2.
        m = ExactMatrix([[P1, 0], [0, 1]])
        assert modular_rank_with_check(m, (P1, P2)) == 2

    def test_rejects_duplicate_primes(self):
        m = ExactMatrix([[1]])
        with pytest.raises(ValueError):
            modular_rank_with_check(m, (P1, P1))

    def test_rejects_small_primes(self):
        m = ExactMatrix([[1]])
        with pytest.raises(ValueError):
            modular_rank_with_check(m, (97,))


class TestEchelonAccumulator:
    def test_span_growth(self):
        acc = EchelonAccumulator(3)
        assert acc.add([1, 0, 0])
        assert acc.add([1, 1, 0])
        assert not acc.add([3, 2, 0])
        assert acc.dim == 2

    def test_reduce_returns_residue(self):
        acc = EchelonAccumulator(3)
        acc.add([1, 0, 0])
        residue = acc.reduce([5, 0, 7])
        assert residue == [Fraction(0), Fraction(0), Fraction(7)]


class FractionEchelon:
    """The accumulator on Fraction rows, each scaled to 1 at its pivot: the
    oracle for the integer one."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, pc in zip(self.rows, self.pivots):
            if v[pc] != 0:
                c = v[pc]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is not None:
            self.rows.append([x / v[lead] for x in v])
            self.pivots.append(lead)
        return lead is not None


@st.composite
def vector_batches(draw):
    """Vectors with small integer or rational entries, some of them
    combinations of earlier ones."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    vecs = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        if vecs and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3))
            k = draw(st.integers(min_value=-4, max_value=4))
            vecs.append([sum(k * v[i] for v in picks) + (i == 0) * draw(entry) for i in range(ncols)])
        else:
            vecs.append([draw(entry) for _ in range(ncols)])
    return ncols, vecs


class TestIntegerEchelon:
    @given(vector_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_accumulator(self, batch):
        """Same span growth, same pivots and the same exact residues as
        elimination on Fraction rows; stored rows are primitive integers."""
        ncols, vecs = batch
        acc, oracle = EchelonAccumulator(ncols), FractionEchelon()
        for v in vecs:
            assert acc.reduce(v) == oracle.reduce(v)
            assert acc.add(v) == oracle.add(v)
        assert acc.pivots == oracle.pivots
        for row, pc, ref in zip(acc.rows, acc.pivots, oracle.rows):
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert [Fraction(x, row[pc]) for x in row] == ref

    def test_residue_with_denominator(self):
        acc = EchelonAccumulator(3)
        acc.add([2, 3, 0])
        assert acc.rows == [[2, 3, 0]]
        assert acc.reduce([1, 0, 1]) == [Fraction(0), Fraction(-3, 2), Fraction(1)]
        assert acc.reduce([Fraction(1, 3), 0, 0]) == [Fraction(0), Fraction(-1, 2), Fraction(0)]


# -- the certified engine against independent oracles -----------------------

SMALL = st.integers(min_value=-20, max_value=20)
# entries at and past the int64-safe range of the lift and of the check
HUGE = st.one_of(
    SMALL,
    st.integers(min_value=1 << 30, max_value=1 << 66),
    st.integers(min_value=-(1 << 66), max_value=-(1 << 30)),
)


@st.composite
def int64_rows(draw, max_dim=6):
    """Entries below 2^bits for one bits <= 59, times at most 9, so still
    int64; some columns and then some rows are small multiples of earlier
    ones, so both kernels are usually nonzero."""
    bits = draw(st.integers(min_value=1, max_value=59))
    entry = st.integers(min_value=-(1 << bits), max_value=1 << bits)
    small = st.integers(min_value=-3, max_value=3)
    nrows = draw(st.integers(min_value=2, max_value=max_dim))
    ncols = draw(st.integers(min_value=2, max_value=max_dim))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for j in range(1, ncols):
        if draw(st.booleans()):
            src, k = draw(st.integers(min_value=0, max_value=j - 1)), draw(small)
            for row in rows:
                row[j] = k * row[src]
    for i in range(1, nrows):
        if draw(st.booleans()):
            src, k = draw(st.integers(min_value=0, max_value=i - 1)), draw(small)
            rows[i] = [k * v for v in rows[src]]
    return rows


@st.composite
def structured_rows(draw, entries=SMALL, max_dim=9):
    """Tall or wide, rank-deficient (a product through a thinner inner
    dimension), with some rows zeroed."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    inner = draw(st.integers(min_value=1, max_value=max(nrows, ncols)))
    left = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
    zeroed = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1), max_size=nrows // 2))
    rows = []
    for i, lrow in enumerate(left):
        if i in zeroed:
            rows.append([0] * ncols)
        else:
            rows.append([sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)])
    return rows


def rref_kernel(rows, ncols):
    """Kernel basis read off the Fraction RREF: one vector per free column."""
    rref, pivots = rref_fraction([[Fraction(v) for v in row] for row in rows], ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][j]
        basis.append(v)
    return basis


class TestCertifiedEngine:
    @given(structured_rows())
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_integer_elimination(self, rows):
        m = ExactMatrix(rows)
        expected = _rank_integer(rows, m.ncols)
        assert rank(m) == expected
        lift = lift_kernel(m.array, PRIMES[0])
        assert lift is not None and lift.rank == expected

    @given(structured_rows())
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_rref(self, rows):
        assert kernel_basis(ExactMatrix(rows)) == rref_kernel(rows, len(rows[0]))

    @given(st.one_of(structured_rows(entries=HUGE, max_dim=6), int64_rows()))
    # an entry PRIMES[0] (hypothesis draws the constants of the source): the
    # matrix loses rank mod the first prime
    @example([[0, 0], [0, PRIMES[0]]])
    @settings(max_examples=120, deadline=None)
    def test_huge_entries_rank(self, rows):
        """Entries past 2^30 take the guarded (Python int) path of the lift
        and the check: the first prime certifies, without any fallback,
        unless the matrix loses rank mod it, and then its lift refuses."""
        m = ExactMatrix(rows)
        expected = _rank_integer(rows, m.ncols)
        assert rank(m) == expected
        short = m.array if m.ncols <= m.nrows else m.array.T
        lift = lift_kernel(short, PRIMES[0])
        lucky = linalg._rank_mod_p(short, PRIMES[0]) == expected
        assert (lift is not None) == lucky and (lift is None or lift.rank == expected)

    @given(st.one_of(structured_rows(), structured_rows(entries=HUGE, max_dim=6)))
    @settings(max_examples=150, deadline=None)
    def test_integer_elimination_matches_rref(self, rows):
        """The last resort shares `EchelonAccumulator` with `syzygy_basis`,
        so it is checked against the independent Fraction RREF."""
        ncols = len(rows[0])
        assert _rank_integer(rows, ncols) == len(rref_fraction(rows, ncols)[1])

    @given(st.one_of(structured_rows(entries=HUGE, max_dim=6), int64_rows()))
    @settings(max_examples=80, deadline=None)
    def test_huge_entries_kernel(self, rows):
        assert kernel_basis(ExactMatrix(rows)) == rref_kernel(rows, len(rows[0]))

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[PRIMES[0]]], 1),
            ([[1, 0], [0, PRIMES[0]]], 2),
            ([[1, 1], [1, 1 + PRIMES[0]]], 2),  # det = p
            ([[2, 1], [3, (3 + PRIMES[0]) // 2]], 2),  # det = p, no unit pivot
        ],
    )
    def test_unlucky_first_prime(self, rows, expected):
        """Rank drops modulo the engine's first prime; the check rejects it."""
        assert lift_kernel(ExactMatrix(rows).array, PRIMES[0]) is None
        assert rank(ExactMatrix(rows)) == expected
        assert rank(ExactMatrix(rows).transpose()) == expected
        assert kernel_basis(ExactMatrix(rows)) == rref_kernel(rows, len(rows[0]))

    def test_pivot_columns_differ_mod_p(self):
        """Rank is right mod p but the pivot moves from column 0 to column 1,
        so the lifted kernel (1, -p) is not the RREF one (-1/p, 1)."""
        rows = [[PRIMES[0], 1]]
        lift = lift_kernel(ExactMatrix(rows).array, PRIMES[0])
        assert lift.rank == 1 and not lift.is_rref()
        assert kernel_basis(ExactMatrix(rows)) == [[Fraction(-1, PRIMES[0]), Fraction(1)]]

    def test_every_prime_unlucky_reaches_integer_fallback(self, monkeypatch):
        calls = []

        def spy(rows, ncols):
            calls.append(rows)
            return _rank_integer(rows, ncols)

        monkeypatch.setattr(linalg, "_rank_integer", spy)
        m = ExactMatrix([[prod(PRIMES)]])
        assert rank(m) == 1
        assert calls == [[[prod(PRIMES)]]]
        assert kernel_basis(m) == []

    def test_int64_limits(self):
        big = (1 << 62) - 1
        cases = [
            [[big, big - 1], [big - 1, big - 2]],  # det = -1
            [[1 << 40, 1 << 41], [3 << 40, 3 << 41]],  # rank 1
            [[1 << 70, 1], [1 << 71, 2]],  # past int64: object entries
        ]
        for rows in cases:
            m = ExactMatrix(rows)
            assert rank(m) == _rank_integer(rows, 2)
            assert kernel_basis(m) == rref_kernel(rows, 2)
        assert ExactMatrix(cases[0]).array.dtype == np.int64
        assert ExactMatrix(cases[2]).array.dtype == object

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_check(self, data):
        """The limb-split product test agrees with Python ints.  Column 0 of z
        is orthogonal to row 0 of b pair by pair of coordinates, so every
        limb product is large while the sum is 0; column 1 is random."""
        bits = data.draw(st.integers(min_value=1, max_value=62))
        nrows = data.draw(st.integers(min_value=1, max_value=5))
        ncols = data.draw(st.integers(min_value=2, max_value=24))
        top = (1 << bits) - 1
        entry = st.one_of(st.just(top), st.just(-top), st.integers(min_value=-top, max_value=top))
        rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        big = st.integers(min_value=-(1 << 300), max_value=1 << 300)
        z = np.zeros((ncols, 2), dtype=object)
        for i in range(0, ncols - 1, 2):
            t = data.draw(big)
            z[i, 0], z[i + 1, 0] = -rows[0][i + 1] * t, rows[0][i] * t
        z[:, 1] = [data.draw(big) for _ in range(ncols)]
        exact = np.dot(np.array(rows, dtype=object), z) != 0
        assert not exact[0, 0]
        assert np.array_equal(_nonzero_entries(np.array(rows, dtype=np.int64), z), exact)

    @given(st.one_of(structured_rows(), structured_rows(entries=HUGE, max_dim=5)))
    @settings(max_examples=60, deadline=None)
    def test_rref_fallback_matches_lift(self, rows):
        """With no prime to lift with, the kernel read off `rref_fraction` is
        the same basis, and columns() holds it scaled by den."""
        m = ExactMatrix(rows)
        lifted = certified_kernel(m)
        saved = linalg.PRIMES
        linalg.PRIMES = ()
        try:
            fallback = certified_kernel(m)
        finally:
            linalg.PRIMES = saved
        assert fallback.pivots == lifted.pivots and fallback.free == lifted.free
        assert fallback.basis() == lifted.basis() == rref_kernel(rows, m.ncols)
        for lift in (lifted, fallback):
            cols = lift.columns()
            assert cols.shape == (m.ncols, len(lift.free))
            for j, v in enumerate(lift.basis()):
                assert [Fraction(int(c), lift.den[j]) for c in cols[:, j]] == v

    def test_lift_needs_small_prime(self):
        with pytest.raises(ValueError):
            lift_kernel(ExactMatrix([[1]]).array, 67108879)  # the first prime past 2^26


# -- the mod-p PLU kernel against the per-pivot reference ---------------------


def reference_eliminate(a, p):
    """The earlier `_eliminate`, one numpy rank-one update per pivot: the
    oracle for the kernel's pivots, row order and packed L/U."""
    nrows, ncols = a.shape
    order = np.arange(nrows)
    pivots = []
    budget = left = linalg._lazy_budget(p)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c] % p
        a[r:, c] = col
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
            order[[r, i]] = order[[i, r]]
        a[r, c + 1:] %= p
        below = r + nz[1:]
        if below.size:
            mult = a[below, c] * pow(int(a[r, c]), -1, p) % p
            a[below, c] = mult
            for lo in range(0, below.size, linalg._CHUNK):
                rows = below[lo:lo + linalg._CHUNK]
                a[rows, c + 1:] -= np.outer(mult[lo:lo + linalg._CHUNK], a[r, c + 1:])
        pivots.append(c)
        r += 1
        left -= 1
        if left == 0:
            a[r:, c + 1:] %= p
            left = budget
    return pivots, order


# PRIMES[0] absorbs 2048 lazy updates; 2^31 - 1 only 2, so the reduction of
# the rows below runs at every other pivot.
KERNEL_PRIMES = st.sampled_from([PRIMES[0], 2147483647])


@st.composite
def residue_matrices(draw):
    """(a, p): residues mod p, tall (up to 2 _CHUNK + 20 rows, so more than
    _CHUNK rows fall below a pivot) or wide, sparse or dense, with some zero
    columns and some rows that repeat earlier ones (rank-deficient)."""
    p = draw(KERNEL_PRIMES)
    big = 2 * linalg._CHUNK + 20
    nrows = draw(st.integers(min_value=1, max_value=draw(st.sampled_from([8, big]))))
    ncols = draw(st.integers(min_value=1, max_value=draw(st.sampled_from([8, 40]))))
    if draw(st.booleans()):
        nrows, ncols = ncols, nrows
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    a = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
    a[rng.random((nrows, ncols)) >= density] = 0
    a[:, rng.random(ncols) < 0.2] = 0
    repeats = rng.random(nrows) < 0.3
    a[repeats] = a[rng.integers(0, nrows, size=int(repeats.sum()))] * 3 % p
    return a, p


class TestPivotKernel:
    @given(residue_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        """Same pivots and order as the reference, and the same packed L/U
        rows [:rank] mod p."""
        a, p = case
        got, want = a.copy(), a.copy()
        pivots, order = linalg._eliminate(got, p)
        ref_pivots, ref_order = reference_eliminate(want, p)
        assert pivots == ref_pivots
        assert np.array_equal(order, ref_order)
        r = len(pivots)
        assert np.array_equal(got[:r] % p, want[:r] % p)

    def test_more_than_a_chunk_below_one_pivot(self):
        """A full first column puts every other row below the first pivot."""
        p = 2147483647
        rng = np.random.default_rng(3)
        a = rng.integers(0, p, size=(3 * linalg._CHUNK, 5), dtype=np.int64)
        a[0, 0] = 0
        got, want = a.copy(), a.copy()
        assert linalg._eliminate(got, p)[0] == reference_eliminate(want, p)[0] == [0, 1, 2, 3, 4]
        assert np.array_equal(got[:5] % p, want[:5] % p)

    @given(residue_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_mod_p_is_transpose_invariant(self, case):
        a, p = case
        assert linalg._rank_mod_p(a, p) == linalg._rank_mod_p(a.T, p)

    def test_pivot_columns_keep_orientation(self):
        """`_rank_mod_p` takes the short side; `pivot_columns` does not."""
        a = np.array([[0, 0, 5, 1, 0]])
        assert linalg.pivot_columns(a, PRIMES[0]) == [2]
        assert linalg._rank_mod_p(a, PRIMES[0]) == 1


def reference_triangular_inverse(t, p, lower):
    """The triangular block inverse by substitution on the identity, one row
    update per row (the loop `_diagonal_block_inverses` replaces)."""
    n = t.shape[0]
    x = np.eye(n, dtype=np.int64)
    for j in range(n) if lower else range(n - 1, -1, -1):
        x[j] = x[j] % p if lower else x[j] % p * pow(int(t[j, j]), -1, p) % p
        rest = slice(j + 1, n) if lower else slice(0, j)
        x[rest] -= t[rest, j, None] * x[j]
    return x % p


class TestTriangularInverse:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_substitution_loop(self, data):
        """Every diagonal block of L and of U, for packed LU of any size: one
        block, a partial last block, several blocks."""
        p = data.draw(st.sampled_from([PRIMES[0], PRIMES[2], P1, 65521]))
        r = data.draw(st.one_of(st.integers(1, 9), st.integers(60, 200)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lu = rng.integers(0, p, size=(r, r), dtype=np.int64)
        np.fill_diagonal(lu, rng.integers(1, p, size=r))
        spans = [(j0, min(j0 + linalg._STEP, r)) for j0 in range(0, r, linalg._STEP)]
        linv, uinv = linalg._diagonal_block_inverses(lu, spans, p)
        assert len(linv) == len(uinv) == len(spans)
        for (j0, j1), lower, upper in zip(spans, linv, uinv):
            block = lu[j0:j1, j0:j1]
            assert np.array_equal(lower, reference_triangular_inverse(block, p, True))
            assert np.array_equal(upper, reference_triangular_inverse(block, p, False))

    def test_extreme_residues(self):
        """Entries p - 1 everywhere: every partial sum at its bound."""
        p = PRIMES[0]
        lu = np.full((linalg._STEP, linalg._STEP), p - 1, dtype=np.int64)
        (lower,), (upper,) = linalg._diagonal_block_inverses(lu, [(0, linalg._STEP)], p)
        assert np.array_equal(lower, reference_triangular_inverse(lu, p, True))
        assert np.array_equal(upper, reference_triangular_inverse(lu, p, False))


class TestFactorization:
    @given(residue_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_factors_the_transpose(self, case):
        """B[Q, P] = L U read as an elimination of B^T: B^T[P, Q] = L' U'."""
        a, p = case
        t = linalg.factor(a.copy(), p).transpose(p)
        lower = (np.tril(t.lu, -1) + np.eye(len(t.rows), dtype=np.int64)).astype(object)
        upper = np.triu(t.lu).astype(object)
        assert np.array_equal(lower.dot(upper) % p, a.T[np.ix_(t.rows, t.pivots)] % p)

    @given(st.one_of(structured_rows(), int64_rows()))
    @settings(max_examples=80, deadline=None)
    def test_lift_from_an_elimination_of_the_transpose(self, rows):
        """Any nonsingular pivot block serves the lift: the elimination of b^T
        gives the same certified rank and a kernel that b annihilates."""
        b = ExactMatrix(rows).array
        p = PRIMES[0]
        lift = lift_kernel(b, p, linalg.factor(linalg._mod(b.T, p), p).transpose(p))
        assert lift is not None and lift.rank == _rank_integer(rows, b.shape[1])
        assert not _nonzero_entries(b, lift.columns()).any()


# -- the plain-Python rank mod p against the numpy one -------------------------


def seeded_rows(seed, kind, p):
    """A small seeded matrix of one kind, as lists of Python ints."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    if kind == "tall":
        nrows, ncols = max(nrows, ncols) + 5, min(nrows, ncols)
    elif kind == "wide":
        nrows, ncols = min(nrows, ncols), max(nrows, ncols) + 5
    if kind == "rank-deficient":
        r = rng.randint(0, min(nrows, ncols) - 1)
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(r)]
        return [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(ncols)] for i in range(nrows)]
    rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero rows":
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            rows[i] = [0] * ncols
    elif kind == "repeated rows":
        rows += [[v * rng.randint(1, 5) for v in rows[rng.randrange(nrows)]] for _ in range(nrows)]
        rng.shuffle(rows)
    elif kind == "out of range":
        rows = [[v + p * rng.randint(-3, 3) - rng.randint(0, 1) * p for v in row] for row in rows]
    return rows


RANK_KINDS = ["tall", "wide", "zero rows", "repeated rows", "rank-deficient", "out of range"]


def echelon_rank(rows, p):
    """Rank over GF(p) of integer rows in plain Python."""
    return len(linalg.echelon(rows, p).pivots)


class TestPlainRankModP:
    @pytest.mark.parametrize("kind", RANK_KINDS)
    @pytest.mark.parametrize("p", [PRIMES[0], P1, 3])
    def test_matches_numpy(self, kind, p):
        for seed in range(40):
            rows = seeded_rows(seed, kind, p)
            assert echelon_rank(rows, p) == linalg._rank_mod_p(np.array(rows, dtype=object), p), (
                kind, seed)

    def test_largest_residues(self):
        """Entries p - 1 and p - 2 everywhere: the largest additions into a
        packed entry, over 40 pivot rows."""
        p = PRIMES[0]
        rng = random.Random(5)
        rows = [[p - rng.randint(1, 2) for _ in range(40)] for _ in range(60)]
        assert echelon_rank(rows, p) == linalg._rank_mod_p(np.array(rows), p) == 40

    def test_empty_and_zero(self):
        assert echelon_rank([], PRIMES[0]) == 0
        assert echelon_rank([[]], PRIMES[0]) == 0
        assert echelon_rank([[0, 0], [0, 0]], PRIMES[0]) == 0
        assert echelon_rank([[P1, -P1]], P1) == 0

    def test_refuses_what_the_packing_cannot_hold(self):
        with pytest.raises(ValueError):
            echelon_rank([[1]], 67108879)  # the first prime past 2^26
        square = [[0] * 2048] * 2048
        with pytest.raises(ValueError):
            echelon_rank(square, PRIMES[0])


# -- the plain certificate against the numpy engine -----------------------------


@contextmanager
def numpy_only():
    """Every entry point on the numpy engine (cutoff 0)."""
    saved = linalg.PLAIN_CELLS
    linalg.PLAIN_CELLS = 0
    try:
        yield
    finally:
        linalg.PLAIN_CELLS = saved


@st.composite
def sparse_rows(draw, max_dim=12):
    """Tall or wide, mostly zero, with small entries; some rows are sums of
    two earlier ones, so the rank is often deficient."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(min_value=-4, max_value=4))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [u + v for u, v in zip(rows[a], rows[b])]
    return rows


@contextmanager
def plain_only():
    """The numpy lift refused: an ExactMatrix within the cutoff never reaches it."""
    real = linalg.lift_kernel

    def refused(*args):
        raise AssertionError("a plain matrix reached the numpy lift")

    linalg.lift_kernel = refused
    try:
        yield
    finally:
        linalg.lift_kernel = real


def primes_used(rows):
    """(the lift of `lifted_rank` on rows, the primes it eliminated with)."""
    used = []
    real = linalg.echelon

    def logged(rows, p, width=None):
        used.append(p)
        return real(rows, p, width)

    linalg.echelon = logged
    try:
        return linalg.lifted_rank(ExactMatrix(rows))[1], used
    finally:
        linalg.echelon = real


SINGULAR_MOD_FIRST_PRIME = [
    [[PRIMES[0], 0], [0, 1]],
    [[PRIMES[0], 1]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9 + PRIMES[0]]],
    [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7 + 2 * PRIMES[0]]],
]


class TestPlainCertificate:
    @given(st.one_of(sparse_rows(), structured_rows(), int64_rows()))
    # a small integer kernel that a step limit below 2 H^2 left unlifted at every prime
    @example([[0] * 6] * 4 + [[0, 0, 0, 0, 1, 3], [0, 0, 0, 1, 0, 0]])
    # pivot blocks singular mod PRIMES[0]
    @example(SINGULAR_MOD_FIRST_PRIME[0])
    @example(SINGULAR_MOD_FIRST_PRIME[1])
    @example(SINGULAR_MOD_FIRST_PRIME[2])
    @example(SINGULAR_MOD_FIRST_PRIME[3])
    # a kernel with 45-bit entries, lifted over several digits
    @example([[32666307073519, 22614755724410, 19605239153473], [65332614147038, 45229511448820, 39210478306946]])
    @settings(max_examples=200, deadline=None)
    def test_matches_the_numpy_engine(self, rows):
        """At every prime the plain lift is the numpy lift, None included;
        the entry points on an ExactMatrix never reach the numpy lift and
        answer as on the numpy path."""
        m = ExactMatrix(rows)
        for p in PRIMES:
            assert linalg._plain_lift(rows, m.ncols, p) == lift_kernel(np.array(rows, dtype=object), p)
        rank_np, lift_np = linalg.lifted_rank(np.array(rows, dtype=object))
        with numpy_only():
            kernel_np, rank_q = certified_kernel(m), rank(m)
        with plain_only():
            assert certified_kernel(m) == kernel_np and rank(m) == rank_q
            assert linalg.lifted_rank(m) == (rank_np, lift_np)

    def test_small_entries_take_the_plain_path(self):
        """Sparse small matrices reconstruct at the first prime: the plain
        lift answers on every one of a seeded batch."""
        rng = random.Random(11)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(ncols)] for _ in range(nrows)]
            lift = linalg._plain_lift(rows, ncols, PRIMES[0])
            assert lift is not None and lift == linalg.lifted_rank(np.array(rows))[1]

    @pytest.mark.parametrize("bits", [8, 20, 32, 45, 84])
    def test_one_prime_at_every_size(self, bits):
        """The kernel of [a b c] has entries -b/a and -c/a with |a|, |b|,
        |c| near 2^bits: the plain lift at the first prime lifts as many
        digits as they need and answers, with no other elimination."""
        rng = random.Random(bits)
        while True:
            a, b, c = (rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(3))
            if gcd(a, b) == gcd(a, c) == 1:
                break
        rows = [[a, b, c], [2 * a, 2 * b, 2 * c]]
        lift, used = primes_used(rows)
        want = linalg.lifted_rank(np.array(rows, dtype=object))[1]
        assert used == [PRIMES[0]] and lift == want
        assert lift.basis() == [[Fraction(-b, a), 1, 0], [Fraction(-c, a), 0, 1]]
        assert rank(ExactMatrix(rows)) == 1 and certified_kernel(ExactMatrix(rows)) == want

    def test_columns_reconstruct_at_their_own_digit(self, monkeypatch):
        """[a b] with |a|, |b| near 2^80 beside [1 1 2]: of the kernel, the
        column of b/a needs 7 digits and the two 1-bit columns one.  The
        last column, the gate, reconstructs at the first digit with the
        other small one; the large one only digits later, and both engines
        give the RREF kernel at the first prime."""
        rng = random.Random(80)
        while True:
            a, b = (rng.randrange(1 << 79, 1 << 80) for _ in range(2))
            if gcd(a, b) == 1:
                break
        rows = [[a, b, 0, 0, 0], [0, 0, 1, 1, 2]]
        want = linalg.rref_kernel(rows, 5)
        lift, used = primes_used(rows)
        assert used == [PRIMES[0]] and lift == want
        seen = []
        real = linalg._reconstruct

        def spy(u, m, den=1):
            got = real(u, m, den)
            seen.append((m, got))
            return got

        monkeypatch.setattr(linalg, "_reconstruct", spy)
        p, array = PRIMES[0], np.array(rows, dtype=object)
        for engine in (lambda: linalg._plain_lift(rows, 5, p), lambda: lift_kernel(array, p)):
            seen.clear()
            assert engine() == want
            first = {}
            for m, got in seen:
                if got is not None:
                    first.setdefault((tuple(got[0]), got[1]), m)
            gate, small, large = ((0, -2), 1), ((0, -1), 1), ((-b, 0), a)
            assert first[gate] == first[small] == p and first[large] == p ** 7

    @pytest.mark.parametrize("rows", SINGULAR_MOD_FIRST_PRIME, ids=["diagonal", "row", "near-singular", "wide"])
    def test_singular_pivot_block_mod_the_first_prime_hands_over(self, rows):
        """The pivot columns mod PRIMES[0] are not those over Q (the rank
        drops, or a later column takes a pivot): the plain lift there is the
        numpy one, and the entry points hand over to the next prime and
        never return a lower rank."""
        assert linalg.echelon(rows, PRIMES[0]).pivots != linalg.echelon(rows, PRIMES[1]).pivots
        lift = linalg._plain_lift(rows, len(rows[0]), PRIMES[0])
        assert lift == lift_kernel(np.array(rows, dtype=object), PRIMES[0])
        assert lift is None or not lift.is_rref()
        m = ExactMatrix(rows)
        assert rank(m) == _rank_integer(rows, m.ncols)
        assert certified_kernel(m).basis() == rref_kernel(rows, m.ncols)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_profile_matches_numpy(self, data):
        """`jacobian_rank_profile` of a random product of forms: the plain
        elimination of J_top's columns gives numpy's ranks, and the plain
        top lift from it the rank and kernel of a fresh plain lift."""
        degrees = data.draw(st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=2))
        f = Polynomial.constant(1)
        for d in degrees:
            f = f * Polynomial({mono: Fraction(data.draw(st.integers(-3, 3))) for mono in monomial_basis(d)})
        if f.is_zero() or f.degree() < 3:
            return
        top, p = 2 * f.degree() - 2, PRIMES[0]
        matrix = jacobian_matrix(f, top)
        ranks, e = jacobian_rank_profile(matrix, top, p)
        assert ranks == jacobian_rank_profile(matrix.array, top, p)[0]
        assert ranks == [linalg._rank_mod_p(jacobian_matrix(f, m).array, p) for m in range(top + 1)]
        assert linalg.lifted_rank(matrix.transpose(), e) == linalg.lifted_rank(matrix.transpose())

    def test_an_exact_matrix_past_the_cutoff_goes_to_numpy(self, monkeypatch):
        """`lifted_rank`, `rank` and `column_profile` apply the size rule to
        an ExactMatrix themselves: past `PLAIN_CELLS` the plain engine never
        runs, and the lifts and ranks are those of the plain engine."""
        rng = random.Random(29)
        cases = [
            [[rng.choice((0, 0, 1, -1, 3)) for _ in range(ncols)] for _ in range(nrows)]
            for nrows, ncols in ((4, 7), (7, 4), (6, 6), (1, 5))
        ]
        want = [linalg.lifted_rank(ExactMatrix(rows)) for rows in cases]

        def refused(*args):
            raise AssertionError("the plain engine ran past the cutoff")

        monkeypatch.setattr(linalg, "PLAIN_CELLS", 0)
        monkeypatch.setattr(linalg, "_plain_lift", refused)
        monkeypatch.setattr(linalg, "echelon", refused)
        assert [linalg.lifted_rank(ExactMatrix(rows)) for rows in cases] == want
        assert [rank(ExactMatrix(rows)) for rows in cases] == [r for r, _ in want]
        for rows in cases:
            positions, plu = linalg.column_profile(ExactMatrix(rows), list(range(len(rows[0]))), PRIMES[0])
            assert isinstance(plu, linalg.PLU)
            assert positions == linalg.pivot_columns(np.array(rows), PRIMES[0])

    def test_exact_check_sees_every_vector(self):
        """`annihilates` packs the vectors into one int per column: a
        product that is nonzero in one vector only, by 1, is still seen."""
        rows = [[1, -1, 0], [0, 2, -2]]
        good = [[5, 5, 5], [-(1 << 70), -(1 << 70), -(1 << 70)]]
        assert linalg.annihilates(rows, good)
        for t in range(2):
            bad = [list(v) for v in good]
            bad[t][2] += 1
            assert not linalg.annihilates(rows, bad)
        assert linalg.annihilates(rows, []) and linalg.annihilates([], good)


def reconstruction_oracle(u, m):
    """`_reconstruct` by brute force over Fractions: each u_i as the fraction
    a/b with |a|, b <= sqrt(m/2) of least b, or None when that one is not
    in lowest terms; then (x D, D) with D their least common denominator,
    or None when D or an x_i D passes sqrt(m/2)."""
    bound = isqrt(m // 2)
    fractions = []
    for v in u:
        for b in range(1, bound + 1):
            a = v * b % m
            a = a - m if a > m // 2 else a
            if abs(a) <= bound:
                break
        else:
            return None
        if gcd(a, b) != 1:
            return None
        fractions.append(Fraction(a, b))
    d = lcm(*(x.denominator for x in fractions))
    w = [int(x * d) for x in fractions]
    return (w, d) if d <= bound and all(abs(v) <= bound for v in w) else None


@st.composite
def residues(draw):
    """(u, m, hint): m = P^t below 2^23, u residues mod m, some drawn from
    small fractions, and a hint d <= sqrt(m/2) prime to P."""
    prime = draw(st.sampled_from((3, 7, 101, 1009)))
    m = prime ** draw(st.integers(1, max(t for t in range(1, 23) if prime ** t < 1 << 23)))
    fraction = st.tuples(st.integers(-40, 40), st.integers(1, 40).filter(lambda b: b % prime))
    u = draw(st.lists(st.one_of(
        st.integers(0, m - 1),
        fraction.map(lambda ab: ab[0] * pow(ab[1], -1, m) % m),
    ), max_size=5))
    hint = draw(st.integers(1, max(1, min(60, isqrt(m // 2)))).filter(lambda d: d % prime))
    return u, m, hint


class TestReconstruction:
    @given(residues())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_oracle(self, case):
        """The early exit at the first entry that does not fit changes no
        result: with any hint, `_reconstruct` is the oracle, None included."""
        u, m, hint = case
        assert linalg._reconstruct(u, m, hint) == reconstruction_oracle(u, m)
