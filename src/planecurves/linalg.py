"""Exact rank and kernel computations for graded linear maps.

Ranks and kernels over Q come from two certified engines, one in plain
Python for small matrices and one on numpy.  Each entry point given an
`ExactMatrix` picks one by its entries (`is_plain`, `PLAIN_CELLS`); an
ndarray pins numpy, a list of functionals (`pivot_columns`) stays plain, and
modular mode (primes up to 2^31) stays on numpy.  Both accept a rank r only
with two certificates: a pivot block nonsingular mod a prime gives
r <= rank_Q, and ncols - r kernel vectors v with A·v = 0 exactly give
rank_Q <= r.  No module but this one and its numpy half, `linalg_numpy`,
eliminates: `milnor` reads ranks mod p off `column_profile` and `tjurina`
its local duals off `rref_kernel`.

Both engines run one Dixon loop, `_dixon`, on one elimination modulo a
prime p < 2^26: it lifts the kernel normalized on the free columns p-adically,
reconstructs them from the last pending one down, and accepts the rank only
after every lifted vector passes the exact check.  A prime that fails the
check is unlucky and the next of `PRIMES` is tried; the last resort is
`_rank_integer`, fraction-free elimination over Q on plain ints
(`EchelonAccumulator`, which `koszul.syzygy_basis` uses too).  The engines
differ in their steps only: the plain one (`_plain_lift`) eliminates
with `echelon`, rows packed into ints, and solves by replaying its row
operations; the numpy one (`linalg_numpy.lift_kernel`) eliminates with
`_eliminate`, as every elimination mod p on numpy does, and solves by
triangular products.

Modular mode (`modular_rank_with_check`) is the uncertified opt-in path: it
trusts a rank on which all given primes agree.

Pivoting is deterministic: the eliminations mod p and `rref_fraction` take
the first nonzero entry of each column, and `EchelonAccumulator` each row's
first nonzero column, the rows taken in input order.

numpy is loaded lazily, here, on its first use; the other modules take `np`
from this module, and a process whose matrices all go to the plain engine,
last resort included, never loads it.  The numpy engine (`_eliminate`,
`factor`, `lift_kernel`, `_rank_mod_p` and their helpers) lives in
`linalg_numpy`, which the entry points import at function level when they
send a matrix to numpy: it loads with numpy, with the first matrix past
`PLAIN_CELLS`, an ndarray or modular mode, so a process that stays on the
plain engine never compiles it.  No other module imports it.
"""

from __future__ import annotations

import importlib.util
import sys
from array import array
from bisect import insort
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .linalg_numpy import PLU


def _lazy_module(name: str):
    """The module `name`, executed on its first attribute access
    (`importlib.util.LazyLoader`).

    A missing module raises ImportError here, at import, not on first use.
    On Python 3.11 the first access is not thread-safe.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

# The three largest primes below 2^26: a product of two residues summed over
# up to 2^11 terms still fits in int64, so updates mod p can stay lazy.
PRIMES = (67108859, 67108837, 67108819)

_INT64_LIMIT = 1 << 63


class LinalgError(RuntimeError):
    """Internal inconsistency, e.g. persistent modular/rational disagreement."""


def _over_common_denominator(row: Sequence) -> tuple[list[int], int]:
    """(w, d): integers w and the least positive d with row = w / d."""
    if all(type(v) is int for v in row):
        return list(row), 1
    fracs = [Fraction(v) for v in row]
    d = lcm(*(v.denominator for v in fracs))
    return [int(v * d) for v in fracs], d


def _row_to_int(row: Sequence) -> list[int]:
    """Scale a row of rationals to coprime integers (rank-preserving)."""
    ints, _ = _over_common_denominator(row)
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def int_dtype(values: Iterable[int]):
    """int64 if every value fits, else object (Python ints)."""
    return np.int64 if all(-_INT64_LIMIT < v < _INT64_LIMIT for v in values) else object


class ExactMatrix:
    """Integer matrix (rationals are cleared on input), given as rows or as
    an ndarray.

    `rows` is the matrix as lists of Python ints, for the plain engine;
    `array` is it as one ndarray, int64 when every entry fits and object
    (Python ints) otherwise, for the numpy engine.  Each is built from the
    other on its first use and kept.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_array")

    def __init__(self, rows: Iterable[Sequence] | np.ndarray, ncols: Optional[int] = None):
        self._rows = self._array = None
        if getattr(rows, "ndim", None) == 2:  # an ndarray; isinstance would load numpy
            self._array = rows
            self.nrows, self.ncols = rows.shape
            return
        cleaned = []
        for row in rows:
            row = list(row)
            if set(map(type, row)) <= {int}:
                cleaned.append(row)
            elif any(isinstance(v, Fraction) and v.denominator != 1 for v in row):
                cleaned.append(_row_to_int(row))
            else:
                cleaned.append([int(v) for v in row])
        widths = {len(r) for r in cleaned}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        width = widths.pop() if widths else (0 if ncols is None else ncols)
        if ncols is not None and ncols != width:
            raise ValueError("ncols mismatch")
        self._rows = cleaned
        self.nrows, self.ncols = len(cleaned), width

    @property
    def rows(self) -> list[list[int]]:
        if self._rows is None:
            self._rows = self._array.tolist()
        return self._rows

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            shape, values = (self.nrows, self.ncols), self._rows
            try:
                arr = np.array(values, dtype=np.int64).reshape(shape)
            except OverflowError:
                arr = None
            # as `int_dtype`: -2^63 fits int64 but its negation does not
            if arr is None or (arr.size and arr.min() == -_INT64_LIMIT):
                arr = np.array(values, dtype=object).reshape(shape)
            self._array = arr
        return self._array

    def transpose(self) -> "ExactMatrix":
        if self._array is not None:
            return ExactMatrix(self._array.T)
        columns = [list(col) for col in zip(*self._rows)] if self.nrows else [[]] * self.ncols
        return ExactMatrix(columns, ncols=self.nrows)


# -- lifting and the exact check --------------------------------------------


def _ratrecon(u: int, m: int, bound: int) -> Optional[tuple[int, int]]:
    """a/b = u (mod m) with |a|, b <= bound (Wang's reconstruction), or None."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(u: Sequence[int], m: int, den: int = 1) -> Optional[tuple[list[int], int]]:
    """Integer numerators w and the least denominator d with w/d = u (mod m),
    or None.

    Bounds are |w_i|, d <= sqrt(m/2).  d starts at the hint `den`, else at
    1; at the first entry with u_i d out of bounds it takes that entry's
    reconstructed denominator (at least 2) as a factor and the scan starts
    again, so a try that fails at its first entry costs one product and at
    most one `_ratrecon` per start.  w and d are made coprime at the end.
    """
    bound, half = isqrt(m >> 1), m >> 1
    for d in dict.fromkeys((den, 1)):
        while True:
            w = []
            for v in u:
                v = v * d % m
                if bound < v < m - bound:
                    break
                w.append(v - m if v > half else v)
            else:
                g = gcd(d, *w)
                return [v // g for v in w], d // g
            pair = _ratrecon(v, m, bound) if 2 * d <= bound else None
            if pair is None or d * pair[1] > bound:
                break
            d *= pair[1]
    return None


class KernelLift(NamedTuple):
    """A certified right kernel of B: v_P = num[i][j] / den[j] on pivot
    column P[i], 1 on free column free[j], 0 on the other free columns;
    num has a row per pivot and a column per free column, den[j] is the
    least common denominator of v_j."""

    rank: int
    pivots: list[int]
    free: list[int]
    num: list[list[int]]
    den: list[int]

    def is_rref(self) -> bool:
        """True iff every v_j vanishes on the pivot columns after free[j].

        Then the pivot columns mod p are the pivot columns over Q, and the
        vectors are the kernel basis read off the RREF over Q.
        """
        return not any(
            v for c, row in zip(self.pivots, self.num) for f, v in zip(self.free, row) if c > f
        )

    def vectors(self, cols: Optional[Iterable[int]] = None) -> list[list[int]]:
        """The integer vectors den[j] v_j, j in cols (default all)."""
        out = []
        for j in range(len(self.free)) if cols is None else cols:
            v = [0] * (len(self.pivots) + len(self.free))
            for c, row in zip(self.pivots, self.num):
                v[c] = row[j]
            v[self.free[j]] = self.den[j]
            out.append(v)
        return out

    def columns(self, cols: Optional[Sequence[int]] = None) -> np.ndarray:
        """`vectors(cols)` as the columns of an object array."""
        vectors = self.vectors(cols)
        z = np.zeros((len(self.pivots) + len(self.free), len(vectors)), dtype=object)
        for t, v in enumerate(vectors):
            z[:, t] = v
        return z

    def basis(self) -> list[list[Fraction]]:
        return [[Fraction(v, d) for v in vec] for vec, d in zip(self.vectors(), self.den)]


def _norm_bits(rows: Iterable[Sequence[int]]) -> int:
    """Upper bound on log2 of the product of the Euclidean norms of integer rows."""
    return sum((sum(map(mul, row, row)).bit_length() + 1) // 2 for row in rows)


def _dixon(
    pivots: list[int], free: list[int], p: int, hadamard, digits, column, check
) -> Optional[KernelLift]:
    """The Dixon loop of both engines: the kernel of B normalized on the free
    columns, x = M^-1 y with M = B[Q, P] and y = -B[Q, free], lifted
    p-adically, reconstructed as rationals and checked exactly.

    The engine gives the pivot columns P and free columns of its elimination
    mod p and its steps: `hadamard()`, log2 of a bound H on the product of
    the row norms of [M | y]; `digits`, an iterator that solves for the next
    digit mod p, adds it to its accumulator, updates the exact residual and
    yields the modulus; `column(j)`, the accumulated column j; `check(lift,
    cols)`, per column of cols whether B v != 0 on a row of Q and anywhere.

    After each digit the pending columns are reconstructed from the last
    one down, each from the denominator last found (the columns share
    det M), until one does not reconstruct: the last gates the others, and
    a digit costs one failed try.  A candidate wrong on Q is premature and
    lifting goes on; one right on Q but wrong elsewhere proves rank_Q > r,
    so the prime is unlucky and the result is None.

    The step limit: each entry of x is det M_i / det M (Cramer), M_i being
    M with one column replaced by a column of y, so numerator and
    denominator are at most H.  Every column denominator, so a hint from a
    true column, divides det M (`_reconstruct` falls back to 1 from any
    other), so past a modulus of 2 H^2 every column reconstructs to its value
    and the verdict, kernel or unlucky, is final.  One step later it gives up.
    """
    r, k = len(pivots), len(free)
    lift = KernelLift(r, pivots, free, [[0] * k for _ in pivots], [1] * k)
    pending, modulus, hint = list(range(k)), 1, 1
    limit = 2 * hadamard() + 2 + p.bit_length() if r and k else 0
    while pending:
        if r:
            if modulus.bit_length() > limit:
                return None
            modulus = next(digits)
        ready = []
        for j in reversed(pending):  # the last pending column gates the others
            got = _reconstruct(column(j), modulus, hint)
            if got is None:
                break
            for row, v in zip(lift.num, got[0]):
                row[j] = v
            lift.den[j] = hint = got[1]
            ready.append(j)
        if ready:
            verdicts = check(lift, ready)
            if any(bad and not on_q for on_q, bad in verdicts):
                return None
            done = {j for j, (on_q, _) in zip(ready, verdicts) if not on_q}
            pending = [j for j in pending if j not in done]
    return lift


# -- plain Python, for small matrices ---------------------------------------

# Largest matrix, in entries, that the entry points work in plain Python; a
# sweep goes by the entries of each block of J_{2N-2}.  From
# `scripts/bench_plain.py` (each Strand's ranks in fresh interpreters, numpy's
# load counted): plain Python was faster on every corpus curve, up to
# triangle_cubic's sweep (26928 entries, 29 against 76 ms), and numpy on
# pappus_a1's product as one factor, J_16 one block of 149175 entries (547
# against 240 ms); nothing measured lies between.
PLAIN_CELLS = 30000


def is_plain(cells: int) -> bool:
    """Whether a matrix of `cells` entries goes to the plain engine."""
    return cells <= PLAIN_CELLS


_SLOT = (1 << 64) - 1  # one entry of a packed row


def _pack(values: Iterable[int]) -> int:
    """The values, each in [0, 2^64), as the 64-bit slots of one int."""
    return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)


def _unpack(packed: int, width: int) -> memoryview:
    """The `width` 64-bit slots of a packed row."""
    return memoryview(packed.to_bytes(8 * width, sys.byteorder)).cast("Q")


class Echelon(NamedTuple):
    """A row echelon form over GF(p) of integer rows (`echelon`).

    `pivots` are its pivot columns in increasing order, the first columns
    independent mod p; `rows` the rows independent mod p of the rows before
    them, in order; `leads` maps a pivot column to its pivot row, packed,
    with residues mod p, 0 before the pivot column and 1 there.  `steps`
    has per row of `rows` its pivot column, the (pivot column, p - e) pairs
    of the lead rows added to it in order, and the inverse that scaled it.
    """

    p: int
    width: int
    pivots: list[int]
    rows: list[int]
    leads: dict[int, int]
    steps: list[tuple[int, list[tuple[int, int]], int]]


def echelon(rows: Sequence[Sequence[int]], p: int, width: Optional[int] = None) -> Echelon:
    """Row echelon form over GF(p) of integer rows, `width` entries each, in
    plain Python, for a prime p < 2^26 and fewer than 2^11 rows or columns:
    on such small matrices numpy's cost is its per-call overhead and its
    first call loads it.

    Each row is packed into one int, 64 bits per entry, so a row operation
    is one multiply-add of ints.  Each row is reduced against the pivot
    rows in increasing order of their pivot columns: the row's entry e at a
    pivot column is cleared by adding p - e times that pivot row.  Every
    addition is below p^2 per entry, so an entry stays below 2^63 and never
    carries into the next.  A row left nonzero mod p becomes a pivot row at
    its first nonzero column.
    """
    width = (len(rows[0]) if rows else 0) if width is None else width
    if p >= 1 << 26 or min(len(rows), width) >= 1 << 11:
        raise ValueError("the packed elimination needs p < 2^26 and fewer than 2^11 rows or columns")
    pivots: list[int] = []
    independent: list[int] = []
    leads: dict[int, int] = {}
    steps = []
    for n, row in enumerate(rows):
        if len(pivots) == width:
            break
        packed = _pack([v % p for v in row])
        added = []
        for c in pivots:
            e = (packed >> (64 * c) & _SLOT) % p
            if e:
                packed += (p - e) * leads[c]
                added.append((c, p - e))
        residues = [v % p for v in _unpack(packed, width)]
        col = next((c for c, v in enumerate(residues) if v), None)
        if col is not None:
            inv = pow(residues[col], -1, p)
            leads[col] = _pack([v * inv % p for v in residues])
            insort(pivots, col)
            independent.append(n)
            steps.append((col, added, inv))
    return Echelon(p, width, pivots, independent, leads, steps)


def _echelon_solver(e: Echelon, k: int):
    """Solver of M x = y mod p, M = B[e.rows, e.pivots], for k right-hand
    sides packed as `echelon`'s rows, y by row of e.rows and x by pivot: e's
    steps on y leave U x = z, U the unit upper triangular leads on the pivot
    columns, and back-substitution gives x; slots stay below 2^63 as there."""
    p, pivots = e.p, e.pivots
    back = []
    for t, c in enumerate(pivots):
        slots = _unpack(e.leads[c], e.width)
        back.append((c, [(d, p - slots[d]) for d in pivots[t + 1:] if slots[d]]))

    def solve(ys: list[int]) -> dict[int, int]:
        z = {}
        for (col, added, inv), y in zip(e.steps, ys):
            for c, f in added:
                y += f * z[c]
            z[col] = _pack([v * inv % p for v in _unpack(y, k)])
        for c, terms in reversed(back):
            x = z[c]
            for d, f in terms:
                x += f * z[d]
            z[c] = _pack([v % p for v in _unpack(x, k)])
        return z

    return solve


def _join(values: Iterable[int], s: int) -> int:
    """The values, each in [0, 2^s), as the s-bit slots of one int."""
    return int.from_bytes(b"".join(v.to_bytes(s // 8, "little") for v in values), "little")


def _split(x: int, count: int, s: int) -> list[int]:
    """The `count` signed s-bit slots of x = sum_j v_j 2^(s j), |v_j| < 2^(s-1)."""
    size, half = s // 8, 1 << (s - 1)
    raw = (x + _join([half] * count, s)).to_bytes(size * count, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size)]


def _max_bits(rows: Iterable[Sequence[int]]) -> int:
    """Bit length of the largest absolute entry of integer rows."""
    return max((max(max(row), -min(row)) for row in rows if row), default=0).bit_length()


def _row_times(row: Sequence[int], column: Sequence[int]) -> int:
    """row . column, over the nonzero entries of the row."""
    return sum(map(mul, compress(row, row), compress(column, row)))


def annihilates(rows: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> bool:
    """True iff row . v = 0 exactly for every integer row and vector.

    The vectors are packed into one int per column, W_c = sum_t v_t[c] 2^(s t),
    with s so wide that |row . v_t| < 2^(s-1); then row . W = sum_t
    (row . v_t) 2^(s t) is 0 iff every row . v_t is, and a row costs one
    product per nonzero entry.
    """
    if not rows or not vectors:
        return True
    s = _max_bits(rows) + _max_bits(vectors) + len(vectors[0]).bit_length() + 1
    packed = [0] * len(vectors[0])
    for vec in reversed(vectors):
        packed = [(w << s) + v for w, v in zip(packed, vec)]
    return not any(_row_times(row, packed) for row in rows)


def _plain_lift(
    rows: Sequence[Sequence[int]], width: int, p: int, first: Optional[Echelon] = None
) -> Optional[KernelLift]:
    """`lift_kernel` in plain Python: `_dixon` on one `echelon` mod p
    (`first`, when an elimination elsewhere already gave it), each digit
    solved by replaying its steps (`_echelon_solver`) and accumulated in
    lists."""
    e = first if first is not None else echelon(rows, p, width)
    pivots, rows_q = e.pivots, e.rows
    free = [c for c in range(width) if c not in e.leads]
    k = len(free)
    acc = [[0] * k for _ in pivots]

    def digits():
        res = [[-rows[q][f] for f in free] for q in rows_q]
        s = 8 * -(-(_max_bits(rows[q] for q in rows_q) + len(pivots).bit_length() + p.bit_length() + 1) // 8)
        solve, modulus = _echelon_solver(e, k), 1
        while True:
            x = solve([_pack([v % p for v in row]) for row in res])
            digit = {c: _unpack(x[c], k) for c in pivots}
            acc[:] = [[a + modulus * v for a, v in zip(row, digit[c])] for row, c in zip(acc, pivots)]
            modulus *= p
            yield modulus
            # the residual (y - M d) / p, |M d| < 2^(s-1) per slot
            joined = [_join(digit[c], s) if c in digit else 0 for c in range(width)]
            res = [[(a - b) // p for a, b in zip(row, _split(_row_times(rows[q], joined), k, s))]
                   for row, q in zip(res, rows_q)]

    def check(lift: KernelLift, cols: list[int]) -> list[tuple[bool, bool]]:
        vectors = lift.vectors(cols)
        if annihilates(rows, vectors):
            return [(False, False)] * len(cols)
        return [(any(_row_times(rows[q], v) for q in rows_q), any(_row_times(row, v) for row in rows))
                for v in vectors]

    return _dixon(pivots, free, p, lambda: _norm_bits(rows[q] for q in rows_q), digits(),
                  lambda j: [row[j] for row in acc], check)


# -- public entry points ----------------------------------------------------


def rank(m: ExactMatrix) -> int:
    """Certified exact rank over Q (`lifted_rank`).

    The engine runs on the short side (A, or A^T when A is wide), whose
    kernel is the smaller one: k_right - k_left = ncols - nrows.
    """
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return lifted_rank(m.transpose() if m.ncols > m.nrows else m)[0]


def _lifts(b: ExactMatrix | np.ndarray, first: Optional[PLU | Echelon] = None):
    """The lifts of b's kernel at each of `PRIMES` in turn (None where it is
    unlucky) on b's one engine: `_plain_lift` for an ExactMatrix within
    `PLAIN_CELLS`, else `lift_kernel`; `first` is an elimination mod PRIMES[0]."""
    plain = isinstance(b, ExactMatrix) and is_plain(b.nrows * b.ncols)
    if not plain:
        from .linalg_numpy import lift_kernel
        a = b.array if isinstance(b, ExactMatrix) else b
    for p in PRIMES:
        e = first if p == PRIMES[0] else None
        yield _plain_lift(b.rows, b.ncols, p, e) if plain else lift_kernel(a, p, e)


def lifted_rank(
    b: ExactMatrix | np.ndarray, plu: Optional[PLU | Echelon] = None
) -> tuple[int, Optional[KernelLift]]:
    """Certified rank of b with the lift of its right kernel: the first of
    `_lifts` that checks, `_rank_integer` with no lift when none does.  `plu`
    is an elimination of b mod PRIMES[0] at hand for b's engine
    (`column_profile` of b^T)."""
    for lift in _lifts(b, plu):
        if lift is not None:
            return lift.rank, lift
    b = b if isinstance(b, ExactMatrix) else ExactMatrix(b)
    return _rank_integer(b.rows, b.ncols), None


def kernel_dim(m: ExactMatrix) -> int:
    return m.ncols - rank(m)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every n < 3.2e9."""
    bases = (2, 3, 5, 7)
    if n < 2 or n in bases:
        return n in bases
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def check_primes(primes: Iterable[int]) -> tuple[int, ...]:
    """The moduli of modular mode: distinct primes p with 2^20 < p < 2^31.

    2^31 keeps every product of two residues inside int64.  Raises ValueError
    naming the first value that breaks the rule.
    """
    checked: list[int] = []
    for p in primes:
        if type(p) is not int:
            raise ValueError(f"{p!r} is not an integer")
        if not (1 << 20) < p < (1 << 31):
            raise ValueError(f"{p} is outside 2^20 < p < 2^31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in checked:
            raise ValueError(f"{p} is repeated")
        checked.append(p)
    return tuple(checked)


def column_profile(b: ExactMatrix | np.ndarray, order: list[int], p: int) -> tuple[list[int], Echelon | PLU]:
    """The positions in `order` of the columns of b independent mod p of
    those before them (the column rank profile), p < 2^26, and the same
    elimination read as one of b^T, for `lifted_rank` of b^T: `echelon` of
    the columns, or `factor` then `PLU.transpose`."""
    if isinstance(b, ExactMatrix) and is_plain(b.nrows * b.ncols):
        columns = b.transpose().rows
        e = echelon([columns[c] for c in order], p, b.nrows)
        return e.rows, e._replace(rows=[order[i] for i in e.rows])
    from .linalg_numpy import PLU, _mod, factor
    a = b.array if isinstance(b, ExactMatrix) else b
    plu = factor(_mod(a[:, order], p), p)
    return plu.pivots, PLU([order[i] for i in plu.pivots], plu.rows, plu.lu).transpose(p)


def pivot_columns(a: np.ndarray | list[list[int]], p: int) -> list[int]:
    """The pivot columns of integer a over GF(p): the first columns, in
    order, that are independent mod p.  `a` is an ndarray (p < 2^31) or the
    list of its columns, eliminated in plain Python (p < 2^26)."""
    if isinstance(a, list):
        return echelon(a, p).rows
    from .linalg_numpy import _eliminate, _mod
    return _eliminate(_mod(a, p), p)[0]


def rank_mod_p(m: ExactMatrix, p: int) -> int:
    """Rank over GF(p), p < 2^26: in plain Python (`echelon`) up to
    `PLAIN_CELLS` entries, else with numpy (`_rank_mod_p`)."""
    if is_plain(m.nrows * m.ncols):
        return len(echelon(m.rows, p, m.ncols).pivots)
    from .linalg_numpy import _rank_mod_p
    return _rank_mod_p(m.array, p)


def modular_rank_with_check(m: ExactMatrix, primes: Sequence[int]) -> int:
    """Rank computed mod each prime, reconciled against the rational rank.

    A prime where the rank drops is unlucky; on disagreement between primes
    the rational rank is recomputed and must confirm the maximum.
    """
    primes = check_primes(primes)
    if m.nrows == 0 or m.ncols == 0:
        return 0
    from .linalg_numpy import _rank_mod_p
    ranks = [_rank_mod_p(m.array, p) for p in primes]
    best = max(ranks)
    if all(r == best for r in ranks):
        return best
    exact = rank(m)
    if exact == best:
        return best
    raise LinalgError(
        f"modular ranks {ranks} disagree and rational rank {exact} does not "
        f"confirm the maximum"
    )


def rref_fraction(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns)."""
    work = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv_idx = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv_idx is None:
            continue
        work[r], work[piv_idx] = work[piv_idx], work[r]
        pv = work[r][col]
        work[r] = [v / pv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def certified_kernel(m: ExactMatrix) -> KernelLift:
    """Certified right kernel of m, normalized as the basis read off the RREF
    over Q: v_j has 1 in free column free[j] and 0 in the other free columns.
    The first of `_lifts` whose pivot columns are those over Q (a prime whose
    pivot columns differ is rejected like an unlucky one), else `rref_kernel`.
    """
    for lift in _lifts(m):
        if lift is not None and lift.is_rref():
            return lift
    return rref_kernel(m.rows, m.ncols)


def rref_kernel(rows: Sequence[Sequence], ncols: int) -> KernelLift:
    """The right kernel of rational rows read off their RREF over Q
    (`rref_fraction`), normalized as `certified_kernel`'s."""
    rref, pivots = rref_fraction(rows, ncols)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    columns = [_over_common_denominator([-row[col] for row in rref]) for col in free]
    num = [list(row) for row in zip(*(ints for ints, _ in columns))] or [[] for _ in pivots]
    return KernelLift(len(pivots), pivots, free, num, [d for _, d in columns])


def kernel_basis(m: ExactMatrix) -> list[list[Fraction]]:
    """Exact basis of the right kernel read off the RREF over Q, one vector
    per free column in increasing order (`certified_kernel`)."""
    if m.ncols == 0:
        return []
    return certified_kernel(m).basis()


class EchelonAccumulator:
    """Incremental row-space accumulator over Q, for quotient-space work.

    Feeds vectors one at a time.  The span is held as primitive integer rows,
    each with a pivot: its first nonzero column, at which every later row
    vanishes.  `reduce` returns the residue of a vector modulo the current
    span, the unique vector of its coset that vanishes on every pivot;
    it is computed fraction-free, as integers over one common denominator.
    `add` inserts the residue, made primitive, if nonzero.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _residue(self, vec: Sequence) -> tuple[list[int], int]:
        """(w, d) with w / d the residue of vec and gcd(d, *w) = 1."""
        v, d = _over_common_denominator(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                a = row[pc]
                g = gcd(a, c) if a > 0 else -gcd(a, c)
                a, c = a // g, c // g
                v = [a * x - c * y for x, y in zip(v, row)]
                d *= a
                if d != 1:
                    g = gcd(d, *v)
                    if g != 1:
                        v = [x // g for x in v]
                        d //= g
        return v, d

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        v, d = self._residue(vec)
        return [Fraction(x, d) for x in v]

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert vec's residue; True if it enlarged the span."""
        v, _ = self._residue(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        g = gcd(*v)
        self.rows.append([x // g for x in v] if g != 1 else v)
        self.pivots.append(lead)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def _rank_integer(rows: list[list[int]], ncols: int) -> int:
    """Exact rank over Q of integer rows, by fraction-free elimination
    (`EchelonAccumulator`): the number of rows that enlarge the span of the
    rows before them."""
    acc = EchelonAccumulator(ncols)
    return sum(map(acc.add, rows))
