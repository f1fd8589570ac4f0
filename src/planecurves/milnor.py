"""Graded Milnor algebra dimensions, Hilbert series and thresholds.

dim M(f)_k is dim S_k minus the rank of the multiplication map
J_m : S_m^3 -> S_k, k = m+N-1, by the partial derivatives.  Every rank goes
through a `Strand`, the per-curve object that owns the rank backend and the
memo of ranks; the functions here and in `koszul`, `hodge` and `geometry`
take f as a Polynomial (which gets a fresh exact Strand) or as a Strand
(whose ranks are shared across calls).

An exact Strand whose Hilbert function is not derived (below) certifies
rank J_m for m = 2N-2 down to 0 in one sweep, with one Dixon lift at the top.
The kernel of J_m^T is ann(J_k), the functionals on S_k that kill J_k.  The
annihilators of J form Macaulay's inverse system, closed under contraction
(Iarrobino-Kanev, *Power Sums, Gorenstein Algebras, and Determinantal Loci*,
1999): if phi kills J_{k+1}, then x⌟phi, y⌟phi, z⌟phi, with
(x⌟phi)(g) = phi(x g), kill J_k, because x J_k lies in J_{k+1}.  So with s
of the contractions of a basis of ann(J_{k+1}) independent mod p,

    rank_p J_m <= rank_Q J_m <= dim S_k - s,

and when the two ends meet that is the rank, and the s contractions are a
basis of ann(J_k) for the next degree.  Contraction only re-indexes, so the
sweep carries residues mod p.  The upper bound fails only high, so an unlucky
prime or a mismatch costs a lift (`linalg.lifted_rank`) and never a wrong
rank; the lift's integer kernel restarts the chain.  Modular Strands and
single rank requests rank each matrix directly.  Only the Strand writes its
memo, in `Strand._store`, keyed by the map's name ("W" for W_k, below) and
degree: a second certified rank that disagrees with the first raises
LinalgError.  A sweep does the same work whatever the memo holds.

The lower ends rank_p J_m, m = 0..2N-2, all come from one elimination mod p
of J_{2N-2} (`jacobian_rank_profile`: the column rank profile, after
Jeannerod-Pernet-Storjohann, *Rank-profile revealing Gaussian elimination*,
2013).  The index of x^a y^b z^c in the monomial basis depends on (b, c)
alone, so column (i, x^e u) of J_{m+e}, which is x^e (f_i u), holds the
entries of column (i, u) of J_m in the same rows and zeros below.  Taken by
descending power of x in the multiplier, the first 3 dim S_m columns of
J_{2N-2} are therefore J_m itself: the same integers, the same residues.
`linalg.column_profile` returns the positions of the columns independent mod
p of the columns before them, so the positions below t number the rank of
the first t columns.  The same elimination, read as one of J_{2N-2}^T, is the
top lift's: its kernel is normalized on other free columns than a fresh
elimination's, but it spans the same space mod p, so every contraction count
is the same.  So the sweep eliminates J_{2N-2} once and builds no J_m below.

Every step runs one diagonal block at a time (`gradedmaps.jacobian_blocks`:
9 on lines9 and degree9_cubics, one on a generic f).  A block of J_m is the
corner of the block of J_{2N-2} of its class, so each block has its own
profile and lifts, and the ranks of a degree add up before its one
`_store`.  Contraction by x, y or z maps class c to c, c - [y] or c - [z] one
degree down, so a block's candidates come from three blocks' chains, and
the bounds meet for J_m iff they meet for every block: a degree is lifted
where the whole J_m would be.  A block runs in plain Python when it is within
`linalg.PLAIN_CELLS`, and on numpy otherwise.

An exact Strand of the line factors of an arrangement reads M(f) off its
singular points and ranks no Jacobian matrix.  The points come from the
Strand's own exact census of its factors (`geometry.analyze_arrangement`),
taken only when every factor is a line, so they are all the singular points
of f and each is a node or an ordinary triple point.  `tjurina.TjurinaDual` holds
tau functionals, a basis of the dual of the sum of the local Tjurina algebras
T_p, read off the kernel of the Jacobian ideal J at each point.  W_k is their matrix on S_k;
its kernel is I_k, the degree-k part of the saturation I of J, and
def_k = tau - rank W_k, so dim (S/I)_k = tau - def_k.

The span of the functionals at p is closed under multiplication by forms,
and a linear form missing every point acts invertibly on it, so def_k never
increases: once it is 0 it stays 0.  The kernel of W is an ideal, so once
W_k is injective every W_j below it is too (a nonzero g in I_j would give
l^(k-j) g != 0 in I_k) and def_j = tau - dim S_j.  `Strand.defect` therefore
ranks W_k only from K, the largest k with dim S_k <= tau, down to the first
injective W_k and up to the first zero defect.  A rank of W_k mod p is exact
when it reaches min(tau, dim S_k) ("full").  The functionals kill J, so J_k
lies in the kernel of W_k and rank W_k <= dim S_k - rank_Q J_k <=
dim S_k - rank_p J_k: a rank mod p equal to that bound is exact too
("jacobian bound").  Otherwise the certified `linalg.rank` answers ("exact").

Let N(f) = I/J.  Then dim M(f)_k = tau - def_k + dim N(f)_k, and N(f) is
self-dual, dim N(f)_k = dim N(f)_{3N-6-k} (Sernesi, *The local cohomology of
the Jacobian ring*, 2014; Dimca-Popescu, *Hilbert series and Lefschetz
properties of dimension one almost complete intersections*, 2016), so
N(f)_k = 0 for k > 3N-6.  On such a derived Strand:

* dim M(f)_k = tau for k >= 3N-5; the Strand checks def_{3N-5} = 0;
* for k <= 3N-6, by the defect identity for a reduced curve with
  weighted-homogeneous singularities (A1 and D4 are),
      dim M(f)_k = dim M(f_s)_k + def_{3N-6-k}
  (Dimca, *Syzygies of Jacobian ideals and defects of linear systems*).

So tau = n + 4t holds by construction there.  `koszul.er_dim(N-2)` stays a
direct Jacobian rank, and the report compares it with dim M(f)_{2N-3} - g
(the ER identity): that is the independent check of the derived series.  A
factor that is not a line, a point on four or more lines, a local kernel of
the wrong dimension and a modular Strand keep the direct path, so `--modp`
stays an independent computation.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb, prod
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .gradedmaps import Block, contractions, jacobian_blocks, jacobian_matrix, s_dim
from .linalg import (
    PRIMES,
    Echelon,
    ExactMatrix,
    LinalgError,
    check_primes,
    column_profile,
    lifted_rank,
    modular_rank_with_check,
    np,
    pivot_columns,
    rank,
    rank_mod_p,
)
from .polynomials import MAX_K_MAX, Polynomial
from .tjurina import TjurinaDual

if TYPE_CHECKING:
    from .geometry import SingularityProfile
    from .linalg import PLU


class NonStabilizationError(RuntimeError):
    """The Hilbert function failed to stabilize by degree 3N-3.

    Signals a non-reduced curve or non-isolated singularities.
    """


class Strand:
    """The Koszul strand of one curve: f, N, the rank backend and a rank memo.

    Each (map, degree) rank is computed once per Strand (a sweep certifies a
    rank requested before it again) and is freed with it.  With no primes the
    backend is the certified exact `rank`; with primes it is
    `modular_rank_with_check`, the uncertified opt-in path, and the primes
    must pass `check_primes` (ValueError otherwise).  f is the product of
    `factors` (a Polynomial is one factor), expanded here.  Line factors give
    the Strand their `census` (see `_census`) and an exact Strand its `dual`
    (None when a point's local kernel has the wrong dimension), from which the
    Hilbert function is derived.  `certified` lists (map, degree,
    certificate) for every rank the Strand answers: "contraction", "lift" or
    "memo" ("modular" on a modular Strand), and ("W", k, certificate) for
    every rank of W_k: "full", "jacobian bound" or "exact".
    """

    def __init__(self, factors: Polynomial | Sequence[Polynomial], primes: tuple[int, ...] = ()):
        self.factors = (factors,) if isinstance(factors, Polynomial) else tuple(factors)
        if not self.factors:
            raise ValueError("a curve needs at least one factor")
        self.f = prod(self.factors[1:], start=self.factors[0])
        self.N = self.f.degree()
        self.primes = check_primes(primes)
        self.census = _census(self.factors)
        self.dual = None
        if self.census is not None and not self.primes:
            points = [p.location.coords for p in self.census.points]
            self.dual = TjurinaDual.of(self.factors, points)
        self._ranks: dict[tuple[str, int], int] = {}
        self._defects: list[int] = []
        self.certified: list[tuple[str, int, str]] = []

    @classmethod
    def of(cls, f: Polynomial | Strand) -> Strand:
        """f itself if it is a Strand, else a fresh exact Strand of f."""
        return f if isinstance(f, Strand) else cls(f)

    def map_rank(self, build: Callable[[Polynomial, int], ExactMatrix], m: int) -> int:
        """Rank of the graded map build(f, m) out of degree m; 0 for m < 0."""
        if m < 0:
            return 0
        key = (build.__name__, m)
        if key in self._ranks:
            self.certified.append((*key, "memo"))
        elif self.primes:
            self._store(*key, modular_rank_with_check(build(self.f, m), self.primes), "modular")
        else:
            self._store(*key, rank(build(self.f, m)), "lift")
        return self._ranks[key]

    def _store(self, name: str, m: int, value: int, certificate: str) -> None:
        """The one write to the memo: the first certified rank is kept."""
        first = self._ranks.setdefault((name, m), value)
        if first != value:
            raise LinalgError(f"rank of {name} at degree {m} certified as {first} and as {value}")
        self.certified.append((name, m, certificate))

    def sweep(self) -> None:
        """Certify rank J_m into the memo for m = 2N-2 down to 0 as on a fresh
        Strand, lifting only at the top and where the contraction bounds do
        not meet (see the module docstring); nothing to do on a modular or
        derived Strand or a full memo.  Every step runs one block of
        `jacobian_blocks` at a time, on the engine of the block's profile."""
        p, top, name = PRIMES[0], 2 * self.N - 2, jacobian_matrix.__name__
        if self.primes or self.derived() or all((name, m) in self._ranks for m in range(top + 1)):
            return
        blocks = [block for block in jacobian_blocks(self.f, top) if block.rows]
        where = {row: (b, t) for b, block in enumerate(blocks) for t, row in enumerate(block.rows)}
        profiles = [jacobian_rank_profile(block, top, p) for block in blocks]
        # per block: residues mod p of a basis of its part of ann(J_{k+1}), as
        # lists, or as the columns of ndarrays once a profile ran on numpy
        chains, arrays = None, not all(isinstance(e, Echelon) for _, e in profiles)
        for m in range(top, -1, -1):
            k, found, lifted, below = m + self.N - 1, 0, False, []
            for block, (ranks, elimination) in zip(blocks, profiles):
                size = bisect_left(block.rows, s_dim(k))
                if chains is not None:
                    candidates = contractions(chains, where, block.rows[:size])
                    independent = pivot_columns(candidates, p)
                    if ranks[m] == size - len(independent):
                        below.append([candidates[i] for i in independent] if isinstance(candidates, list) else candidates[:, independent])
                        found += ranks[m]
                        continue
                # J_m's block is a corner of J_{2N-2}'s; the profile's elimination is the top lift's
                keep = [j for j, col in enumerate(block.columns) if col % s_dim(top) < s_dim(m)]
                if isinstance(elimination, Echelon):
                    rows = block.matrix.rows[:size]
                    corner = ExactMatrix([[row[j] for row in rows] for j in keep], ncols=size)
                else:  # an ndarray keeps the profile's engine
                    corner = block.matrix.array[:size, keep].T
                value, lift = lifted_rank(corner, elimination if m == top else None)
                below.append(lift and ((lift.columns() % p).astype(np.int64) if arrays else [[v % p for v in vec] for vec in lift.vectors()]))
                found, lifted = found + value, True
            chains = below
            self._store(name, m, found, "lift" if lifted else "contraction")

    def derived(self) -> bool:
        """True when the Hilbert function is read off the defects: the local
        check passed and def_{3N-5} = 0 (see the module docstring)."""
        return self.dual is not None and self.defect(3 * self.N - 5) == 0

    def defect(self, k: int) -> int:
        """def_k = tau - rank W_k for k >= 0 on a Strand with a dual, ranked
        only where it can change (`_lower_defects`, then upwards until it
        reaches 0)."""
        if not self._defects:
            self._defects = self._lower_defects()
        while len(self._defects) <= k and self._defects[-1]:
            self._defects.append(self.dual.tau - self.w_rank(len(self._defects)))
        return self._defects[k] if k < len(self._defects) else 0

    def _lower_defects(self) -> list[int]:
        """def_0..def_K for K the largest k with dim S_k <= tau, ranked from
        W_K down to the first injective W_k, below which every W_j is
        injective (the kernel is an ideal); [0] when tau = 0."""
        tau = self.dual.tau
        if not tau:
            return [0]
        top = 0
        while s_dim(top + 1) <= tau:
            top += 1
        defects = [tau - s_dim(j) for j in range(top + 1)]
        for k in range(top, -1, -1):
            defects[k] = tau - self.w_rank(k)
            if defects[k] == tau - s_dim(k):
                break
        return defects

    def w_rank(self, k: int) -> int:
        """Rank of W_k over Q, certified "full", "jacobian bound" or "exact"
        (see the module docstring) and stored whatever the memo holds."""
        p, m = PRIMES[0], k - self.N + 1
        found = rank_mod_p(ExactMatrix(self.dual.rows(k, p)), p)
        if found == min(self.dual.tau, s_dim(k)):
            certificate = "full"
        elif m >= 0 and found == s_dim(k) - rank_mod_p(jacobian_matrix(self.f, m), p):
            certificate = "jacobian bound"
        else:
            found, certificate = rank(ExactMatrix(self.dual.rows(k))), "exact"
        self._store("W", k, found, certificate)
        return found


def jacobian_rank_profile(block: Block, top: int, p: int) -> tuple[list[int], Echelon | PLU]:
    """rank_p of the block of J_m of `block`'s class for m = 0..top, from one
    elimination mod p of `block`, a block of J_top (`linalg.column_profile`),
    with the elimination read as one of its transpose.

    Column (s, u) of J_top is taken by descending power of x in u, then by
    slot (see the module docstring).  The block's matrix goes to the engine
    of its size, an ndarray to numpy.
    """
    width = s_dim(top)
    heads = sorted((col % width, col // width, j) for j, col in enumerate(block.columns))
    positions, elimination = column_profile(block.matrix, [j for *_, j in heads], p)
    return [bisect_left(positions, bisect_left(heads, (s_dim(m),))) for m in range(top + 1)], elimination


def _census(factors: Sequence[Polynomial]) -> Optional[SingularityProfile]:
    """The exact census of the factors when every one is a line and every
    singular point is a node or a triple point, else None."""
    from . import geometry  # geometry imports this module

    if any(factor.degree() != 1 for factor in factors):
        return None
    try:
        return geometry.analyze_arrangement(factors)
    except geometry.GeometryError:
        return None


def jacobian_rank(f: Polynomial | Strand, m: int) -> int:
    """Rank of S_m^3 -> S_{m+N-1}, (a,b,c) -> a f_x + b f_y + c f_z."""
    return Strand.of(f).map_rank(jacobian_matrix, m)


def milnor_dim(f: Polynomial | Strand, k: int) -> int:
    """dim M(f)_k for homogeneous f of degree N >= 1.

    On a derived Strand: tau for k >= 3N-5, dim M(f_s)_k + def_{3N-6-k}
    below.
    """
    if k < 0:
        return 0
    strand = Strand.of(f)
    if strand.derived():
        top = 3 * strand.N - 6
        if k > top:
            return strand.dual.tau
        return smooth_reference_dim(strand.N, k) + strand.defect(top - k)
    return s_dim(k) - jacobian_rank(strand, k - strand.N + 1)


def smooth_reference_dim(N: int, k: int) -> int:
    """dim M(f_s)_k for a smooth degree-N curve: [t^k]((1-t^{N-1})/(1-t))^3."""
    if k < 0 or k > 3 * (N - 2):
        return 0
    total = 0
    for j in range(4):
        e = k - j * (N - 1)
        if e >= 0:
            total += (-1) ** j * comb(3, j) * comb(e + 2, 2)
    return total


class HilbertFunction(NamedTuple):
    """The sequence k -> dim M(f)_k with its stable value and thresholds.

    ct and mdr are None for a smooth curve (the series never leaves the
    smooth reference, so there is no finite coincidence threshold).
    """

    dims: tuple[int, ...]
    N: int
    stable_value: int
    st: int
    ct: Optional[int]
    mdr: Optional[int]

    def series_str(self) -> str:
        """Print as '1+3t+6t^2+...+tau(t^st+...)'."""
        parts = []
        for k, d in enumerate(self.dims[: self.st]):
            if d == 0:
                continue
            coef = "" if d == 1 and k > 0 else str(d)
            if k == 0:
                parts.append(str(d))
            elif k == 1:
                parts.append(f"{coef}t")
            else:
                parts.append(f"{coef}t^{k}")
        if self.stable_value != 0:
            tail = f"t^{self.st}" if self.st > 1 else ("t" if self.st == 1 else "1")
            parts.append(f"{self.stable_value}({tail}+...)")
        return "+".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "N": self.N,
            "tau": self.stable_value,
            "st": self.st,
            "ct": self.ct,
            "mdr": self.mdr,
        }


def hilbert_series(f: Polynomial | Strand, k_max: Optional[int] = None) -> HilbertFunction:
    """Dimensions dim M(f)_k for k = 0..k_max with tau, ct, st, mdr.

    Stabilization is asserted on the three degrees 3N-5, 3N-4, 3N-3; failure
    raises NonStabilizationError.  For a reduced f, dim M(f)_k = tau for
    every k >= 3N-5, so degrees past 3N-3 are filled with tau, not ranked.
    """
    strand = Strand.of(f)
    N = strand.N
    if N < 3 or not strand.f.is_homogeneous():
        raise ValueError("need a homogeneous curve of degree >= 3")
    if k_max is not None and not 0 <= k_max <= MAX_K_MAX:
        raise ValueError(f"k_max must be between 0 and {MAX_K_MAX}, got {k_max}")
    strand.sweep()
    top = 3 * N - 3
    k_report = top if k_max is None else k_max
    dims = [milnor_dim(strand, k) for k in range(top + 1)]
    if not (dims[top] == dims[top - 1] == dims[top - 2]):
        raise NonStabilizationError(
            f"dim M(f)_k not stable on degrees {top-2}..{top}: "
            f"{dims[top-2:top+1]}; f is likely non-reduced"
        )
    tau_val = dims[top]
    dims += [tau_val] * (k_report - top)
    st = top
    while st > 0 and dims[st - 1] == tau_val:
        st -= 1
    ct: Optional[int] = None
    for k in range(top + 1):
        if dims[k] != smooth_reference_dim(N, k):
            ct = k - 1
            break
    mdr = None if ct is None else ct - N + 2
    return HilbertFunction(
        dims=tuple(dims[: k_report + 1]),
        N=N,
        stable_value=tau_val,
        st=st,
        ct=ct,
        mdr=mdr,
    )


def tau(f: Polynomial | Strand) -> int:
    """Total Tjurina number: the stable value of the Hilbert function."""
    return hilbert_series(f).stable_value
