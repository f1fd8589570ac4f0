"""Graded Milnor algebra dimensions, Hilbert series and thresholds.

dim M(f)_k is dim S_k minus the rank of the multiplication map
S_{k-N+1}^3 -> S_k by the partial derivatives.  Every rank goes through a
`Strand`, the per-curve object that owns the rank backend and the memo of
ranks; the functions here and in `koszul`, `hodge` and `geometry` take f as a
Polynomial (which gets a fresh exact Strand) or as a Strand (whose ranks are
shared across calls).

An exact Strand given the singular points of a line arrangement (nodes and
ordinary triple points) reads M(f) off the points instead of lifting kernels.
`tjurina.TjurinaDual` holds tau functionals, a basis of the dual of the sum of
the local Tjurina algebras T_p, checked once to kill the Jacobian ideal J;
W_k is their matrix on S_k and def_k = tau - rank W_k.

* Step A, a certificate at the stable degrees k = 3N-5..3N-3: J_k lies in
  the common kernel of the functionals, so when W_k has rank tau the rank of
  the Jacobian map is at most dim S_k - tau.  A rank mod p never exceeds the
  rank over Q, so a rank mod p equal to that bound is the exact rank, with no
  lift.  Otherwise the certified `linalg.rank` answers, and tau = n + 4t
  stays a real check.
* Step B, the defect identity: for a reduced curve with weighted-homogeneous
  singularities (A1 and D4 are),
      dim M(f)_k = dim M(f_s)_k + def_{3N-6-k}
  (Dimca, Syzygies of Jacobian ideals and defects of linear systems).  It is
  used for k <= 3N-6 once step A has shown dim M(f)_k = tau on all three
  stable degrees: then the functionals count all of tau(C), so the points
  are all the singular points and the functionals span every dual T_p^*.

Any failure leaves the direct path.  A modular Strand never takes the derived
path, so `--modp` stays an independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .gradedmaps import jacobian_matrix, s_dim
from .linalg import PRIMES, ExactMatrix, _rank_mod_p, check_primes, modular_rank_with_check, rank
from .polynomials import Polynomial
from .tjurina import TjurinaDual

if TYPE_CHECKING:
    from .geometry import SingularPoint


class NonStabilizationError(RuntimeError):
    """The Hilbert function failed to stabilize by degree 3N-3.

    Signals a non-reduced curve or non-isolated singularities.
    """


class Strand:
    """The Koszul strand of one curve: f, N, the rank backend and a rank memo.

    Each (map, degree) rank is computed at most once per Strand and is freed
    with it.  With no primes the backend is the certified exact `rank`; with
    primes it is `modular_rank_with_check`, the uncertified opt-in path, and
    the primes must pass `check_primes` (ValueError otherwise).  `points`, the
    singular points of an arrangement, give an exact Strand its `dual` (None
    when they fail the local check) and with it steps A and B.
    """

    def __init__(
        self, f: Polynomial, primes: tuple[int, ...] = (), points: Sequence[SingularPoint] = ()
    ):
        self.f = f
        self.N = f.degree()
        self.primes = check_primes(primes)
        self.dual = TjurinaDual.of(f, points) if points and not self.primes else None
        self._ranks: dict[tuple[Callable, int], int] = {}
        self._derived: Optional[bool] = None

    @classmethod
    def of(cls, f: Polynomial | Strand) -> Strand:
        """f itself if it is a Strand, else a fresh exact Strand of f."""
        return f if isinstance(f, Strand) else cls(f)

    def map_rank(
        self, build: Callable[[Polynomial, int], ExactMatrix], m: int, bound: Optional[int] = None
    ) -> int:
        """Rank of the graded map build(f, m) out of degree m; 0 for m < 0.

        `bound` is a proven upper bound on the rank over Q; it is the rank
        when the rank mod a prime reaches it (a rank over Q is never below
        one mod p), and no lift is needed.
        """
        if m < 0:
            return 0
        key = (build, m)
        if key not in self._ranks:
            matrix = build(self.f, m)
            if bound is not None and _rank_mod_p(matrix.array, PRIMES[0]) == bound:
                self._ranks[key] = bound
            else:
                self._ranks[key] = (
                    modular_rank_with_check(matrix, self.primes) if self.primes else rank(matrix)
                )
        return self._ranks[key]

    def remember(self, build: Callable[[Polynomial, int], ExactMatrix], m: int, rank: int) -> None:
        """Memoize a certified exact rank of build(f, m) found by other means
        (a kernel lift); a modular Strand keeps its own backend."""
        if not self.primes:
            self._ranks.setdefault((build, m), rank)

    def derived(self) -> bool:
        """True when the Hilbert function below 3N-5 is read off the defects.

        That needs the local check (`dual`) and dim M(f)_k == tau on
        3N-5..3N-3 (step A).  Then the functionals count the whole
        tau(C) = sum of dim T_p, so they span the dual of every T_p.
        """
        if self._derived is None:
            N = self.N
            self._derived = self.dual is not None and all(
                milnor_dim(self, k) == self.dual.tau for k in range(3 * N - 5, 3 * N - 2)
            )
        return self._derived


def jacobian_rank(f: Polynomial | Strand, m: int) -> int:
    """Rank of S_m^3 -> S_{m+N-1}, (a,b,c) -> a f_x + b f_y + c f_z.

    Step A: on a Strand with a Tjurina dual, at k = m + N - 1 >= 3N-5 and
    with W_k of rank tau, the image lies in the common kernel of tau
    independent functionals, so the rank is at most dim S_k - tau.
    """
    strand = Strand.of(f)
    k, dual = m + strand.N - 1, strand.dual
    bound = None
    if dual is not None and k >= 3 * strand.N - 5 and dual.defect(k) == 0:
        bound = s_dim(k) - dual.tau
    return strand.map_rank(jacobian_matrix, m, bound)


def milnor_dim(f: Polynomial | Strand, k: int) -> int:
    """dim M(f)_k for homogeneous f of degree N >= 1.

    Step B: on a derived Strand, dim M(f)_k = dim M(f_s)_k + def_{3N-6-k}
    for k <= 3N-6.
    """
    if k < 0:
        return 0
    strand = Strand.of(f)
    top = 3 * strand.N - 6
    if k <= top and strand.derived():
        return smooth_reference_dim(strand.N, k) + strand.dual.defect(top - k)
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


@dataclass(frozen=True)
class HilbertFunction:
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
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
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
