"""Local duality at the singular points of a line arrangement.

At a singular point p the Jacobian ideal J = (f_x, f_y, f_z) cuts out the
local Tjurina algebra T_p, and its dual is spanned by a few Taylor
coefficients.  Take the chart (s, t) -> p + s e_i + t e_j of P^2, with e_i,
e_j the unit vectors of two coordinates and p_l != 0 in the third (so
det(p, e_i, e_j) != 0), and let c_ab(g) be the coefficient of s^a t^b in
g(p + s e_i + t e_j).

* A node (A1) has T_p = C, dual to c_00.
* An ordinary triple point (D4) has T_p = O_p / (m^3 + the quadratic parts
  of the chart derivatives of the cubic part of f), dual to c_00, c_10,
  c_01 and sum lambda_ab c_ab over a + b = 2, with lambda orthogonal to both
  quadratic parts.

A functional of order <= 2 kills J_k for every k iff it kills the 2-jets of
h f_w for h in {1, s, t, s^2, st, t^2} and w in {x, y, z}; `TjurinaDual.of`
checks that once, exactly.  W_k is the tau x dim S_k matrix of the
functionals on the monomials of degree k, and def_k = tau - rank W_k, the
failure of the points to impose independent conditions on degree-k forms.
The span of the functionals at p is closed under multiplication by forms,
and a linear form missing every point acts invertibly on it, so def_k never
increases: once it is 0 it stays 0.
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .gradedmaps import _integer_partials, integer_scaled, s_dim
from .linalg import PRIMES, ExactMatrix, _rank_mod_p, int_dtype, rank
from .polynomials import Monomial, Polynomial, monomial_basis

if TYPE_CHECKING:
    from .geometry import SingularPoint

# The multipliers h of the local check: 1, s, t, s^2, st, t^2.
_JET2 = [(a, b) for a in range(3) for b in range(3 - a)]


class Functional(NamedTuple):
    """g -> sum of w * c_ab(g) over weights ((a, b), w), in the chart at point."""

    point: tuple[int, int, int]
    weights: tuple[tuple[tuple[int, int], int], ...]


def _chart(point: tuple[int, int, int]) -> tuple[int, int, int]:
    """(l, i, j): p_l is the first nonzero coordinate, i < j the other two."""
    l = next(c for c in range(3) if point[c])
    i, j = (c for c in range(3) if c != l)
    return l, i, j


def _jet(g: dict[Monomial, int], point, order: int) -> dict[tuple[int, int], int]:
    """The coefficients c_ab of g(p + s e_i + t e_j) with a + b <= order,
    for g given by its integer term map."""
    l, i, j = _chart(point)
    out: dict[tuple[int, int], int] = {}
    for mono, coeff in g.items():
        base = coeff * point[l] ** mono[l]
        for a in range(min(order, mono[i]) + 1):
            along_i = base * comb(mono[i], a) * point[i] ** (mono[i] - a)
            for b in range(min(order - a, mono[j]) + 1):
                term = along_i * comb(mono[j], b) * point[j] ** (mono[j] - b)
                out[(a, b)] = out.get((a, b), 0) + term
    return out


def point_functionals(
    f: dict[Monomial, int], point: tuple[int, int, int], multiplicity: int
) -> list[Functional]:
    """The dual basis of T_p at a node (1 functional) or a triple point (4),
    for f given by its integer term map (`gradedmaps.integer_scaled`).

    Empty when the point is neither, or when the two quadrics of a triple
    point are proportional (it is not ordinary); `TjurinaDual.of` then gives
    up on the curve.
    """
    if multiplicity == 2:
        return [Functional(point, (((0, 0), 1),))]
    if multiplicity != 3:
        return []
    cubic = _jet(f, point, 3)
    g = {ab: cubic.get(ab, 0) for ab in ((3, 0), (2, 1), (1, 2), (0, 3))}
    # quadratic parts of d/ds and d/dt of the cubic part, on s^2, st, t^2
    q_s = (3 * g[(3, 0)], 2 * g[(2, 1)], g[(1, 2)])
    q_t = (g[(2, 1)], 2 * g[(1, 2)], 3 * g[(0, 3)])
    lam = (
        q_s[1] * q_t[2] - q_s[2] * q_t[1],
        q_s[2] * q_t[0] - q_s[0] * q_t[2],
        q_s[0] * q_t[1] - q_s[1] * q_t[0],
    )
    if not any(lam):
        return []
    content = gcd(*lam)
    quad = tuple((ab, v // content) for ab, v in zip(((2, 0), (1, 1), (0, 2)), lam) if v)
    return [Functional(point, ((ab, 1),)) for ab in ((0, 0), (1, 0), (0, 1))] + [
        Functional(point, quad)
    ]


class TjurinaDual:
    """The tau functionals of a curve's singular points and the ranks of W_k.

    Built by `of`, which returns None unless every functional passes the
    local check.  `defect(k)` is tau - rank W_k over Q, computed upwards from
    k = 0 until it reaches 0.
    """

    def __init__(self, f: Polynomial, functionals: Sequence[Functional]):
        self.f = f
        self.functionals = tuple(functionals)
        self.tau = len(self.functionals)
        self._defects: list[int] = []

    @classmethod
    def of(cls, f: Polynomial, points: Sequence[SingularPoint]) -> Optional[TjurinaDual]:
        terms, functionals = integer_scaled(f), []
        for pt in points:
            local = point_functionals(terms, pt.location.coords, pt.multiplicity)
            if not local:
                return None
            functionals += local
        dual = cls(f, functionals)
        return dual if dual.kills_jacobian() else None

    def kills_jacobian(self) -> bool:
        """True iff every functional kills h f_w for every 2-jet multiplier h.

        The 2-jet of a f_w depends only on the 2-jets of a and f_w, so this
        one exact check covers J_k in every degree k.
        """
        partials = _integer_partials(self.f)
        jets: dict[tuple[int, int, int], list[dict]] = {}
        for fn in self.functionals:
            if fn.point not in jets:
                jets[fn.point] = [_jet(fw, fn.point, 2) for fw in partials]
            for jet in jets[fn.point]:
                for alpha, beta in _JET2:
                    value = sum(
                        w * jet.get((a - alpha, b - beta), 0)
                        for (a, b), w in fn.weights
                        if a >= alpha and b >= beta
                    )
                    if value != 0:
                        return False
        return True

    def matrix(self, k: int, p: Optional[int] = None) -> np.ndarray:
        """W_k: row r is functional r on monomial_basis(k); residues mod p,
        or exact Python ints when p is None (entries grow like coord^k)."""
        basis = np.array(monomial_basis(k), dtype=np.int64).reshape(-1, 3)
        out = np.zeros((self.tau, len(basis)), dtype=np.int64 if p else object)
        e = np.arange(k + 1)
        binoms = [np.ones(k + 1, dtype=np.int64), e, e * (e - 1) // 2]  # C(e, 0..2)
        powers: dict[int, np.ndarray] = {}

        def pw(c: int) -> np.ndarray:
            """c^e for e = 0..k, mod p when p is given."""
            if c not in powers:
                vals = [pow(c, n, p) if p else c ** n for n in range(k + 1)]
                powers[c] = np.array(vals, dtype=np.int64 if p else object)
            return powers[c]

        def times(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            return u * v % p if p else u * v

        for row, fn in enumerate(self.functionals):
            l, i, j = _chart(fn.point)
            base = pw(fn.point[l])[basis[:, l]]
            for (a, b), w in fn.weights:
                col = times(base, binoms[a][basis[:, i]])
                col = times(col, pw(fn.point[i])[np.maximum(basis[:, i] - a, 0)])
                col = times(col, binoms[b][basis[:, j]])
                col = times(col, pw(fn.point[j])[np.maximum(basis[:, j] - b, 0)])
                out[row] += times(col, w % p if p else w)
            if p:
                out[row] %= p
        return out

    def rank(self, k: int) -> int:
        """Exact rank of W_k: the rank mod a prime when it is already
        min(tau, dim S_k), else the certified `linalg.rank`."""
        full = min(self.tau, s_dim(k))
        if full == 0 or _rank_mod_p(self.matrix(k, PRIMES[0]), PRIMES[0]) == full:
            return full
        exact = self.matrix(k)
        return rank(ExactMatrix(exact.astype(int_dtype(exact.flat))))

    def defect(self, k: int) -> int:
        """def_k = tau - rank W_k for k >= 0."""
        while len(self._defects) <= k and (not self._defects or self._defects[-1]):
            self._defects.append(self.tau - self.rank(len(self._defects)))
        return self._defects[k] if k < len(self._defects) else 0
