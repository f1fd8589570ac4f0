"""Local duality at the singular points of a line arrangement.

At a singular point p the Jacobian ideal J = (f_x, f_y, f_z) cuts out the
local Tjurina algebra T_p, and its dual is spanned by a few Taylor
coefficients.  Take the chart (s, t) -> p + s e_i + t e_j of P^2, with e_i,
e_j the unit vectors of two coordinates and p_l != 0 in the third (so
det(p, e_i, e_j) != 0), and let c_ab(g) be the coefficient of s^a t^b in
g(p + s e_i + t e_j).

Everything local is read off the line factors of f = L_1 ... L_N, never off
the expanded product.  In the chart a line is the affine form
L(p) + L(e_i) s + L(e_j) t: only the lines through p vanish at p, and every
other factor is a unit there.

* A node (A1) has T_p = C, dual to c_00.
* An ordinary triple point (D4) has T_p = O_p / (m^3 + the quadratic parts
  of the chart derivatives of the cubic part g of f), dual to c_00, c_10,
  c_01 and sum lambda_ab c_ab over a + b = 2, with lambda orthogonal to both
  quadratic parts.  g is a unit times the product of the three lines through
  p, and lambda is quadratic in g, so the primitive lambda is read off that
  product alone.

A functional of order <= 2 kills J_k for every k iff it kills the 2-jets of
h f_w for h in {1, s, t, s^2, st, t^2} and w in {x, y, z}; `TjurinaDual.of`
checks that once, exactly, with the 2-jets of the partials taken from the
factors.  W_k is the tau x dim S_k matrix of the functionals on the monomials
of degree k, and def_k = tau - rank W_k, the failure of the points to impose
independent conditions on degree-k forms.  The span of the functionals at p
is closed under multiplication by forms, and a linear form missing every
point acts invertibly on it, so def_k never increases: once it is 0 it stays
0.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .gradedmaps import integer_scaled, jacobian_matrix, s_dim
from .linalg import PRIMES, ExactMatrix, _rank_mod_p, int_dtype, rank
from .polynomials import Polynomial, monomial_basis

Line = tuple[int, int, int]

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


def _chart_forms(lines: Sequence[Line], point) -> list[Line]:
    """(L(p), L(e_i), L(e_j)) for each line L: L(p + s e_i + t e_j) in the chart."""
    _, i, j = _chart(point)
    return [(sum(c * x for c, x in zip(line, point)), line[i], line[j]) for line in lines]


def _partial_jets(lines: Sequence[Line], point) -> list[dict[tuple[int, int], int]]:
    """The coefficients c_ab, a + b <= 2, of f_x, f_y and f_z for f the
    product of the lines: f_w is the coefficient of e in the product of the
    L(p + s e_i + t e_j + e e_w), with e^2 = 0.

    A jet maps (a, b, w) to a coefficient, w = 3 for the e-free part.  The
    lines through p go first, so that truncating at order 2 keeps it short.
    """
    forms = _chart_forms(lines, point)
    jet = {(0, 0, 3): 1}
    for n in sorted(range(len(lines)), key=lambda n: forms[n][0] != 0):
        steps = [(da, db, c) for (da, db), c in zip(((0, 0), (1, 0), (0, 1)), forms[n]) if c]
        nxt: dict[tuple[int, int, int], int] = {}
        for (a, b, w), v in jet.items():
            for da, db, c in steps:
                if a + b + da + db <= 2:
                    key = (a + da, b + db, w)
                    nxt[key] = nxt.get(key, 0) + v * c
            if w == 3:
                for ww, c in enumerate(lines[n]):
                    if c:
                        nxt[(a, b, ww)] = nxt.get((a, b, ww), 0) + v * c
        jet = nxt
    return [{(a, b): v for (a, b, w), v in jet.items() if w == ww} for ww in range(3)]


def point_functionals(lines: Sequence[Line], point: tuple[int, int, int]) -> list[Functional]:
    """The dual basis of T_p at a node (1 functional) or a triple point (4)
    of the product of the lines.

    Empty when p lies on neither two nor three of the lines, or when the
    two quadrics of a triple point are proportional (it is not ordinary);
    `TjurinaDual.of` then gives up on the curve.
    """
    through = [(a, b) for c, a, b in _chart_forms(lines, point) if c == 0]
    if len(through) == 2:
        return [Functional(point, (((0, 0), 1),))]
    if len(through) != 3:
        return []
    g = [1]  # coefficients of s^3, s^2 t, s t^2, t^3 in the product of the lines through p
    for a, b in through:
        g = [u * a + v * b for u, v in zip(g + [0], [0] + g)]
    # quadratic parts of d/ds and d/dt of the cubic part, on s^2, st, t^2
    q_s = (3 * g[0], 2 * g[1], g[2])
    q_t = (g[1], 2 * g[2], 3 * g[3])
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
    """The tau functionals of the singular points of f, the product of
    `lines`, and the ranks of W_k.

    Built by `of`, which returns None unless every functional passes the
    local check.  `defect(k)` is tau - rank W_k over Q, computed upwards from
    k = 0 until it reaches 0.  `certified` lists ("W", k, certificate) for
    every rank of W_k: "full" (full rank mod p), "jacobian bound" or "exact".
    """

    def __init__(self, f: Polynomial, lines: Sequence[Line], functionals: Sequence[Functional]):
        self.f = f
        self.lines = tuple(lines)
        self.functionals = tuple(functionals)
        self.tau = len(self.functionals)
        self._defects: list[int] = []
        self._kills: Optional[bool] = None
        self.certified: list[tuple[str, int, str]] = []

    @classmethod
    def of(
        cls, f: Polynomial, lines: Sequence[Polynomial], points: Sequence[tuple[int, int, int]]
    ) -> Optional[TjurinaDual]:
        """The dual at points, for f the product of the linear forms lines."""
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        vectors = [tuple(integer_scaled(line).get(e, 0) for e in units) for line in lines]
        functionals = []
        for point in points:
            local = point_functionals(vectors, point)
            if not local:
                return None
            functionals += local
        dual = cls(f, vectors, functionals)
        return dual if dual.kills_jacobian() else None

    def kills_jacobian(self) -> bool:
        """True iff every functional kills h f_w for every 2-jet multiplier h.

        The 2-jet of a f_w depends only on the 2-jets of a and f_w, so this
        one exact check covers J_k in every degree k.  The jets are those of
        the product of the lines, a nonzero multiple of f, which leaves every
        verdict unchanged.
        """
        if self._kills is None:
            self._kills = self._check()
        return self._kills

    def _check(self) -> bool:
        jets: dict[tuple[int, int, int], list[dict]] = {}
        for fn in self.functionals:
            if fn.point not in jets:
                jets[fn.point] = _partial_jets(self.lines, fn.point)
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
        """Exact rank of W_k.

        The rank mod a prime never exceeds the rank over Q, so it is exact
        when it reaches min(tau, dim S_k).  After the local check J_k lies in
        the kernel of W_k, so rank W_k <= dim S_k - rank_Q J_k <= dim S_k -
        rank_p J_k, and a rank mod p equal to that bound is exact too.
        Otherwise the certified `linalg.rank` answers.
        """
        full = min(self.tau, s_dim(k))
        p = PRIMES[0]
        found = _rank_mod_p(self.matrix(k, p), p) if full else 0
        m = k - self.f.degree() + 1
        if found == full:
            certificate = "full"
        elif (
            m >= 0
            and self.kills_jacobian()
            and found == s_dim(k) - _rank_mod_p(jacobian_matrix(self.f, m).array, p)
        ):
            certificate = "jacobian bound"
        else:
            exact = self.matrix(k)
            found, certificate = rank(ExactMatrix(exact.astype(int_dtype(exact.flat)))), "exact"
        self.certified.append(("W", k, certificate))
        return found

    def defect(self, k: int) -> int:
        """def_k = tau - rank W_k for k >= 0."""
        while len(self._defects) <= k and (not self._defects or self._defects[-1]):
            self._defects.append(self.tau - self.rank(len(self._defects)))
        return self._defects[k] if k < len(self._defects) else 0
