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

An ordinary m-fold point is quasi-homogeneous with tau_p = (m-1)^2, and
J contains every term of order > D = 2m - 4, the socle degree of the Milnor
algebra of its tangent cone.  So the dual of T_p is Macaulay's inverse
system of J at p (Iarrobino-Kanev 1999): the functionals sum lambda_ab c_ab
over a + b <= D with lambda(h f_w) = 0 for every h = s^alpha t^beta,
alpha + beta <= D, and w in {x, y, z}.  `point_functionals` takes that
kernel exactly, with the D-jets of the partials taken from the factors, as
the basis read off the RREF over Q (`linalg.rref_kernel`).  Its
dimension is that of O_p / (J + m^(D+1)), at most tau_p, and it is kept only
when it reaches (m-1)^2: then m^(D+1) lies in J, the functionals span the
whole dual and they kill J_k in every degree k.  A node gives c_00, a triple
point c_00, c_10, c_01 and one quadric in c_20, c_11, c_02.

W_k is the tau x dim S_k matrix of the functionals on the monomials
of degree k, and def_k = tau - rank W_k, the failure of the points to impose
independent conditions on degree-k forms.  The Strand ranks W_k and scans
the defects (`milnor.Strand.defect`); this module builds W_k, one way, as
lists of Python ints (`TjurinaDual.rows`: residues mod p, or exact entries).
It eliminates nothing itself: the local kernels are `linalg.rref_kernel`.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional, Sequence

from .gradedmaps import integer_scaled
from .linalg import rref_kernel
from .polynomials import Polynomial, monomial_basis

Line = tuple[int, int, int]

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


def _partial_jets(lines: Sequence[Line], point, order: int) -> list[dict[tuple[int, int], int]]:
    """The coefficients c_ab, a + b <= order, of f_x, f_y and f_z for f the
    product of the lines: f_w is the coefficient of e in the product of the
    L(p + s e_i + t e_j + e e_w), with e^2 = 0.

    A jet maps (a, b, w) to a coefficient, w = 3 for the e-free part.  The
    lines through p go first, so that truncating at the order keeps it short.
    """
    forms = _chart_forms(lines, point)
    jet = {(0, 0, 3): 1}
    for n in sorted(range(len(lines)), key=lambda n: forms[n][0] != 0):
        steps = [(da, db, c) for (da, db), c in zip(((0, 0), (1, 0), (0, 1)), forms[n]) if c]
        nxt: dict[tuple[int, int, int], int] = {}
        for (a, b, w), v in jet.items():
            for da, db, c in steps:
                if a + b + da + db <= order:
                    key = (a + da, b + db, w)
                    nxt[key] = nxt.get(key, 0) + v * c
            if w == 3:
                for ww, c in enumerate(lines[n]):
                    if c:
                        nxt[(a, b, ww)] = nxt.get((a, b, ww), 0) + v * c
        jet = nxt
    return [{(a, b): v for (a, b, w), v in jet.items() if w == ww} for ww in range(3)]


def point_functionals(lines: Sequence[Line], point: tuple[int, int, int]) -> list[Functional]:
    """The dual basis of T_p at an ordinary m-fold point p of the product of
    the lines: (m-1)^2 functionals of order <= D = 2m - 4, the kernel of the
    conditions lambda(h f_w) = 0 read off their RREF (`linalg.rref_kernel`),
    one per free column, with coprime integer weights.

    Empty when p lies on fewer than two of the lines or the kernel has any
    other dimension; `TjurinaDual.of` then gives up on the curve.
    """
    m = sum(1 for c, _, _ in _chart_forms(lines, point) if c == 0)
    if m < 2:
        return []
    order = 2 * m - 4
    monos = [(a, d - a) for d in range(order + 1) for a in range(d, -1, -1)]
    # c_ab(h f_w) = c_(a - alpha, b - beta)(f_w) for h = s^alpha t^beta
    rows = [
        [jet.get((a - alpha, b - beta), 0) for a, b in monos]
        for jet in _partial_jets(lines, point, order)
        for alpha, beta in monos
    ]
    kernel = rref_kernel(rows, len(monos))
    if len(kernel.free) != (m - 1) ** 2:
        return []
    return [Functional(point, tuple((ab, w) for ab, w in zip(monos, vec) if w)) for vec in kernel.vectors()]


class TjurinaDual:
    """The tau functionals of the singular points of the product of `lines`,
    and the builder of W_k.

    Built by `of`, which returns None unless every point gets its whole
    local dual.  The ranks of W_k are the Strand's (`milnor.Strand.w_rank`).
    """

    def __init__(self, lines: Sequence[Line], functionals: Sequence[Functional]):
        self.lines = tuple(lines)
        self.functionals = tuple(functionals)
        self.tau = len(self.functionals)

    @classmethod
    def of(cls, lines: Sequence[Polynomial], points: Sequence[tuple[int, int, int]]) -> Optional[TjurinaDual]:
        """The dual at points of the product of the linear forms lines."""
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        vectors = [tuple(integer_scaled(line).get(e, 0) for e in units) for line in lines]
        functionals = []
        for point in points:
            local = point_functionals(vectors, point)
            if not local:
                return None
            functionals += local
        return cls(vectors, functionals)

    def rows(self, k: int, p: Optional[int] = None) -> list[list[int]]:
        """W_k as lists of ints: row r is functional r on monomial_basis(k),
        residues mod p, or exact when p is None (entries grow like coord^k).

        A weight ((a, b), w) of a functional at p takes the value
        w C(e_i, a) p_i^(e_i - a) C(e_j, b) p_j^(e_j - b) p_l^(e_l) at x^e.
        The factors in e_i and in e_j are tabulated once per weight, so a
        monomial costs three lookups and two products per weight.
        """

        def reduce(v: int) -> int:
            return v % p if p else v

        basis = monomial_basis(k)
        top = max((max(ab) for fn in self.functionals for ab, _ in fn.weights), default=0)
        binoms = [[reduce(comb(e, a)) for e in range(k + 1)] for a in range(top + 1)]
        powers: dict[int, list[int]] = {}
        exponents: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}

        def pw(c: int) -> list[int]:
            """c^e for e = 0..k, mod p when p is given."""
            if c not in powers:
                powers[c] = [reduce(c ** n) for n in range(k + 1)]
            return powers[c]

        out = []
        for fn in self.functionals:
            chart = l, i, j = _chart(fn.point)
            if chart not in exponents:
                exponents[chart] = [(e[i], e[j], e[l]) for e in basis]
            base, pi, pj = pw(fn.point[l]), pw(fn.point[i]), pw(fn.point[j])
            row = None
            for (a, b), w in fn.weights:
                fa = [0] * a + [reduce(w * c * v) for c, v in zip(binoms[a][a:], pi)]
                fb = [0] * b + [c * v for c, v in zip(binoms[b][b:], pj)]
                if row is None:
                    row = [fa[ei] * fb[ej] * base[el] for ei, ej, el in exponents[chart]]
                else:
                    row = [v + fa[ei] * fb[ej] * base[el] for v, (ei, ej, el) in zip(row, exponents[chart])]
            out.append([v % p for v in row] if p else row)
        return out
