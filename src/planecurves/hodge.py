"""Hodge-theoretic dimensions of the curve complement U = P^2 \\ C.

Everything here is closed-form in the singularity census plus two computed
algebraic numbers (dim M(f)_{2N-3} and dim ER(f)_{N-2}); the pole order
filtration is never materialized, only the equality flag F^2 = P^2.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .geometry import Check, GeometryError, SingularityProfile
from .koszul import er_dim
from .milnor import Strand, milnor_dim, tau
from .polynomials import Polynomial

EDPolynomial = dict[tuple[int, int], int]


def ed_poly_str(poly: EDPolynomial) -> str:
    parts = []
    for (p, q) in sorted(poly, key=lambda pq: (-pq[0] - pq[1], -pq[0])):
        c = poly[(p, q)]
        if c == 0:
            continue
        mono = "".join(
            s for s, e in (("u", p), ("v", q)) for s in ([f"{s}^{e}"] if e > 1 else [s] * e)
        )
        body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
        parts.append(("- " if c < 0 else ("+ " if parts else "")) + body)
    return " ".join(parts) if parts else "0"


def hodge_filtration_dims(profile: SingularityProfile) -> tuple[int, int]:
    """(dim Gr^1_F H^2(U), dim Gr^2_F H^2(U))."""
    N = profile.N
    gr1 = profile.sum_genus
    gr2 = (N - 1) * (N - 2) // 2 - profile.t
    return gr1, gr2


class HodgeReport(NamedTuple):
    gr1: int
    gr2: int
    h21: int
    h12: int
    h22: int
    b2: int
    pure_type_22: bool
    ed_polynomial: EDPolynomial

    def to_json(self) -> dict:
        return {
            "gr1": self.gr1,
            "gr2": self.gr2,
            "h21": self.h21,
            "h12": self.h12,
            "h22": self.h22,
            "b2": self.b2,
            "pure_type_22": self.pure_type_22,
            "ed_polynomial": [
                {"p": p, "q": q, "coeff": c}
                for (p, q), c in sorted(self.ed_polynomial.items())
                if c != 0
            ],
        }


def hodge_deligne_U(profile: SingularityProfile) -> EDPolynomial:
    """Hodge-Deligne polynomial of the complement, P(U) = P(P^2) - P(C).

    P(C) is assembled additively from the normalized components minus the
    Bezout-corrected pairwise intersections plus the three-fold points.
    """
    out: EDPolynomial = {(2, 2): 1, (1, 1): 1, (0, 0): 1}

    def sub(p: int, q: int, c: int) -> None:
        out[(p, q)] = out.get((p, q), 0) - c

    for comp in profile.components:
        sub(1, 1, 1)
        sub(1, 0, -comp.genus)
        sub(0, 1, -comp.genus)
        sub(0, 0, 1 - comp.nodes - 2 * comp.triples)
    degs = [c.degree for c in profile.components]
    pairwise = sum(a * b for a, b in combinations(degs, 2))
    sub(0, 0, -(pairwise - profile.s))
    sub(0, 0, profile.t_prime)
    return {k: v for k, v in out.items() if v != 0}


def mixed_hodge_numbers(profile: SingularityProfile) -> HodgeReport:
    """Mixed Hodge numbers of H^2(U) and b_2(U) from the census."""
    gr1, gr2 = hodge_filtration_dims(profile)
    N = profile.N
    g_sum = profile.sum_genus
    h22 = (N - 1) * (N - 2) // 2 - g_sum - profile.t
    if h22 < 0:
        raise GeometryError(f"h^(2,2) = {h22} < 0: inconsistent profile")
    b2 = (N - 1) * (N - 2) // 2 + g_sum - profile.t
    return HodgeReport(
        gr1=gr1,
        gr2=gr2,
        h21=g_sum,
        h12=g_sum,
        h22=h22,
        b2=b2,
        pure_type_22=(g_sum == 0),
        ed_polynomial=hodge_deligne_U(profile),
    )


class BoundCheck(NamedTuple):
    lower: int
    value: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower <= self.value <= self.upper

    @property
    def verdict(self) -> str:
        if not self.holds:
            return "VIOLATED"
        return "tight" if self.value == self.upper else "strict"

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "value": self.value,
            "upper": self.upper,
            "verdict": self.verdict,
        }


class Theorem2Report(NamedTuple):
    """Both bound statements, the F^2 = P^2 flag, and the audit identities."""

    part_a: BoundCheck
    part_b: BoundCheck
    f2_equals_p2: bool
    identities: tuple[Check, ...]

    @property
    def bounds_ok(self) -> bool:
        return self.part_a.holds and self.part_b.holds

    def to_json(self) -> dict:
        return {
            "part_a": self.part_a.to_json(),
            "part_b": self.part_b.to_json(),
            "f2_equals_p2": self.f2_equals_p2,
            "bounds_ok": self.bounds_ok,
            "identities": [i.to_json() for i in self.identities],
        }


def theorem2_report(f: Polynomial | Strand, profile: SingularityProfile) -> Theorem2Report:
    """Bounds on dim M(f)_{2N-3} - tau and dim ER(f)_{N-2}, with audits."""
    strand = Strand.of(f)
    N = strand.N
    r = profile.r
    t = profile.t
    g_sum = profile.sum_genus
    g = (N - 1) * (N - 2) // 2
    tau_c = tau(strand)
    m_2n3 = milnor_dim(strand, 2 * N - 3)
    er_n2 = er_dim(strand, N - 2)

    part_a = BoundCheck(lower=0, value=m_2n3 - tau_c, upper=g_sum)
    part_b = BoundCheck(lower=max(r - 1 + t - g_sum, r - 1), value=er_n2, upper=r - 1 + t)

    b2_census = g + g_sum - t
    identities = [
        Check("dim ER(f)_{N-2} == dim M(f)_{2N-3} - (N-1)(N-2)/2", er_n2, m_2n3 - g),
        Check("b2 census == 2g - tau + r - 1", b2_census, 2 * g - tau_c + r - 1),
    ]
    if t == 0:
        identities.append(
            Check("nodal: dim M(f)_{2N-3} == n + sum g_j", m_2n3, profile.n + g_sum)
        )
    return Theorem2Report(
        part_a=part_a,
        part_b=part_b,
        f2_equals_p2=(part_a.value == part_a.upper),
        identities=tuple(identities),
    )
