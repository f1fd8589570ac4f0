"""Singularity census: exact line-arrangement analysis, genus bookkeeping,
and consistency validation against the computed algebraic invariants.

Only ordinary double (A1) and triple (D4) points are in scope; a point on
four or more lines is rejected.  Non-linear components never get automatic
point detection: their counts are declared and arbitrated by the total
Tjurina number.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .linalg import _row_to_int
from .milnor import Strand, tau
from .polynomials import Coefficient, Polynomial


class GeometryError(ValueError):
    """Inconsistent or out-of-scope geometric data."""


class MultiplicityError(GeometryError):
    """A singular point of multiplicity >= 4 (outside the A1/D4 scope)."""


class ProjectivePoint(NamedTuple):
    """Point of P^2 with canonical integer coordinates.

    gcd of the coordinates is 1 and the first nonzero coordinate is positive,
    so equality is plain coordinate equality.
    """

    coords: tuple[int, int, int]

    @staticmethod
    def of(x, y, z) -> "ProjectivePoint":
        ints = _row_to_int([x, y, z])
        if not any(ints):
            raise GeometryError("(0,0,0) is not a projective point")
        first = next(v for v in ints if v != 0)
        if first < 0:
            ints = [-v for v in ints]
        return ProjectivePoint(coords=(ints[0], ints[1], ints[2]))


class _SingularPoint(NamedTuple):
    location: ProjectivePoint
    multiplicity: int
    incident_components: frozenset[int]


class SingularPoint(_SingularPoint):
    """A node or an ordinary triple point; any other multiplicity raises."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.multiplicity not in (2, 3):
            raise MultiplicityError(
                f"multiplicity {self.multiplicity} at {self.location.coords}: "
                f"singularity outside A1/D4 scope"
            )
        if len(self.incident_components) > self.multiplicity:
            raise GeometryError("more incident components than branches")
        return self

    @property
    def type_tag(self) -> str:
        return "A1" if self.multiplicity == 2 else "D4"


class Component(NamedTuple):
    degree: int
    genus: int
    nodes: int = 0
    triples: int = 0


class _SingularityProfile(NamedTuple):
    components: tuple[Component, ...]
    n: int
    t: int
    s: int
    t_prime: int
    points: tuple[SingularPoint, ...] = ()


class SingularityProfile(_SingularityProfile):
    """The geometric census: components, singular points, and totals.

    s counts triple points shared by exactly two components, t_prime those
    shared by three; no count is negative and t = sum of interior triples +
    s + t_prime, else GeometryError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key in ("n", "t", "s", "t_prime"):
            if getattr(self, key) < 0:
                raise GeometryError(f"{key} = {getattr(self, key)} is negative")
        interior = sum(c.triples for c in self.components)
        if self.t != interior + self.s + self.t_prime:
            raise GeometryError(
                f"t = {self.t} but interior {interior} + s {self.s} + "
                f"t' {self.t_prime} = {interior + self.s + self.t_prime}"
            )
        return self

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def N(self) -> int:
        return sum(c.degree for c in self.components)

    @property
    def sum_genus(self) -> int:
        return sum(c.genus for c in self.components)

    @property
    def tau_expected(self) -> int:
        return self.n + 4 * self.t

    def to_json(self) -> dict:
        return {
            "components": [
                {"degree": c.degree, "genus": c.genus, "nodes": c.nodes, "triples": c.triples}
                for c in self.components
            ],
            "points": [
                {
                    "coords": list(p.location.coords),
                    "multiplicity": p.multiplicity,
                    "type": p.type_tag,
                    "incident_components": sorted(p.incident_components),
                }
                for p in self.points
            ],
            "n": self.n,
            "t": self.t,
            "s": self.s,
            "t_prime": self.t_prime,
            "r": self.r,
            "N": self.N,
        }


def genus_from_counts(N_j: int, n_j: int, t_j: int) -> int:
    """Genus of a component from its degree and ordinary singularity counts."""
    g = (N_j - 1) * (N_j - 2) // 2 - n_j - 3 * t_j
    if g < 0:
        raise GeometryError(
            f"degree {N_j} with {n_j} nodes and {t_j} triples gives negative genus {g}"
        )
    return g


def _line_coeffs(p: Polynomial) -> tuple[Coefficient, Coefficient, Coefficient]:
    if p.degree() != 1 or not p.is_homogeneous():
        raise GeometryError(f"not a linear form: {p}")
    return (p.coefficient((1, 0, 0)), p.coefficient((0, 1, 0)), p.coefficient((0, 0, 1)))


def analyze_arrangement(lines: Sequence[Polynomial]) -> SingularityProfile:
    """Exact singularity census of a line arrangement.

    All pairwise intersections are 2x2 minors of the coefficient vectors;
    points are grouped by canonical coordinates and the multiplicity of a
    point is the number of lines through it.
    """
    if len(lines) < 2:
        raise GeometryError("an arrangement needs at least 2 lines")
    coeffs = [_line_coeffs(p) for p in lines]
    points: dict[ProjectivePoint, set[int]] = {}
    for i in range(len(lines)):
        ai, bi, ci = coeffs[i]
        for j in range(i + 1, len(lines)):
            aj, bj, cj = coeffs[j]
            px = bi * cj - ci * bj
            py = ci * aj - ai * cj
            pz = ai * bj - bi * aj
            if px == 0 and py == 0 and pz == 0:
                raise GeometryError(f"duplicate (proportional) lines {i} and {j}")
            pt = ProjectivePoint.of(px, py, pz)
            points.setdefault(pt, set()).update((i, j))
    sing_points = []
    for pt in sorted(points):
        incident = points[pt]
        sing_points.append(
            SingularPoint(
                location=pt,
                multiplicity=len(incident),
                incident_components=frozenset(incident),
            )
        )
    n = sum(1 for p in sing_points if p.multiplicity == 2)
    t = sum(1 for p in sing_points if p.multiplicity == 3)
    components = tuple(Component(degree=1, genus=0) for _ in lines)
    return SingularityProfile(
        components=components,
        n=n,
        t=t,
        s=0,
        t_prime=t,
        points=tuple(sing_points),
    )


def bezout_audit(profile: SingularityProfile) -> tuple[int, int]:
    """(sum over points of m(m-1)/2, r(r-1)/2) -- equal for an arrangement."""
    lhs = sum(p.multiplicity * (p.multiplicity - 1) // 2 for p in profile.points)
    r = profile.r
    return lhs, r * (r - 1) // 2


class Check(NamedTuple):
    """A named identity lhs == rhs between two integers of the report."""

    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


class ValidationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def validate_profile(f: Polynomial | Strand, profile: SingularityProfile) -> ValidationReport:
    """Cross-check declared geometry against the computed invariants.

    Failures are report entries, never exceptions.
    """
    strand = Strand.of(f)
    checks = [
        Check("tau == n + 4t", tau(strand), profile.tau_expected),
        Check("N == sum of component degrees", strand.N, profile.N),
    ]
    for j, c in enumerate(profile.components):
        pa = (c.degree - 1) * (c.degree - 2) // 2
        checks.append(
            Check(
                f"component {j}: g + n_j + 3 t_j == p_a",
                c.genus + c.nodes + 3 * c.triples,
                pa,
            )
        )
    return ValidationReport(checks=tuple(checks))
