"""Arrangement analysis, singularity profiles, and profile validation."""

import random
from fractions import Fraction

import pytest

from planecurves import (
    Component,
    GeometryError,
    MultiplicityError,
    ProjectivePoint,
    SingularPoint,
    SingularityProfile,
    analyze_arrangement,
    bezout_audit,
    genus_from_counts,
    parse_polynomial,
    validate_profile,
)
from tests.conftest import line_poly, random_arrangement


def lines(*texts):
    return [parse_polynomial(t) for t in texts]


class TestProjectivePoint:
    def test_canonicalization(self):
        a = ProjectivePoint.of(Fraction(2), Fraction(-4), Fraction(6))
        b = ProjectivePoint.of(Fraction(-1), Fraction(2), Fraction(-3))
        assert a == b
        assert a.coords == (1, -2, 3)

    def test_rejects_zero(self):
        with pytest.raises(GeometryError):
            ProjectivePoint.of(Fraction(0), Fraction(0), Fraction(0))


class TestSingularPoint:
    def test_type_tags(self):
        p = ProjectivePoint.of(Fraction(1), Fraction(0), Fraction(0))
        assert SingularPoint(p, 2, frozenset({0, 1})).type_tag == "A1"
        assert SingularPoint(p, 3, frozenset({0, 1, 2})).type_tag == "D4"

    def test_rejects_higher_multiplicity(self):
        p = ProjectivePoint.of(Fraction(1), Fraction(0), Fraction(0))
        with pytest.raises(MultiplicityError):
            SingularPoint(p, 4, frozenset({0, 1, 2, 3}))


class TestAnalyzeArrangement:
    def test_four_generic_lines(self):
        profile = analyze_arrangement(lines("x", "y", "z", "x+y+z"))
        assert (profile.n, profile.t) == (6, 0)
        assert profile.r == 4

    def test_triangle(self):
        profile = analyze_arrangement(lines("x", "y", "z"))
        assert (profile.n, profile.t) == (3, 0)

    def test_concurrent_triple(self):
        profile = analyze_arrangement(lines("x", "y", "x+y"))
        assert (profile.n, profile.t) == (0, 1)
        assert profile.t_prime == 1

    def test_six_lines_from_quadric_factors(self):
        arr = lines("x-y", "x+y", "y-z", "y+z", "x-z", "x+z")
        profile = analyze_arrangement(arr)
        assert (profile.n, profile.t) == (3, 4)

    def test_rejects_four_concurrent_lines(self):
        with pytest.raises(MultiplicityError):
            analyze_arrangement(lines("x", "y", "x+y", "x-y"))

    def test_rejects_repeated_line(self):
        with pytest.raises(GeometryError):
            analyze_arrangement(lines("x", "2x"))

    def test_invariant_under_scaling_and_order(self):
        base = lines("x", "y", "z", "x+y+z")
        scaled = [p.scale(Fraction(c)) for p, c in zip(base, (2, -3, 7, -1))]
        random.Random(3).shuffle(scaled)
        a, b = analyze_arrangement(base), analyze_arrangement(scaled)
        assert (a.n, a.t) == (b.n, b.t)
        assert {p.location for p in a.points} == {p.location for p in b.points}

    def test_point_incidences(self):
        profile = analyze_arrangement(lines("x", "y", "z"))
        for point in profile.points:
            assert len(point.incident_components) == 2


class TestGenusFromCounts:
    def test_smooth_components(self):
        assert genus_from_counts(1, 0, 0) == 0
        assert genus_from_counts(3, 0, 0) == 1
        assert genus_from_counts(4, 0, 0) == 3

    def test_singular_components(self):
        assert genus_from_counts(5, 0, 1) == 3  # quintic with one triple point
        assert genus_from_counts(3, 1, 0) == 0  # nodal cubic

    def test_rejects_impossible_counts(self):
        with pytest.raises(GeometryError):
            genus_from_counts(2, 1, 0)


class TestProfileConsistency:
    def test_t_decomposition_enforced(self):
        with pytest.raises(GeometryError):
            SingularityProfile(
                components=(Component(1, 0), Component(1, 0)),
                n=1,
                t=2,
                s=0,
                t_prime=1,
            )

    def test_negative_count_rejected(self):
        with pytest.raises(GeometryError, match="n = -1 is negative"):
            SingularityProfile(components=(), n=-1, t=0, s=0, t_prime=0)

    def test_totals(self):
        profile = analyze_arrangement(lines("x", "y", "x+y", "z"))
        assert profile.N == 4
        assert profile.sum_genus == 0
        assert profile.tau_expected == profile.n + 4 * profile.t


class TestBezout:
    def test_arrangement_pair_count(self):
        profile = analyze_arrangement(lines("x", "y", "z", "x+y+z"))
        lhs, rhs = bezout_audit(profile)
        assert lhs == rhs == 6

    def test_random_arrangements(self):
        rng = random.Random(99)
        for nlines in (3, 4, 5):
            _, profile = random_arrangement(rng, nlines)
            lhs, rhs = bezout_audit(profile)
            assert lhs == rhs == nlines * (nlines - 1) // 2


class TestValidateProfile:
    def test_arrangement_passes(self):
        arr = lines("x", "y", "z", "x+y+z")
        f = arr[0] * arr[1] * arr[2] * arr[3]
        report = validate_profile(f, analyze_arrangement(arr))
        assert report.ok
        assert any("tau" in c.name for c in report.checks)

    def test_declared_profile_passes(self, curves):
        profile = SingularityProfile(
            components=(Component(3, 1), Component(3, 1), Component(3, 1)),
            n=0,
            t=9,
            s=0,
            t_prime=9,
        )
        assert validate_profile(curves["degree9"], profile).ok

    def test_wrong_node_count_fails(self, curves):
        bad = SingularityProfile(
            components=(Component(1, 0),) * 4, n=5, t=0, s=0, t_prime=0
        )
        report = validate_profile(curves["generic4"], bad)
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert any(c.lhs == 6 and c.rhs == 5 for c in failed)
