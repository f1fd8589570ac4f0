"""Local duality at the singular points of an arrangement: the certified
stable ranks (step A) and the Hilbert function read off the defects (step B)."""

import functools
import json
import operator
import random

import pytest

from planecurves import Strand, analyze_arrangement, hilbert_series, milnor_dim, parse_polynomial
from planecurves import milnor, tjurina
from planecurves.cli import main
from planecurves.tjurina import Functional, TjurinaDual
from tests.conftest import CORPUS, load_corpus_curve, random_arrangement

# x y (x+y) (x+2z) (y+3z): one triple point at (0, 0, 1) and seven nodes
TRIPLE = ["x", "y", "x+y", "x+2z", "y+3z"]


def arrangement(texts):
    lines = [parse_polynomial(t) for t in texts]
    return functools.reduce(operator.mul, lines), analyze_arrangement(lines)


def derived_strand(f, profile):
    strand = Strand(f, points=profile.points)
    assert strand.dual is not None and strand.derived()
    return strand


@pytest.fixture(scope="module")
def eight_lines():
    """(lines, f, profile) of one 8-line arrangement of the test generator."""
    lines, profile = random_arrangement(random.Random(8), 8)
    return lines, functools.reduce(operator.mul, lines), profile


class TestDerivedSeries:
    def test_equals_direct_on_every_arrangement(self, sweep, eight_lines):
        cases = [(strand.f, profile) for strand, profile, _ in sweep if profile.points]
        cases.append(eight_lines[1:])
        assert len(cases) > 50
        for f, profile in cases:
            derived, direct = derived_strand(f, profile), Strand(f)
            N = f.degree()
            got = [milnor_dim(derived, k) for k in range(3 * N - 2)]
            assert got == [milnor_dim(direct, k) for k in range(3 * N - 2)], str(f)
            assert derived.dual.tau == profile.tau_expected

    def test_pappus_defects_tell_the_curves_apart(self):
        # dim M(f)_12 = dim M(f_s)_12 + def_9, and the two series differ by t^12
        defects = []
        for name in ("pappus_a1", "pappus_a2"):
            curve, profile = load_corpus_curve(CORPUS / f"{name}.curve")
            defects.append(TjurinaDual.of(curve.f, profile.points).defect(9))
        assert defects == [1, 0]

    def test_defects_never_increase(self, eight_lines):
        dual = derived_strand(*eight_lines[1:]).dual
        defects = [dual.defect(k) for k in range(3 * 8 - 5)]
        assert defects[0] == dual.tau - 1
        assert all(a >= b for a, b in zip(defects, defects[1:])) and defects[-1] == 0


class TestHonestFallback:
    def test_corrupted_functional_fails_local_check(self, monkeypatch):
        f, profile = arrangement(TRIPLE)
        dual = TjurinaDual.of(f, profile.points)
        assert dual is not None and dual.kills_jacobian() and dual.tau == 11
        quad = next(i for i, fn in enumerate(dual.functionals) if len(fn.weights) > 1)
        fn = dual.functionals[quad]
        bent = fn._replace(weights=((fn.weights[0][0], fn.weights[0][1] + 1),) + fn.weights[1:])
        corrupted = list(dual.functionals)
        corrupted[quad] = bent
        assert not TjurinaDual(f, corrupted).kills_jacobian()

        original = tjurina.point_functionals

        def corrupting(terms, point, multiplicity):
            local = original(terms, point, multiplicity)
            return [bent if g == fn else g for g in local]

        monkeypatch.setattr(tjurina, "point_functionals", corrupting)
        strand = Strand(f, points=profile.points)
        assert strand.dual is None and not strand.derived()
        assert hilbert_series(strand) == hilbert_series(Strand(f))

    def test_node_functional_off_the_curve_fails(self):
        f, _ = arrangement(TRIPLE)
        off = Functional((1, 1, 1), (((0, 0), 1),))
        assert not TjurinaDual(f, [off]).kills_jacobian()

    def test_missing_point_fails_step_a(self):
        # Every listed functional still kills J, but they count 10 < tau = 11,
        # so the stable Jacobian ranks are not certified and every degree
        # takes the direct path.
        f, profile = arrangement(TRIPLE)
        points = [p for p in profile.points if p.multiplicity == 2][1:]
        points += [p for p in profile.points if p.multiplicity == 3]
        strand = Strand(f, points=points)
        assert strand.dual is not None and strand.dual.tau == 10
        assert not strand.derived()
        assert hilbert_series(strand) == hilbert_series(Strand(f))
        assert hilbert_series(strand).stable_value == 11

    def test_modular_strand_keeps_the_direct_path(self):
        f, profile = arrangement(TRIPLE)
        assert Strand(f, (1060937,), points=profile.points).dual is None


def test_eight_line_hilbert_builds_only_stable_jacobians(tmp_path, monkeypatch, capsys, eight_lines):
    lines, _, profile = eight_lines
    built = []
    build = milnor.jacobian_matrix

    def logged(g, m):
        built.append(m)
        return build(g, m)

    monkeypatch.setattr(milnor, "jacobian_matrix", logged)
    spec = tmp_path / "eight.curve"
    spec.write_text(json.dumps({"factors": [str(line) for line in lines]}))
    assert main(["hilbert", str(spec), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tau"] == profile.tau_expected
    # m = 2N-4..2N-2 for N = 8: the three stable degrees of step A
    assert sorted(built) == [12, 13, 14]
