"""Local duality at the singular points of an arrangement: the Hilbert
function read off the defects, the local duals from the line factors, the
certified ranks of W_k, the soundness of the derived path, and the stable
Jacobian ranks as an audit of the theorem behind it."""

import functools
import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from planecurves import Strand, analyze_arrangement, hilbert_series, milnor_dim, parse_polynomial, tau
from planecurves import linalg, milnor, tjurina
from planecurves.cli import main
from planecurves.gradedmaps import _integer_partials, integer_scaled, s_dim
from planecurves.linalg import PRIMES, _rank_mod_p, echelon, np, rref_fraction
from planecurves.milnor import jacobian_rank
from planecurves.polynomials import monomial_basis
from planecurves.tjurina import Functional, TjurinaDual
from tests.conftest import CORPUS, _cross, hilbert_lines_family, line_poly, load_corpus_curve, random_arrangement

# x y (x+y) (x+2z) (y+3z): one triple point at (0, 0, 1) and seven nodes
TRIPLE = ["x", "y", "x+y", "x+2z", "y+3z"]


def arrangement(texts):
    lines = [parse_polynomial(t) for t in texts]
    return lines, functools.reduce(operator.mul, lines)


def derived_strand(lines):
    strand = Strand(lines)
    assert strand.dual is not None and strand.derived()
    return strand


def coords(profile):
    return [p.location.coords for p in profile.points]


@pytest.fixture(scope="module")
def eight_lines():
    """(lines, f, profile) of one 8-line arrangement of the test generator."""
    lines, profile = random_arrangement(random.Random(8), 8)
    return lines, functools.reduce(operator.mul, lines), profile


class TestDerivedSeries:
    def test_equals_direct_on_every_arrangement(self, sweep_arrangements, eight_lines):
        cases = sweep_arrangements + [eight_lines]
        assert len(cases) > 50
        for lines, f, profile in cases:
            derived, direct = derived_strand(lines), Strand(f)
            N = f.degree()
            got = [milnor_dim(derived, k) for k in range(3 * N - 2)]
            assert got == [milnor_dim(direct, k) for k in range(3 * N - 2)], str(f)
            assert derived.dual.tau == profile.tau_expected

    def test_pappus_defects_tell_the_curves_apart(self):
        # dim M(f)_12 = dim M(f_s)_12 + def_9, and the two series differ by t^12
        defects = []
        for name in ("pappus_a1", "pappus_a2"):
            curve, _ = load_corpus_curve(CORPUS / f"{name}.curve")
            defects.append(Strand(curve.factor_polys).defect(9))
        assert defects == [1, 0]

    def test_defects_never_increase(self, eight_lines):
        strand = derived_strand(eight_lines[0])
        defects = [strand.defect(k) for k in range(3 * 8 - 5)]
        assert defects[0] == strand.dual.tau - 1
        assert all(a >= b for a, b in zip(defects, defects[1:])) and defects[-1] == 0


def test_stable_jacobian_ranks_audit(sweep):
    """The theorem the derived path rests on, checked directly: on every
    arrangement the Jacobian rank mod p at k = 3N-5..3N-3 is dim S_k - tau."""
    arrangements = [(strand, profile, N) for strand, profile, N in sweep if profile.points]
    assert len(arrangements) > 50
    for strand, profile, N in arrangements:
        for k in range(3 * N - 5, 3 * N - 2):
            assert jacobian_rank(strand, k - N + 1) == s_dim(k) - profile.tau_expected, str(strand.f)


# The local duals as they were built before the inverse system: expand f
# at every point, c_00 at a node, and at a triple point c_00, c_10, c_01 and
# the quadric lambda orthogonal to the quadratic parts of the chart
# derivatives of the cubic part.
def expanded_jet(g, point, order):
    l, i, j = tjurina._chart(point)
    out = {}
    for mono, coeff in g.items():
        base = coeff * point[l] ** mono[l]
        for a in range(min(order, mono[i]) + 1):
            along_i = base * comb(mono[i], a) * point[i] ** (mono[i] - a)
            for b in range(min(order - a, mono[j]) + 1):
                term = along_i * comb(mono[j], b) * point[j] ** (mono[j] - b)
                out[(a, b)] = out.get((a, b), 0) + term
    return out


def expanded_functionals(f, point, multiplicity):
    if multiplicity == 2:
        return [Functional(point, (((0, 0), 1),))]
    cubic = expanded_jet(integer_scaled(f), point, 3)
    g = [cubic.get(ab, 0) for ab in ((3, 0), (2, 1), (1, 2), (0, 3))]
    q_s, q_t = (3 * g[0], 2 * g[1], g[2]), (g[1], 2 * g[2], 3 * g[3])
    lam = (
        q_s[1] * q_t[2] - q_s[2] * q_t[1],
        q_s[2] * q_t[0] - q_s[0] * q_t[2],
        q_s[0] * q_t[1] - q_s[1] * q_t[0],
    )
    quad = tuple((ab, v // gcd(*lam)) for ab, v in zip(((2, 0), (1, 1), (0, 2)), lam) if v)
    return [Functional(point, ((ab, 1),)) for ab in ((0, 0), (1, 0), (0, 1))] + [
        Functional(point, quad)
    ]


# The multipliers h of an order-2 check: 1, s, t, s^2, st, t^2.
JET2 = [(a, b) for a in range(3) for b in range(3 - a)]


def expanded_kills(f, functionals):
    """True iff every functional, of order <= 2, kills h f_w for each
    h in JET2, with the partials of the expanded f."""
    partials = _integer_partials(f)
    for fn in functionals:
        for jet in (expanded_jet(fw, fn.point, 2) for fw in partials):
            for alpha, beta in JET2:
                value = sum(
                    w * jet.get((a - alpha, b - beta), 0)
                    for (a, b), w in fn.weights
                    if a >= alpha and b >= beta
                )
                if value:
                    return False
    return True


def span_dim(functionals):
    """Dimension of the span of functionals at one point, on c_ab for a + b <= 4."""
    monos = [(a, b) for a in range(5) for b in range(5 - a)]
    rows = [[dict(fn.weights).get(ab, 0) for ab in monos] for fn in functionals]
    return len(rref_fraction(rows, len(monos))[1])


def test_local_check_from_factors_matches_the_expansion(sweep_arrangements, eight_lines):
    """At every point the kernel from the factors' jets spans the dual that
    the expansion's lambda formula gives, and kills the expanded J."""
    for lines, f, profile in sweep_arrangements + [eight_lines]:
        dual = TjurinaDual.of(lines, coords(profile))
        assert dual is not None, str(f)
        assert expanded_kills(f, dual.functionals), str(f)
        for p in profile.points:
            got = [fn for fn in dual.functionals if fn.point == p.location.coords]
            expected = expanded_functionals(f, p.location.coords, p.multiplicity)
            assert expanded_kills(f, expected)
            assert len(got) == span_dim(got) == span_dim(expected) == span_dim(got + expected), (str(f), p)
            # c_10 + c_01 kills J at a triple point, not at a node
            probe = [Functional(p.location.coords, (((1, 0), 1), ((0, 1), 1)))]
            in_span = span_dim(got + probe) == len(got)
            assert in_span == expanded_kills(f, probe) == (p.multiplicity == 3), (str(f), p)


# B3, the reflection arrangement xyz(x+-y)(x+-z)(y+-z): three 4-fold points,
# four triple points and six nodes, tau = 3 * 9 + 4 * 4 + 6 = 49.
B3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]


def b3_points():
    """The singular points of B3, primitive, first nonzero coordinate positive."""
    points = {}
    for u, v in itertools.combinations(B3, 2):
        p = _cross(u, v)
        p = tuple(c // gcd(*p) for c in p)
        points[p if next(c for c in p if c) > 0 else tuple(-c for c in p)] = None
    return list(points)


def test_every_multiplicity_gets_its_whole_dual():
    found = []
    for p in b3_points():
        m = sum(1 for line in B3 if sum(a * b for a, b in zip(line, p)) == 0)
        local = tjurina.point_functionals(B3, p)
        assert len(local) == span_dim(local) == (m - 1) ** 2, (p, m)
        assert max(a + b for fn in local for (a, b), _ in fn.weights) == 2 * m - 4
        found.append(m)
    assert sorted(found) == [2] * 6 + [3] * 4 + [4] * 3


def test_point_on_fewer_than_two_lines_has_no_functionals():
    lines, _ = arrangement(TRIPLE)
    vectors = derived_strand(lines).dual.lines
    for point in ((1, 1, 1), (0, 1, 5)):  # off every line; on x = 0 only
        assert tjurina.point_functionals(vectors, point) == []
        assert TjurinaDual.of(lines, [point]) is None


# sha256 of repr(TjurinaDual.functionals), frozen when `point_functionals`
# read the kernel off `rref_fraction` with a loop of its own: the weights,
# their order and their scaling stay as they were.
FUNCTIONAL_DIGESTS = {
    "generic4": "1961201f027d2ea0ccd9d443bdc89e24c04abf82582846f04333f576a0edeefb",
    "lines6": "12278ce3ecfd37d6ba53016fd4f7a6e192f7a24613079b776a498921da0d30c0",
    "pappus_a1": "bc73f1f55656fd56ea414e974b980b99509b6eee32240094d34f933b31dd8ab8",
    "pappus_a2": "d2725fe7adfb8815660a3e003fadef5c27de122f9ee888cfde9e74be624d0b52",
    "lines7_0": "6b717f3f7b765898fd6454f37eca346d3a497e32a8d96eb3066a7b933535e5c2",
    "lines7_1": "2d4cd78c486790df5f38eafbf6ad94984fc54953736ce0a30e27417ced03c00a",
    "lines8_2": "fcdb79f6b1c3bdd13a2d94bb8f5f390f12f1546998aa235c9c48741520d3b952",
    "B3": "aba839ae20144554fdda16cf1a3004de6a92dae6147d1e61ff9140a8a4acf986",
}


def functionals_digest(functionals):
    return hashlib.sha256(repr(tuple(functionals)).encode()).hexdigest()


def test_functionals_are_frozen():
    got = {}
    for name in ("generic4", "lines6", "pappus_a1", "pappus_a2"):
        curve, profile = load_corpus_curve(CORPUS / f"{name}.curve")
        dual = TjurinaDual.of(curve.factor_polys, coords(profile))
        got[name] = functionals_digest(dual.functionals)
    for name, vectors in hilbert_lines_family().items():
        lines = [line_poly(*v) for v in vectors]
        dual = TjurinaDual.of(lines, coords(analyze_arrangement(lines)))
        got[name] = functionals_digest(dual.functionals)
    got["B3"] = functionals_digest(fn for p in b3_points() for fn in tjurina.point_functionals(B3, p))
    assert got == FUNCTIONAL_DIGESTS


@pytest.fixture
def exact_ranks(monkeypatch):
    """The row counts of the W_k matrices that take the exact rank."""
    rows = []
    original = milnor.rank
    monkeypatch.setattr(milnor, "rank", lambda m: rows.append(m.nrows) or original(m))
    return rows


def test_short_w_rank_certified_by_jacobian(exact_ranks):
    """lines6 has tau = 19 > dim S_5 - 3, so W_5 falls short of
    min(tau, dim S_5); its rank mod p equals dim S_5 - rank_p J_5 = 18,
    and that certifies it with no exact rank."""
    curve, _ = load_corpus_curve(CORPUS / "lines6.curve")
    strand = Strand(curve.factor_polys)
    p = PRIMES[0]
    assert strand.dual.tau == 19 and len(echelon(strand.dual.rows(5, p), p).pivots) == 18
    assert strand.w_rank(5) == 18
    assert [strand.defect(k) for k in range(7)] == [18, 16, 13, 9, 4, 1, 0]
    assert exact_ranks == []
    # the scan ranks W_4 (dim S_4 = 15 <= tau, injective), then W_5 and W_6
    hows = [(4, "full"), (5, "jacobian bound"), (6, "full")]
    assert strand.certified == [("W", 5, "jacobian bound")] + [("W", k, how) for k, how in hows]


def test_uncertified_short_rank_falls_back_to_exact(exact_ranks):
    """A rank mod p that meets neither min(tau, dim S_k) nor the J_k bound
    proves nothing, so the exact rank answers: paired with x^6 + y^6, whose
    J_5 has rank 2, the bound reads 19 against lines6's W_5 rank 18."""
    curve, _ = load_corpus_curve(CORPUS / "lines6.curve")
    strand = Strand(parse_polynomial("x^6+y^6"))
    strand.dual = Strand(curve.factor_polys).dual
    assert strand.w_rank(5) == 18 and exact_ranks == [19]
    assert strand.certified == [("W", 5, "exact")]


def oracle_w(dual, k):
    """W_k from the expansion: functional (point, weights) on the monomial
    x^e is sum w * c_ab(x^e), with c_ab read off `expanded_jet`."""
    order = max((a + b for fn in dual.functionals for (a, b), _ in fn.weights), default=0)
    jets = {}
    out = []
    for fn in dual.functionals:
        row = []
        for e in monomial_basis(k):
            if (fn.point, e) not in jets:
                jets[fn.point, e] = expanded_jet({e: 1}, fn.point, order)
            row.append(sum(w * jets[fn.point, e].get(ab, 0) for ab, w in fn.weights))
        out.append(row)
    return out


def test_w_entries_match_the_expansion_at_every_degree(random_arrangements):
    """rows(k, p) and rows(k) equal W_k from the expansion, mod p and
    exactly, and the plain and numpy ranks mod p of rows(k, p) agree, at
    every degree 0..3N-5: on the corpus arrangements and a seeded tenth of
    the random ones."""
    p = PRIMES[0]
    cases = []
    for name in ("generic4", "lines6", "pappus_a1", "pappus_a2"):
        curve, profile = load_corpus_curve(CORPUS / f"{name}.curve")
        cases.append((curve.factor_polys, curve.f, profile))
    for lines, profile in random.Random(23).sample(random_arrangements, 5):
        cases.append((lines, functools.reduce(operator.mul, lines), profile))
    for lines, f, profile in cases:
        dual = TjurinaDual.of(lines, coords(profile))
        for k in range(3 * f.degree() - 4):
            want, rows = oracle_w(dual, k), dual.rows(k, p)
            assert rows == [[v % p for v in row] for row in want], (str(f), k)
            assert dual.rows(k) == want, (str(f), k)
            assert len(echelon(rows, p).pivots) == _rank_mod_p(np.array(rows, dtype=np.int64), p), (str(f), k)


def test_certificates_and_series_do_not_depend_on_the_cutoff(sweep_arrangements, monkeypatch):
    """With PLAIN_CELLS = 0 every W_k goes through numpy, as before the
    plain path existed: the same series and the same certificates."""
    def outcomes():
        strands = [Strand(lines) for lines, f, _ in sweep_arrangements]
        return [(hilbert_series(s), s.certified) for s in strands]

    plain = outcomes()
    monkeypatch.setattr(linalg, "PLAIN_CELLS", 0)
    assert outcomes() == plain


def test_w_above_the_cutoff_takes_the_numpy_path(monkeypatch):
    """The 10-line draw of the test generator (tau = 49) ranks W_8
    (49 x 45 = 2205 entries, injective) and W_9 (49 x 55 = 2695); with the
    cutoff at W_8's size, W_8 goes to plain Python and W_9 to numpy."""
    cells = {"plain": [], "numpy": []}
    plain, fast = linalg.echelon, linalg._rank_mod_p

    def logged_plain(rows, p, width=None):
        cells["plain"].append(len(rows) * width)
        return plain(rows, p, width)

    def logged_numpy(a, p):
        cells["numpy"].append(a.size)
        return fast(a, p)

    monkeypatch.setattr(linalg, "echelon", logged_plain)
    monkeypatch.setattr(linalg, "_rank_mod_p", logged_numpy)
    monkeypatch.setattr(linalg, "PLAIN_CELLS", 49 * 45)
    lines, _ = random_arrangement(random.Random(10), 10)
    strand = Strand(lines)
    assert strand.defect(25) == 0 and strand.certified == [("W", 8, "full"), ("W", 9, "full")]
    assert cells == {"plain": [49 * 45], "numpy": [49 * 55]}
    assert max(cells["plain"]) <= linalg.PLAIN_CELLS < min(cells["numpy"])


# 11 lines with N(f)_10 != 0: I_10 is larger than J_10
ELEVEN = ["2x-2y+3z", "x-3y-3z", "15x-17y+18z", "3x-2y-2z", "x-y", "3x-2y+3z"]
ELEVEN += ["x-y+z", "19x-18y-9z", "2x-z", "x", "y"]


def test_short_w_rank_beyond_the_jacobian_bound_is_ranked_exactly(exact_ranks):
    """W_10 falls short of min(tau, dim S_10) = 63, and its rank mod p is
    below dim S_10 - rank_p J_10 = 63 too, so only the exact rank answers."""
    lines, f = arrangement(ELEVEN)
    strand = derived_strand(lines)
    assert exact_ranks == [63] and strand.defect(10) == 1
    assert [c for c in strand.certified if c[2] != "full"] == [("W", 10, "exact")]
    # def_10 enters dim M(f)_k at k = 3N-6-10 = 17
    assert milnor_dim(Strand(lines), 17) == milnor_dim(Strand(f), 17)


class TestScan:
    """`Strand.defect` ranks W_k from K, the largest k with dim S_k <= tau, down to
    the first injective W_k and up to the first zero defect."""

    def test_defects_equal_every_rank(self, sweep_arrangements):
        """The scan's defects equal tau - rank W_k ranked at every degree."""
        ten, profile = random_arrangement(random.Random(10), 10)
        eleven, f = arrangement(ELEVEN)
        cases = sweep_arrangements + [
            (ten, functools.reduce(operator.mul, ten), profile),
            (eleven, f, analyze_arrangement(eleven)),
        ]
        for lines, f, _ in cases:
            strand, fresh = Strand(lines), Strand(lines)
            degrees = range(3 * f.degree() - 4)
            assert [strand.defect(k) for k in degrees] == [fresh.dual.tau - fresh.w_rank(k) for k in degrees], str(f)
            assert {k for _, k, _ in strand.certified} < set(degrees)

    def test_ranked_degrees(self):
        """pappus_a1 (tau = 45 = dim S_8) ranks W_8, short of injective, then
        the injective W_7, then W_9 and W_10; lines6's degrees are pinned in
        test_short_w_rank_certified_by_jacobian."""
        curve, _ = load_corpus_curve(CORPUS / "pappus_a1.curve")
        strand = Strand(curve.factor_polys)
        assert strand.defect(3 * curve.N - 5) == 0
        hows = [(8, "jacobian bound"), (7, "full"), (9, "exact"), (10, "full")]
        assert strand.certified == [("W", k, how) for k, how in hows]

    def test_no_points_no_defects(self):
        lines, _ = arrangement(TRIPLE)
        strand = Strand(lines)
        strand.dual = TjurinaDual(strand.dual.lines, [])
        assert [strand.defect(k) for k in range(12)] == [0] * 12 and strand.certified == []

    def test_disagreeing_w_rank_raises(self):
        """Every rank of W_k goes through the Strand's one write: a wrong
        rank planted in the memo is certified otherwise and raises."""
        lines, _ = arrangement(TRIPLE)
        strand = Strand(lines)
        strand._ranks["W", 4] = Strand(lines).w_rank(4) + 1
        with pytest.raises(linalg.LinalgError, match="W at degree 4"):
            hilbert_series(strand)


class TestHonestFallback:
    def test_corrupted_jet_gives_up_on_the_curve(self, monkeypatch):
        # A jet whose kernel has the wrong dimension at some point leaves no
        # dual at all, and the Strand keeps the direct path.
        lines, f = arrangement(TRIPLE)
        assert derived_strand(lines).dual.tau == 11
        direct = hilbert_series(Strand(f))
        original = tjurina._partial_jets

        def unit_f_x(vectors, point, order):  # shrinks every kernel
            jets = original(vectors, point, order)
            jets[0][0, 0] = jets[0].get((0, 0), 0) + 1
            return jets

        def flat_triple(vectors, point, order):  # grows the kernel at the triple point
            jets = original(vectors, point, order)
            return [{}, {}, {}] if order == 2 else jets

        for corrupt in (unit_f_x, flat_triple):
            monkeypatch.setattr(tjurina, "_partial_jets", corrupt)
            assert TjurinaDual.of(lines, coords(analyze_arrangement(lines))) is None
            strand = Strand(lines)
            assert strand.census is not None and strand.dual is None and not strand.derived()
            assert hilbert_series(strand) == direct

    def test_incomplete_or_foreign_lines_never_derive(self):
        # The points come only from the Strand's own census of its factors,
        # so f as one factor, or a conic among the lines, leaves the direct
        # path.  Reordered lines are the same factors, and rational lines are
        # fine.
        lines, f = arrangement(TRIPLE)
        conic = lines[:-1] + [parse_polynomial("x^2+y^2+z^2")]
        for factors in (f, conic):
            strand = Strand(factors)
            assert strand.census is None and strand.dual is None and not strand.derived()
            hilbert_series(strand)  # ranked directly: a derived Strand certifies no J_m
            assert {name for name, *_ in strand.certified} == {"jacobian_matrix"}
        assert tau(f) == 11 == derived_strand(lines[::-1]).dual.tau
        halves = [line.scale(Fraction(1, 2)) for line in lines[:2]]
        dims = [milnor_dim(derived_strand(lines), k) for k in range(13)]
        assert [milnor_dim(derived_strand(halves + lines[2:]), k) for k in range(13)] == dims

    def test_incomplete_points_would_read_a_wrong_series(self):
        # Why the census must be complete: with one node left out the
        # functionals still kill J, but they count 10 < tau = 11.
        lines, f = arrangement(TRIPLE)
        profile = analyze_arrangement(lines)
        nodes = [p for p in profile.points if p.multiplicity == 2]
        partial = TjurinaDual.of(lines, [p.location.coords for p in profile.points if p != nodes[0]])
        assert partial is not None and expanded_kills(f, partial.functionals)
        assert partial.tau == 10 != tau(f)

    def test_modular_strand_keeps_the_direct_path(self):
        lines, f = arrangement(TRIPLE)
        strand = Strand(lines, (1060937,))
        assert strand.dual is None and strand.census is not None


def test_eight_line_hilbert_builds_no_jacobian(tmp_path, monkeypatch, capsys, eight_lines):
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
    assert built == []
