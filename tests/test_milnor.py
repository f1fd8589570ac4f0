"""Hilbert functions of Milnor algebras: series, thresholds, tau."""

import json
import random
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planecurves import (
    NonStabilizationError,
    Strand,
    er_dim,
    hilbert_series,
    milnor_dim,
    parse_polynomial,
    smooth_reference_dim,
    syzygy_basis,
    tau,
)
from planecurves import Polynomial, cli, linalg, linalg_numpy, milnor, monomial_basis
from planecurves.cli import build_from_spec, report_json_bytes, resolve_strand
from planecurves.gradedmaps import Block, contractions, jacobian_blocks, jacobian_matrix, s_dim
from planecurves.linalg import PRIMES, LinalgError, lifted_rank, rank
from planecurves.linalg_numpy import _nonzero_entries, _rank_mod_p
from planecurves.milnor import jacobian_rank, jacobian_rank_profile
from tests.conftest import CORPUS, corpus_specs


class TestSeries:
    def test_four_generic_lines(self, curves):
        h = hilbert_series(curves["generic4"])
        assert h.dims[:5] == (1, 3, 6, 7, 6)
        assert h.stable_value == 6
        assert h.ct == 4
        assert h.st == 4
        assert h.mdr == 2

    def test_line_plus_cubic(self, curves):
        h = hilbert_series(curves["nodal4"])
        assert h.dims[:7] == (1, 3, 6, 7, 6, 4, 3)
        assert h.stable_value == 3
        assert h.ct == 4
        assert h.st == 6

    def test_smooth_quartic(self, curves):
        h = hilbert_series(curves["smooth4"])
        assert h.dims == tuple(smooth_reference_dim(4, k) for k in range(len(h.dims)))
        assert h.stable_value == 0
        assert h.ct is None and h.mdr is None
        assert h.st == 3 * 4 - 5

    def test_degree9_three_cubics(self, curves):
        h = hilbert_series(curves["degree9"], k_max=16)
        assert h.dims[15] == 38
        assert h.dims[16] == 36
        assert h.stable_value == 36
        assert h.st == 16

    def test_k_max_extension(self, curves):
        h = hilbert_series(curves["generic4"], k_max=12)
        assert len(h.dims) == 13
        assert set(h.dims[4:]) == {6}

    @pytest.mark.parametrize("name", ["nodal4", "generic4"])
    def test_fill_past_stable_range_matches_direct(self, curves, name):
        f = curves[name]
        N = f.degree()
        h = hilbert_series(f, k_max=3 * N + 2)
        strand = Strand(f)
        assert h.dims[3 * N - 2:] == tuple(milnor_dim(strand, k) for k in range(3 * N - 2, 3 * N + 3))

    def test_series_str(self, curves):
        s = hilbert_series(curves["generic4"]).series_str()
        assert s.startswith("1+3t+6t^2+7t^3")
        assert "6(t^4" in s


class TestTau:
    @pytest.mark.parametrize(
        "name,expected",
        [("generic4", 6), ("nodal4", 3), ("smooth4", 0), ("degree5", 4), ("degree9", 36)],
    )
    def test_fixtures(self, curves, name, expected):
        assert tau(curves[name]) == expected

    def test_n_plus_4t_for_arrangement(self):
        # triangle of lines: three nodes
        assert tau(parse_polynomial("xyz")) == 3
        # three concurrent lines: one ordinary triple point
        assert tau(parse_polynomial("xy(x+y)")) == 4


class TestSmoothReference:
    def test_known_values(self):
        assert [smooth_reference_dim(4, k) for k in range(8)] == [1, 3, 6, 7, 6, 3, 1, 0]

    def test_symmetry(self):
        for N in range(3, 8):
            top = 3 * N - 6
            for k in range(top + 1):
                assert smooth_reference_dim(N, k) == smooth_reference_dim(N, top - k)

    def test_vanishes_outside_range(self):
        assert smooth_reference_dim(5, -1) == 0
        assert smooth_reference_dim(5, 3 * 5 - 5) == 0

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_fermat_matches_direct_computation(self, N):
        f = parse_polynomial(f"x^{N}+y^{N}+z^{N}")
        for k in range(3 * N - 4):
            assert milnor_dim(f, k) == smooth_reference_dim(N, k)


class TestMilnorDim:
    def test_bounds(self, curves):
        f = curves["generic4"]
        for k in range(8):
            assert 0 <= milnor_dim(f, k) <= s_dim(k)

    def test_negative_degree(self, curves):
        assert milnor_dim(curves["generic4"], -1) == 0

    def test_non_reduced_curve_does_not_stabilize(self):
        with pytest.raises(NonStabilizationError):
            hilbert_series(parse_polynomial("x^2y^2"))


@pytest.fixture
def report_strands(monkeypatch):
    """The Strand of every report, as `cli.resolve_strand` builds it."""
    strands = []

    def recording(*args):
        strands.append(resolve_strand(*args))
        return strands[-1]

    monkeypatch.setattr(cli, "resolve_strand", recording)
    return strands


def computed(strand):
    """(map, degree, certificate) of every rank the Strand computed: no memo hits."""
    return [c for c in strand.certified if c[2] != "memo"]


class TestStrand:
    SPEC = CORPUS / "degree9_cubics.curve"

    def test_each_report_ranks_each_map_and_degree_once(self, report_strands):
        first = report_json_bytes(self.SPEC)
        (strand,) = report_strands
        once = computed(strand)
        # Only the jacobian ranks of the Hilbert series, m = 0..2N-2 for N = 9,
        # each certified once: the spectral table is derived from them.
        assert sorted((build, m) for build, m, _ in once) == [("jacobian_matrix", m) for m in range(17)]
        hows = Counter(how for *_, how in once)
        assert hows["lift"] <= 2 and hows["lift"] + hows["contraction"] == 17
        # The memo is freed with the report: a second one certifies the same 17 again.
        assert report_json_bytes(self.SPEC) == first
        assert computed(report_strands[1]) == once

    def test_shared_across_calls(self, curves):
        strand = Strand(curves["nodal4"])
        h = hilbert_series(strand)
        once = computed(strand)
        assert hilbert_series(strand) == h and tau(strand) == h.stable_value
        assert computed(strand) == once and once
        # the last rank a Hilbert series reads is J_{2N-2}, N = 4
        assert strand.certified[-1] == ("jacobian_matrix", 6, "memo")

    @pytest.mark.parametrize(
        "primes",
        [(1048578,), (1065023,), (2**31 + 11,), (1060937, 1060937)],
        ids=["even", "composite", "too-large", "repeated"],
    )
    def test_rejects_bad_primes(self, curves, primes):
        with pytest.raises(ValueError):
            Strand(curves["generic4"], primes)

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="at least one factor"):
            Strand(())

    def test_modular_ranks_never_answer_for_exact(self):
        # x^3+y^3+z^3-3(1+p)xyz is smooth over Q but has three nodes mod p,
        # where the Hesse parameter 1+p is a cube root of 1.
        p = 1060937
        f = parse_polynomial(f"x^3+y^3+z^3-{3 * (1 + p)}xyz")
        modular, exact = Strand(f, (p,)), Strand(f)
        assert tau(modular) == 3
        assert tau(exact) == 0 == tau(f)
        assert milnor_dim(modular, 4) == 3 and milnor_dim(exact, 4) == 0


def _random_form(rng: random.Random, d: int) -> Polynomial:
    return Polynomial({mono: Fraction(rng.randint(-3, 3)) for mono in monomial_basis(d)})


def _products_of_conics_and_cubics():
    """Random non-arrangements: products of conics and cubics, seeded."""
    rng = random.Random(2014)
    curves = []
    for degrees in [(2, 3), (2, 2, 2), (3, 3), (2, 2, 3)]:
        f = Polynomial.constant(1)
        for d in degrees:
            f = f * _random_form(rng, d)
        curves.append(f)
    return curves


SWEEP_CURVES = {
    **{path.stem: path for path in corpus_specs()},
    "quartic_lines": "(x^4-y^4)(y^4-z^4)(x^4-z^4)",
    "fourth_powers": "(x^3+y^3+z^3)^4+(x^3+2y^3+3z^3)^4",
    **{f"conics_cubics_{i}": f for i, f in enumerate(_products_of_conics_and_cubics())},
}


def sweep_curve(name):
    item = SWEEP_CURVES[name]
    if isinstance(item, Polynomial):
        return item
    if isinstance(item, str):
        return parse_polynomial(item)
    return build_from_spec(json.loads(item.read_text())).f


def swept(f):
    """A Strand of f after its sweep, and the ranks of J_m, m = 0..2N-2."""
    strand = Strand(f)
    strand.sweep()
    return strand, [jacobian_rank(strand, m) for m in range(2 * f.degree() - 1)]


def lifted_degrees(strand):
    return [m for _, m, how in strand.certified if how == "lift"]


def whole(matrix):
    """The matrix as one block."""
    return Block(list(range(matrix.shape[0])), list(range(matrix.shape[1])), matrix)


def assert_profile_is_every_rank(f):
    """The rank profile of J_{2N-2} mod p, on numpy, is rank_p J_m for every
    m, and so is the sum of the rank profiles of its blocks."""
    top, p = 2 * f.degree() - 2, PRIMES[0]
    ranks = [_rank_mod_p(jacobian_matrix(f, m).array, p) for m in range(top + 1)]
    assert jacobian_rank_profile(whole(jacobian_matrix(f, top).array), top, p)[0] == ranks
    profiles = [jacobian_rank_profile(block, top, p)[0] for block in jacobian_blocks(f, top)]
    assert [sum(column) for column in zip(*profiles)] == ranks


@st.composite
def products_of_lines_conics_and_cubics(draw):
    """Products of random forms of degree 1, 2 and 3, of total degree 3..7."""
    degrees = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=4))
    assume(3 <= sum(degrees) <= 7)
    f = Polynomial.constant(1)
    for d in degrees:
        f = f * Polynomial({mono: Fraction(draw(st.integers(-3, 3))) for mono in monomial_basis(d)})
    assume(not f.is_zero())
    return f


def sweep_factors(name):
    """The factors of a corpus curve, as the CLI gives them to its Strand,
    else the curve as one factor."""
    item = SWEEP_CURVES[name]
    if not isinstance(item, Path):
        return sweep_curve(name)
    return build_from_spec(json.loads(item.read_text())).factor_polys


class TestPlainPath:
    @pytest.mark.parametrize("name", [name for name in SWEEP_CURVES if sweep_curve(name).degree() <= 9])
    def test_matches_the_numpy_path(self, name, monkeypatch):
        """Every matrix in plain Python against every matrix on numpy
        (cutoff 0): the same series, ER rank, Strand certificates and W_k
        certificates.  The two degree-12 curves are left out: J_22 has
        492660 entries, far past the cutoff."""
        factors = sweep_factors(name)

        def outcome(cutoff):
            monkeypatch.setattr(linalg, "PLAIN_CELLS", cutoff)
            strand = Strand(factors)
            h = hilbert_series(strand)
            er = er_dim(strand, strand.N - 2)
            return h, er, strand.certified

        assert outcome(1 << 62) == outcome(0)

    @pytest.mark.parametrize("name", ["lines9", "degree9_cubics"])
    def test_blocks_on_both_engines(self, name, monkeypatch):
        """With the cutoff at 1836 entries, the blocks of J_16 of 1260 to
        1836 entries run in plain Python and the one of 2835 on numpy, and
        the chain is carried as ndarrays: the same ranks and certificates as
        with every block in plain Python."""

        def outcome(cutoff):
            monkeypatch.setattr(linalg, "PLAIN_CELLS", cutoff)
            strand, ranks = swept(sweep_curve(name))
            return ranks, strand.certified

        assert outcome(1836) == outcome(1 << 62)

    @pytest.mark.parametrize("name", [name for name in SWEEP_CURVES if sweep_curve(name).degree() <= 9])
    def test_column_profile_of_either_form(self, name, monkeypatch):
        """`linalg.column_profile` of J_{2N-2} in the sweep's column order:
        the ExactMatrix (in plain Python, cutoff raised) and its ndarray (on
        numpy) give the same positions, and their eliminations the same
        top-lift rank."""
        monkeypatch.setattr(linalg, "PLAIN_CELLS", 1 << 62)
        f = sweep_curve(name)
        top, p = 2 * f.degree() - 2, PRIMES[0]
        matrix = jacobian_matrix(f, top)
        width = s_dim(top)
        order = [s * width + i for i in range(width) for s in range(3)]
        positions, echelon = linalg.column_profile(matrix, order, p)
        same, plu = linalg.column_profile(matrix.array, order, p)
        assert isinstance(echelon, linalg.Echelon) and isinstance(plu, linalg_numpy.PLU)
        assert positions == same
        assert lifted_rank(matrix.transpose(), echelon)[0] == lifted_rank(matrix.array.T, plu)[0]


class TestSweep:
    """The downward sweep certifies rank J_m from one lift at the top: the
    contractions of annihilators of J_{k+1} annihilate J_k (Macaulay's
    inverse system)."""

    @pytest.mark.parametrize("name", SWEEP_CURVES)
    def test_equals_the_rank_of_every_degree(self, name):
        f = sweep_curve(name)
        strand, ranks = swept(f)
        assert ranks == [rank(jacobian_matrix(f, m)) for m in range(2 * f.degree() - 1)]
        # every rank read back is a memo hit, and the top degree was lifted
        assert len(computed(strand)) == len(ranks)
        assert lifted_degrees(strand)[0] == 2 * f.degree() - 2

    # m at which the sweep of J_m as one block lifted, m = 2N-2 down to 0
    LIFTED = {
        "quartic_lines": [22],
        "fourth_powers": [22, 10],
        "x^9+y^9+z^9": [16, 13],
        "x^3+y^3+z^3+5xyz": [4, 1],
        "x^3-y^3": [4],
    }

    @pytest.mark.parametrize("name", LIFTED)
    def test_blocks_certify_as_the_whole_matrix(self, name):
        """On curves of 16, 9, 81, 3 and (a lattice of rank 1) 21 blocks, the
        sweep lifts and contracts at the degrees where the sweep of the
        whole J_m did; the ranks of the first two are checked against
        `rank` in test_equals_the_rank_of_every_degree."""
        f = sweep_curve(name) if name in SWEEP_CURVES else parse_polynomial(name)
        strand, ranks = swept(f)
        top = 2 * f.degree() - 2
        if name not in SWEEP_CURVES:
            assert ranks == [rank(jacobian_matrix(f, m)) for m in range(top + 1)]
        want = [("jacobian_matrix", m, "lift" if m in self.LIFTED[name] else "contraction") for m in range(top, -1, -1)]
        assert computed(strand) == want

    @pytest.mark.parametrize("name", ["triangle_cubic", "degree9_cubics"])
    def test_contractions_of_annihilators_annihilate(self, name):
        """Of the whole ann(J_k), and block by block: the contractions of a
        block's annihilators land on the blocks of one class below and kill
        them."""
        f = sweep_curve(name)
        N = f.degree()
        for m in range(2 * N - 2, 0, -1):
            k = m + N - 1
            _, lift = lifted_rank(jacobian_matrix(f, m).array.T)
            below = contractions([lift.vectors()], {i: (0, i) for i in range(s_dim(k))}, range(s_dim(k - 1)))
            below = np.array(below, dtype=object).reshape(-1, s_dim(k - 1)).T
            assert below.shape == (s_dim(k - 1), 3 * len(lift.free))
            assert not _nonzero_entries(jacobian_matrix(f, m - 1).array.T, below).any()
            blocks = jacobian_blocks(f, m)
            where = {row: (b, t) for b, block in enumerate(blocks) for t, row in enumerate(block.rows)}
            chains = [block.rows and lifted_rank(block.matrix.transpose())[1].vectors() for block in blocks]
            for block in jacobian_blocks(f, m - 1):
                for phi in contractions(chains, where, block.rows):
                    assert len(phi) == len(block.rows)
                    assert not any(map(sum, (map(mul, phi, column) for column in zip(*block.matrix.rows))))

    def test_lower_lifts_keep_the_profile_engine(self, monkeypatch):
        """A curve of one class past `PLAIN_CELLS` (conics_cubics_3: J_12 has
        51870 entries) lifts below the top on numpy, as its profile ran,
        although J_5 and J_4 are within the cutoff."""

        def refused(*args):
            raise AssertionError("a plain lift in a sweep on numpy")

        monkeypatch.setattr(linalg, "_plain_lift", refused)
        strand, ranks = swept(sweep_curve("conics_cubics_3"))
        assert lifted_degrees(strand) == [12, 5, 4]

    @pytest.mark.parametrize("name, form", [("lines9", list), ("conics_cubics_3", np.ndarray)])
    def test_chain_takes_the_form_of_the_profiles(self, monkeypatch, name, form):
        """The chain is lists of residues in plain Python, and an ndarray
        once a profile ran on numpy (conics_cubics_3: one block past the
        cutoff)."""
        forms, real = set(), milnor.contractions
        monkeypatch.setattr(milnor, "contractions", lambda phis, *rest: forms.update(map(type, phis)) or real(phis, *rest))
        swept(sweep_curve(name))
        assert forms == {form}

    def test_corrupted_chain_residue_ends_in_a_lift(self, monkeypatch):
        f = sweep_curve("degree9_cubics")
        clean, ranks = swept(f)
        first = []
        real = milnor.contractions

        def corrupting(phis, where, rows):
            if not first:
                first.append(len(rows))
                source = where[rows[0]][0]
                phis = list(phis)
                phis[source] = [list(phi) for phi in phis[source]]
                phi = phis[source][0]
                phi[len(phi) // 2] = (phi[len(phi) // 2] + 1) % PRIMES[0]
            return real(phis, where, rows)

        monkeypatch.setattr(milnor, "contractions", corrupting)
        corrupted, same = swept(f)
        assert same == ranks
        assert lifted_degrees(clean) == [16, 7]
        assert lifted_degrees(corrupted) == [16, 15, 7]

    @pytest.mark.parametrize("name", SWEEP_CURVES)
    def test_rank_profile_is_every_rank_mod_p(self, name):
        assert_profile_is_every_rank(sweep_curve(name))

    @given(products_of_lines_conics_and_cubics())
    @settings(max_examples=20, deadline=None)
    def test_rank_profile_of_random_products(self, f):
        assert_profile_is_every_rank(f)

    def test_rank_profile_of_an_object_matrix(self):
        f = parse_polynomial(f"(x^3+y^3+z^3)(x+{2**70}y+z)")
        assert jacobian_matrix(f, 2 * f.degree() - 2).array.dtype == object
        assert_profile_is_every_rank(f)

    @pytest.mark.parametrize("name, lifted", [("lines9", [16]), ("degree9_cubics", [16, 7])])
    def test_report_builds_only_the_top_blocks(self, monkeypatch, report_strands, name, lifted):
        """J is built once, as the 9 blocks of J_16, for the profiles and the
        top lift; a lifted degree takes their corners, and no J_m is built
        whole.  Each block's profile is eliminated once per Strand."""
        degrees, profiles, full = [], [], []
        build, profile, matrix = milnor.jacobian_blocks, milnor.jacobian_rank_profile, milnor.jacobian_matrix

        def recording_build(f, m):
            degrees.append(m)
            return build(f, m)

        def recording_profile(*args):
            profiles.append(args[1])
            return profile(*args)

        monkeypatch.setattr(milnor, "jacobian_blocks", recording_build)
        monkeypatch.setattr(milnor, "jacobian_rank_profile", recording_profile)
        monkeypatch.setattr(milnor, "jacobian_matrix", lambda f, m: full.append(m) or matrix(f, m))
        report_json_bytes(CORPUS / f"{name}.curve")
        (strand,) = report_strands
        assert degrees == [16] and lifted_degrees(strand) == lifted
        assert profiles == [16] * 9 and not full

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_profile_value_ends_in_a_lift(self, monkeypatch, delta):
        f = sweep_curve("degree9_cubics")
        _, ranks = swept(f)
        profile = milnor.jacobian_rank_profile

        def corrupted(*args):
            values, plu = profile(*args)
            values[11] += delta
            return values, plu

        monkeypatch.setattr(milnor, "jacobian_rank_profile", corrupted)
        strand, same = swept(f)
        assert same == ranks
        assert lifted_degrees(strand) == [16, 11, 7]

    def test_sweeps_the_same_whatever_the_memo_holds(self, curves):
        """After a single rank request, or after the syzygy bases, the sweep
        makes a fresh Strand's lifts and contraction certificates and leaves
        its ranks in the memo; a memoized rank that it certifies otherwise
        raises."""
        f = curves["degree9"]
        fresh = Strand(f)
        fresh.sweep()
        assert lifted_degrees(fresh) == [16, 7]
        for prefill in (lambda s: jacobian_rank(s, 16), lambda s: [syzygy_basis(s, m) for m in range(4, 8)]):
            strand = Strand(f)
            prefill(strand)
            before = len(strand.certified)
            strand.sweep()
            assert strand.certified[before:] == fresh.certified
            assert {key: v for key, v in strand._ranks.items() if key[0] == "jacobian_matrix"} == fresh._ranks
        strand = Strand(f)
        strand._ranks["jacobian_matrix", 16] = jacobian_rank(fresh, 16) + 1
        with pytest.raises(LinalgError, match="jacobian_matrix at degree 16"):
            hilbert_series(strand)

    def test_modular_and_derived_strands_do_not_sweep(self, curves):
        modular = Strand(curves["nodal4"], (PRIMES[0],))
        hilbert_series(modular)
        assert {how for *_, how in computed(modular)} == {"modular"}
        lines = [parse_polynomial(t) for t in ("x", "y", "z", "x+y+z")]
        derived = Strand(lines)
        assert derived.derived()
        hilbert_series(derived)
        assert {name for name, *_ in derived.certified} == {"W"}
