"""Koszul strand cohomology, essential syzygies, and the spectral table."""

from fractions import Fraction

import pytest

from planecurves import (
    NonStabilizationError,
    er_dim,
    koszul_h_dim,
    milnor_dim,
    parse_polynomial,
    smooth_reference_dim,
    spectral_table,
    syzygy_basis,
    tau,
    trivial_syzygy_dim,
)
from planecurves.gradedmaps import jacobian_partials, multiplication_matrix, s_dim
from planecurves.koszul import omega_dim
from planecurves.linalg import EchelonAccumulator
from planecurves.polynomials import monomial_basis


def strand_euler_ok(f, k):
    N = f.degree()
    lhs = milnor_dim(f, k + N - 3) - koszul_h_dim(f, 2, k)
    rhs = (
        omega_dim(3, k + N)
        - omega_dim(2, k)
        + omega_dim(1, k - N)
        - omega_dim(0, k - 2 * N)
    )
    return lhs == rhs


class TestLowCohomology:
    @pytest.mark.parametrize("name", ["generic4", "nodal4", "cusp3"])
    def test_h0_h1_vanish(self, curves, name):
        f = curves[name]
        for k in range(3 * f.degree() + 1):
            assert koszul_h_dim(f, 0, k) == 0
            assert koszul_h_dim(f, 1, k) == 0

    def test_h3_is_shifted_milnor(self, curves):
        f = curves["generic4"]
        for k in range(10):
            assert koszul_h_dim(f, 3, k) == milnor_dim(f, k - 3)

    def test_strand_euler_identity(self, curves):
        f = curves["nodal4"]
        for k in range(3 * f.degree() + 1):
            assert strand_euler_ok(f, k)

    def test_cone_curve_with_zero_partial(self):
        # three concurrent lines: f_z = 0 identically
        f = parse_polynomial("xy(x+y)")
        for k in range(10):
            assert koszul_h_dim(f, 0, k) == 0
            assert koszul_h_dim(f, 1, k) == 0
            assert strand_euler_ok(f, k)


class TestH2AndEr:
    def test_h2_equals_milnor_defect(self, curves):
        f = curves["generic4"]
        N = f.degree()
        for k in range(3 * N + 1):
            expected = milnor_dim(f, k + N - 3) - smooth_reference_dim(N, k + N - 3)
            assert koszul_h_dim(f, 2, k) == expected

    def test_cusp_first_syzygy(self, curves):
        assert koszul_h_dim(curves["cusp3"], 2, 3) == 1
        assert er_dim(curves["cusp3"], 1) == 1

    def test_four_lines(self, curves):
        assert er_dim(curves["generic4"], 2) == 3

    def test_smooth_quartic_no_syzygies(self, curves):
        for m in range(8):
            assert er_dim(curves["smooth4"], m) == 0

    def test_degree5_at_n_minus_2(self, curves):
        assert er_dim(curves["degree5"], 3) == 0

    def test_degree9_at_n_minus_2(self, curves):
        # equals dim M(f)_{2N-3} - (N-1)(N-2)/2 = 38 - 28
        assert er_dim(curves["degree9"], 7) == 10

    def test_stable_range_equals_tau(self, curves):
        # the smooth-reference correction vanishes from m = 2N-4 on, so the
        # tail of er_dim is exactly tau; one degree earlier it still falls short
        f = curves["generic4"]
        N = f.degree()
        assert er_dim(f, 2 * N - 5) < tau(f)
        for m in range(2 * N - 4, 2 * N):
            assert er_dim(f, m) == tau(f)


class TestTrivialSyzygies:
    def naive_trivial_dim(self, f, m):
        """Span of monomial multiples of the three Koszul generators."""
        fx, fy, fz = jacobian_partials(f)
        gens = [(fy, -fx, None), (fz, None, -fx), (None, fz, -fy)]
        N = f.degree()
        basis = monomial_basis(m)
        nb = len(basis)
        acc = EchelonAccumulator(3 * nb)
        index = {mono: i for i, mono in enumerate(basis)}
        for ga, gb, gc in gens:
            for mono in monomial_basis(m - N + 1):
                vec = [Fraction(0)] * (3 * nb)
                for slot, g in enumerate((ga, gb, gc)):
                    if g is None:
                        continue
                    for gm, c in g.terms.items():
                        tot = tuple(a + b for a, b in zip(gm, mono))
                        vec[slot * nb + index[tot]] += c
                acc.add(vec)
        return acc.dim

    @pytest.mark.parametrize("name", ["generic4", "cusp3", "nodal4"])
    def test_closed_form_matches_span(self, curves, name):
        f = curves[name]
        for m in range(2 * f.degree()):
            assert trivial_syzygy_dim(f, m) == self.naive_trivial_dim(f, m)


class TestSyzygyBasis:
    def test_cusp_class_is_proportional_to_known_one(self, curves):
        f = curves["cusp3"]
        classes = syzygy_basis(f, 1)
        assert len(classes) == 1
        (cls,) = classes
        assert cls.is_syzygy_of(f)
        known = (parse_polynomial("2x"), parse_polynomial("-y"), None)
        # proportional to (2x, -y, 0)
        ratio = None
        for got, want in zip((cls.a, cls.b, cls.c), known):
            if want is None:
                assert got.is_zero()
                continue
            assert len(got.terms) == len(want.terms)
            for mono, c in want.terms.items():
                r = got.coefficient(mono) / c
                assert ratio is None or r == ratio
                ratio = r
        assert ratio != 0

    def test_count_matches_er_dim(self, curves):
        f = curves["generic4"]
        for m in range(2, 6):
            classes = syzygy_basis(f, m)
            assert len(classes) == er_dim(f, m)
            for cls in classes:
                assert cls.is_syzygy_of(f)
                assert cls.degree == m

    def test_empty_below_mdr(self, curves):
        assert syzygy_basis(curves["generic4"], 1) == []
        assert syzygy_basis(curves["generic4"], -1) == []

    def test_str_rendering(self, curves):
        (cls,) = syzygy_basis(curves["cusp3"], 1)
        assert "fx" in str(cls) and "= 0" in str(cls)


class TestSpectralTable:
    def test_degree5(self, curves):
        table = spectral_table(curves["degree5"])
        assert table.e2_21 == 6 - 4

    def test_degree9(self, curves):
        # dim M(f)_{2N-3} = 38 and tau = 36
        table = spectral_table(curves["degree9"])
        assert table.e2_21 == 2

    def test_smooth_quartic_second_line_zero(self, curves):
        table = spectral_table(curves["smooth4"])
        for p, q, d in table.entries:
            if p + q == 2:
                assert d == 0
        # tau = 0, so E2^{2,1} is the full smooth value of dim M(f)_{2N-3}
        assert table.e2_21 == smooth_reference_dim(4, 5)

    def test_entries_match_direct_dims(self, sweep):
        # The table is derived from the Hilbert function; the direct strand
        # ranks (already memoized by criteria 8a-8c) must agree with it.
        for strand, _, N in sweep:
            table = spectral_table(strand)
            for p, q, d in table.entries:
                k = (q + 1) * N
                if p + q == 2:
                    assert d == koszul_h_dim(strand, 2, k)
                else:
                    assert d == milnor_dim(strand, k - 3)
            tau_val = tau(strand)
            assert table.e2_21 == milnor_dim(strand, 2 * N - 3) - tau_val
            assert all(milnor_dim(strand, j) == tau_val for j in range(3 * N - 3, 4 * N - 2))

    def test_non_reduced_curve_raises(self):
        with pytest.raises(NonStabilizationError):
            spectral_table(parse_polynomial("x^2y^2"))
