"""Koszul strand cohomology, essential syzygies, and the spectral table."""

import hashlib
import json
from fractions import Fraction

import pytest

from planecurves import (
    NonStabilizationError,
    Strand,
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
from planecurves import koszul, milnor
from planecurves.gradedmaps import jacobian_blocks, jacobian_matrix, jacobian_partials, s_dim
from planecurves.koszul import omega_dim
from planecurves.linalg import EchelonAccumulator, KernelLift, certified_kernel
from planecurves.milnor import jacobian_rank
from planecurves.polynomials import monomial_basis
from tests.conftest import CORPUS, CURVE_TEXTS


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


class TestTrivialSyzygyDim:
    def test_takes_a_strand(self, curves):
        f = curves["generic4"]
        strand = Strand(f)
        assert [trivial_syzygy_dim(strand, m) for m in range(8)] == [
            trivial_syzygy_dim(f, m) for m in range(8)
        ]
        assert trivial_syzygy_dim(strand, 4) == 9


# sha256 of json.dumps([str(c) for c in syzygy_basis(f, m)]), frozen from the
# Fraction elimination that preceded the integer one: every (curve, m) of
# perfbench's syzygy workload, with f the product of the spec's factors, plus
# generic4 and cusp3 past N-2, where trivial syzygies enter the reduction.
PINNED_CLASSES = {
    ("degree5_D4", 3): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("degree5_D4", 4): "ab8e667aa3195678c4b6779e5d6d226d0a37e0b267b6e3a0a2152aeca616a536",
    ("degree9_cubics", 4): "4652a575df0b86ce377068b44ebe31e657ec37684fab59975c5dc175cd83a38b",
    ("degree9_cubics", 5): "b841e0a5c82e0f5091ef7ef64fc8d991b8476f3004b2f13865ee6d96632b43e9",
    ("degree9_cubics", 6): "4e5c33737cf7669d6888b039052278bd42d53b7a868d8763199a07046bd66b3e",
    ("degree9_cubics", 7): "e02add1422cd4673aecadb3edddd033d962ac00fb99df66b6ccae9f6bc1a4b71",
    ("lines6", 2): "8e3e950eacebaf1024c65ff70127767592802dd0d308927bfc21a301ba908846",
    ("lines6", 3): "651bb8b8af4c19c98ae19964cef9b6dac1a5780e7209cf76bf3424c3f8cf805a",
    ("lines6", 4): "449a2124a5af194551d36a3e940bec8931e4b70bcabd2ffe86ed92036ccd6431",
    ("lines9", 4): "bd42bcb22639d61e6a013c623b5972d02ca2c523cd20c6d157659fe3ff8b278f",
    ("lines9", 5): "0ee39dd4cd7707a252bda9d8cdfb46f615e73190a02baff3ed6ae9fa490ab384",
    ("lines9", 6): "516208a0d1d8d07931a74fac63b48f9751bf6646220647abb3c491ae2abcbf23",
    ("lines9", 7): "4c75380193c7720e4b2485da3ab9572fd0047174d63cb6befcce1465563b1f6e",
    ("pappus_a1", 4): "de767049f348ca8eb97e14a91be93c953bc45f69e09745d2cdc5f01a135a75cc",
    ("pappus_a1", 5): "13cb7b04befd86836c38d1719cbdd1cbcb64212ce52df996a03e25a989647132",
    ("pappus_a1", 6): "7ac9038df79b5587c6638156acd320a9129c7b6995e2635ef79cfff2aca22f43",
    ("pappus_a1", 7): "8d5dd15ff0e7ba024484569b7f9b711b6cc4dd59b592f938e6810a87a3097acb",
    ("triangle_cubic", 4): "10e94dae964670ada1c9229e6add9d56de9b9fdaa8a7d8ed751ee80aad904de0",
    ("generic4", 2): "63958ad871a57a1d41908e70e6c5dd1efa72c011defba8e81af0e799166fd260",
    ("generic4", 3): "a5b2387d83e6ec7210c88f3767ae9e48d865262cc32d0c5bdbb49e26343e73d3",
    ("generic4", 4): "6a3fe705c9bd6d5b5ab615e50d1fa2110555098b6035e30e7eaa39c100a52c78",
    ("generic4", 5): "1075b9bc7631ab14f403b16e0e33731f71663a9b492ed89a99b996633b3fef59",
    ("cusp3", 1): "f761b0058766e2294c2113bfb846e85aa2fec348f452711b9e754b2f36e7ada2",
    ("cusp3", 2): "58f55823cd223f767f34edf65613b34af90867220eee205078c2aa373d1fc611",
    ("cusp3", 3): "8af2e8b5ac76fcf05f94b9066737d539c9ad14191d70832bfa36159cada872ef",
}


def _pinned_curve(name):
    if name in CURVE_TEXTS:
        return parse_polynomial(CURVE_TEXTS[name])
    spec = json.loads((CORPUS / f"{name}.curve").read_text())
    texts = [e if isinstance(e, str) else e["poly"] for e in spec["factors"]]
    return parse_polynomial("*".join(f"({t})" for t in texts))


class TestPinnedClasses:
    def test_classes_match_digests(self):
        strands = {}
        for (name, m), digest in PINNED_CLASSES.items():
            if name not in strands:
                strands[name] = Strand(_pinned_curve(name))
            rendered = json.dumps([str(c) for c in syzygy_basis(strands[name], m)])
            assert hashlib.sha256(rendered.encode()).hexdigest() == digest, (name, m)


class TestSyzygyBasis:
    @pytest.mark.parametrize(
        "text, degrees",
        [
            ("(x^3-y^3)(y^3-z^3)(x^3-z^3)", range(4, 8)),
            (CURVE_TEXTS["degree9"], range(4, 8)),
            ("x^3-y^3", range(0, 4)),
            (CURVE_TEXTS["generic4"], range(0, 3)),
        ],
    )
    def test_block_kernels_are_the_kernel(self, text, degrees):
        """Put back in place and taken by free column, the kernels of the
        blocks of J_m are the RREF kernel of J_m, vector for vector; the third
        curve has blocks of zero columns with no row, the fourth one block."""
        f = parse_polynomial(text)
        for m in degrees:
            assert koszul.jacobian_kernel(jacobian_blocks(f, m)) == certified_kernel(jacobian_matrix(f, m)).vectors()

    @pytest.mark.parametrize("text, whole", [(CURVE_TEXTS["generic4"], []), ("(x^3-y^3)(y^3-z^3)(x^3-z^3)", [5])])
    def test_builds_the_jacobian_map_once(self, monkeypatch, text, whole):
        """A curve of one class checks J_m V = 0 on its one block, which is
        J_m; a graded curve builds the whole J_m once, for the check."""
        built, real = [], koszul.jacobian_matrix
        monkeypatch.setattr(koszul, "jacobian_matrix", lambda f, m: built.append(m) or real(f, m))
        assert syzygy_basis(parse_polynomial(text), 5)
        assert built == whole

    def test_corrupted_kernel_fails_the_product_check(self, curves, monkeypatch):
        """A column that is not in the kernel is caught by J_m V = 0."""
        real = koszul.certified_kernel

        def corrupted(matrix):
            lift = real(matrix)
            num = [list(row) for row in lift.num]
            num[0][0] += 1
            return KernelLift(lift.rank, lift.pivots, lift.free, num, lift.den)

        monkeypatch.setattr(koszul, "certified_kernel", corrupted)
        with pytest.raises(AssertionError, match="not a syzygy"):
            syzygy_basis(curves["generic4"], 2)

    def test_ranks_only_the_cross_map(self, curves, monkeypatch):
        """The class count is dim ker J_m, read off the lift, minus the rank
        of the trivial map: only the cross map out of S_0^3 is ranked."""
        ranked = []
        real = milnor.rank
        monkeypatch.setattr(milnor, "rank", lambda matrix: ranked.append(matrix.ncols) or real(matrix))
        strand = Strand(curves["generic4"])
        assert len(syzygy_basis(strand, 3)) == 5
        assert ranked == [3]
        assert jacobian_rank(strand, 3) == jacobian_rank(curves["generic4"], 3) == 22

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
