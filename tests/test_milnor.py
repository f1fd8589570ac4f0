"""Hilbert functions of Milnor algebras: series, thresholds, tau."""

import pytest

from planecurves import (
    NonStabilizationError,
    Strand,
    hilbert_series,
    milnor_dim,
    parse_polynomial,
    smooth_reference_dim,
    tau,
)
from planecurves import gradedmaps, koszul, milnor
from planecurves.cli import report_json_bytes
from planecurves.gradedmaps import s_dim
from tests.conftest import CORPUS


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
def rank_log(monkeypatch):
    """(map, degree) of every rank computed, read off the builder of its matrix."""
    log, tags = [], {}

    def tagging(build):
        def tagged(f, m):
            matrix = build(f, m)
            tags[id(matrix)] = (build.__name__, m)
            return matrix

        return tagged

    monkeypatch.setattr(milnor, "jacobian_matrix", tagging(gradedmaps.jacobian_matrix))
    monkeypatch.setattr(koszul, "cross_matrix", tagging(gradedmaps.cross_matrix))
    monkeypatch.setattr(koszul, "gradient_column_matrix", tagging(gradedmaps.gradient_column_matrix))
    exact_rank = milnor.rank

    def counting_rank(matrix):
        log.append(tags[id(matrix)])
        return exact_rank(matrix)

    monkeypatch.setattr(milnor, "rank", counting_rank)
    return log


class TestStrand:
    SPEC = CORPUS / "degree9_cubics.curve"

    def test_each_report_ranks_each_map_and_degree_once(self, rank_log):
        first = report_json_bytes(self.SPEC)
        once = list(rank_log)
        # Only the jacobian ranks of the Hilbert series, m = 0..2N-2 for N = 9:
        # the spectral table is derived from them.
        assert len(once) == len(set(once)) == 17
        assert all(build == "jacobian_matrix" and m <= 16 for build, m in once)
        # The memo is freed with the report: a second one ranks the same 17 again.
        assert report_json_bytes(self.SPEC) == first
        assert rank_log[len(once):] == once

    def test_shared_across_calls(self, curves, rank_log):
        strand = Strand(curves["nodal4"])
        h = hilbert_series(strand)
        computed = len(rank_log)
        assert hilbert_series(strand) == h and tau(strand) == h.stable_value
        assert len(rank_log) == computed > 0

    @pytest.mark.parametrize(
        "primes",
        [(1048578,), (1065023,), (2**31 + 11,), (1060937, 1060937)],
        ids=["even", "composite", "too-large", "repeated"],
    )
    def test_rejects_bad_primes(self, curves, primes):
        with pytest.raises(ValueError):
            Strand(curves["generic4"], primes)

    def test_modular_ranks_never_answer_for_exact(self):
        # x^3+y^3+z^3-3(1+p)xyz is smooth over Q but has three nodes mod p,
        # where the Hesse parameter 1+p is a cube root of 1.
        p = 1060937
        f = parse_polynomial(f"x^3+y^3+z^3-{3 * (1 + p)}xyz")
        modular, exact = Strand(f, (p,)), Strand(f)
        assert tau(modular) == 3
        assert tau(exact) == 0 == tau(f)
        assert milnor_dim(modular, 4) == 3 and milnor_dim(exact, 4) == 0
