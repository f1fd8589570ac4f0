"""Acceptance gate: every headline result, exact, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The headline criteria 1-7 run on exact Strands (certified ranks).  The
bulk property sweeps of criterion 8 run on one modular Strand per curve, built
once per session (the `sweep` fixture), so 8a, 8b, 8c and 8f share its ranks;
8g compares exact Strands against modular ones on every fixture.
"""

import functools
import json
import random

import sympy

from planecurves import (
    Strand,
    analyze_arrangement,
    bezout_audit,
    er_dim,
    hilbert_series,
    koszul_h_dim,
    milnor_dim,
    mixed_hodge_numbers,
    parse_polynomial,
    smooth_reference_dim,
    spectral_table,
    syzygy_basis,
    tau,
    theorem2_report,
)
from planecurves.koszul import omega_dim
from tests.conftest import corpus_specs, load_corpus_curve


def conclude(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} [criterion {criterion}]{suffix}")
    assert ok, f"criterion {criterion}{suffix}"


@functools.lru_cache(maxsize=None)
def corpus():
    return tuple(load_corpus_curve(path) for path in corpus_specs())


def corpus_curve(name):
    for path, (curve, profile) in zip(corpus_specs(), corpus()):
        if path.stem == name:
            return curve, profile
    raise KeyError(name)


@functools.lru_cache(maxsize=None)
def exact_strand(name):
    """One exact Strand per corpus curve, shared by criteria 1-5 and 8g."""
    return Strand(corpus_curve(name)[0].f)


def test_criterion_1_pappus_series():
    h1 = hilbert_series(exact_strand("pappus_a1"))
    h2 = hilbert_series(exact_strand("pappus_a2"))
    head = (1, 3, 6, 10, 15, 21, 28, 36, 42, 46, 48, 48, 47, 45)
    ok = (
        h1.dims[:14] == head
        and h1.stable_value == 45
        and set(h1.dims[13:]) == {45}
        and h2.stable_value == 45
        and all(
            (a - b) == (1 if k == 12 else 0)
            for k, (a, b) in enumerate(zip(h1.dims, h2.dims))
        )
    )
    conclude("1", ok, "Pappus A1/A2 series; difference exactly t^12")


def test_criterion_2_four_generic_lines():
    _, profile = corpus_curve("generic4")
    h = hilbert_series(exact_strand("generic4"))
    report = theorem2_report(exact_strand("generic4"), profile)
    ok = (
        h.dims[:4] == (1, 3, 6, 7)
        and set(h.dims[4:]) == {6}
        and (h.ct, h.st, h.stable_value) == (4, 4, 6)
        and (profile.n, profile.t) == (6, 0)
        and report.part_a.value == 0 == report.part_a.upper
        and report.f2_equals_p2
        and report.part_b.value == 3 == profile.r - 1
    )
    conclude("2", ok, "xyz(x+y+z): series, thresholds, census, theorem2")


def test_criterion_3_line_plus_cubic():
    h = hilbert_series(exact_strand("nodal4"))
    ok = (
        h.dims[:6] == (1, 3, 6, 7, 6, 4)
        and set(h.dims[6:]) == {3}
        and (h.ct, h.st) == (4, 6)
    )
    conclude("3", ok, "x(x^3+y^3+z^3): series 1,3,6,7,6,4 then 3; ct=4 st=6")


def test_criterion_4_degree5():
    _, profile = corpus_curve("degree5_D4")
    f = exact_strand("degree5_D4")
    report = theorem2_report(f, profile)
    ok = (
        milnor_dim(f, 7) == 6
        and tau(f) == 4
        and (report.part_a.value, report.part_a.upper) == (2, 3)
        and report.part_a.verdict == "strict"
        and not report.f2_equals_p2
        and (report.part_b.lower, report.part_b.value, report.part_b.upper) == (0, 0, 1)
    )
    conclude("4", ok, "degree-5 curve: F^2 != P^2 with ordinary singularities")


def test_criterion_5_degree9():
    _, profile = corpus_curve("degree9_cubics")
    f = exact_strand("degree9_cubics")
    report = theorem2_report(f, profile)
    # dim M(f)_16 = 36 = tau as published; the part A defect sits at 2N-3 = 15
    # where dim M(f)_15 = 38, giving value 2 (strict) and er(f)_7 = 10.
    ok = (
        milnor_dim(f, 16) == 36 == tau(f)
        and milnor_dim(f, 15) == 38
        and (report.part_a.value, report.part_a.upper) == (2, 3)
        and report.part_a.verdict == "strict"
        and (report.part_b.lower, report.part_b.value, report.part_b.upper) == (8, 10, 11)
        and report.bounds_ok
    )
    conclude("5", ok, "degree-9 three-cubic curve: dim M(f)_16 = 36 = tau; bounds hold")


def test_criterion_6_hodge_fixtures():
    from planecurves import Component, SingularityProfile

    six = analyze_arrangement(
        [parse_polynomial(t) for t in ("x-y", "x+y", "y-z", "y+z", "x-z", "x+z")]
    )
    nine = SingularityProfile(
        components=(Component(1, 0),) * 9, n=0, t=12, s=0, t_prime=12
    )
    tri = SingularityProfile(
        components=(Component(1, 0),) * 3 + (Component(3, 1),),
        n=12,
        t=3,
        s=0,
        t_prime=3,
    )
    r6, r9, rt = (mixed_hodge_numbers(p) for p in (six, nine, tri))
    ok = (
        (r6.gr1, r6.gr2, r6.b2) == (0, 6, 6)
        and (r9.gr1, r9.gr2) == (0, 16)
        and (rt.gr1, rt.gr2, rt.b2) == (1, 7, 8)
    )
    conclude("6", ok, "Hodge fixtures: 6 lines, 9 lines, triangle plus cubic")


def test_criterion_7_cusp_syzygy():
    f = parse_polynomial("xy^2+z^3")
    h = hilbert_series(f)
    classes = syzygy_basis(f, 1)
    prop = False
    if len(classes) == 1:
        cls = classes[0]
        known_a, known_b = parse_polynomial("2x"), parse_polynomial("-y")
        ratios = set()
        if cls.c.is_zero() and len(cls.a.terms) == 1 and len(cls.b.terms) == 1:
            ratios = {
                cls.a.coefficient((1, 0, 0)) / known_a.coefficient((1, 0, 0)),
                cls.b.coefficient((0, 1, 0)) / known_b.coefficient((0, 1, 0)),
            }
        prop = len(ratios) == 1 and 0 not in ratios
    ok = h.mdr == 1 and h.ct == 2 and prop
    conclude("7", ok, "xy^2+z^3: mdr=1, ct=2, syzygy class = (2x,-y,0) mod trivial")


# ---------------------------------------------------------------------------
# Criterion 8: property suites over the corpus plus 50 random arrangements.


def test_criterion_8a_strand_euler(sweep):
    bad = []
    for strand, _, N in sweep:
        for k in range(3 * N + 1):
            lhs = milnor_dim(strand, k + N - 3) - koszul_h_dim(strand, 2, k)
            rhs = (
                omega_dim(3, k + N)
                - omega_dim(2, k)
                + omega_dim(1, k - N)
                - omega_dim(0, k - 2 * N)
            )
            if lhs != rhs:
                bad.append((str(strand.f)[:40], k))
    conclude("8a", not bad, f"strand Euler identity, all degrees; violations: {bad}")


def test_criterion_8b_h0_h1_vanish(sweep):
    bad = []
    for strand, _, N in sweep:
        for k in range(3 * N + 1):
            if koszul_h_dim(strand, 0, k) or koszul_h_dim(strand, 1, k):
                bad.append((str(strand.f)[:40], k))
    conclude("8b", not bad, f"H^0 = H^1 = 0 everywhere; violations: {bad}")


def test_criterion_8c_h2_is_milnor_defect(sweep):
    bad = []
    for strand, _, N in sweep:
        for k in range(3 * N + 1):
            expected = milnor_dim(strand, k + N - 3) - smooth_reference_dim(N, k + N - 3)
            if koszul_h_dim(strand, 2, k) != expected:
                bad.append((str(strand.f)[:40], k))
    conclude("8c", not bad, f"H^2 = Milnor defect at every degree; violations: {bad}")


def test_criterion_8d_smooth_reference():
    ok = True
    for N in range(3, 10):
        top = 3 * N - 6
        ok = ok and all(
            smooth_reference_dim(N, k) == smooth_reference_dim(N, top - k)
            for k in range(top + 1)
        )
    for N in (3, 4, 5):
        f = parse_polynomial(f"x^{N}+y^{N}+z^{N}")
        ok = ok and all(
            milnor_dim(f, k) == smooth_reference_dim(N, k) for k in range(3 * N - 4)
        )
    conclude("8d", ok, "smooth reference symmetry; Fermat N in {3,4,5} agreement")


def test_criterion_8e_bezout(random_arrangements):
    bad = []
    profiles = [p for _, p in random_arrangements]
    profiles += [p for _, p in corpus() if p.points]
    for profile in profiles:
        lhs, rhs = bezout_audit(profile)
        if lhs != rhs:
            bad.append((profile.r, lhs, rhs))
    conclude("8e", not bad, f"Bezout pair count on {len(profiles)} arrangements")


def test_criterion_8f_census_identities(sweep):
    bad = []
    for strand, profile, N in sweep:
        h = hilbert_series(strand)
        g = (N - 1) * (N - 2) // 2
        report = theorem2_report(strand, profile)
        checks = [
            h.stable_value == profile.n + 4 * profile.t,
            # b2 identity, in the form the numbers actually satisfy:
            # sum g_j - t = g - tau + r - 1, i.e. b2 = 2g - tau + r - 1
            profile.sum_genus - profile.t == g - h.stable_value + profile.r - 1,
            er_dim(strand, N - 2) == milnor_dim(strand, 2 * N - 3) - g,
            report.bounds_ok,
        ]
        if not all(checks):
            bad.append((str(strand.f)[:40], checks))
    conclude("8f", not bad, f"tau, b2, ER identities and theorem bounds; violations: {bad}")


def test_criterion_8g_modular_agreement():
    rng = random.Random(8860486)
    primes = []
    while len(primes) < 3:
        p = int(sympy.nextprime(rng.randrange(1 << 29, 1 << 30)))
        if p not in primes:
            primes.append(p)
    bad = []
    for path in corpus_specs():
        exact = exact_strand(path.stem)
        modular = Strand(exact.f, tuple(primes))
        h_rat = hilbert_series(exact)
        h_mod = hilbert_series(modular)
        if h_rat.dims != h_mod.dims or h_rat.stable_value != h_mod.stable_value:
            bad.append(str(exact.f)[:40])
        if spectral_table(exact).e2_21 != spectral_table(modular).e2_21:
            bad.append(str(exact.f)[:40])
    conclude("8g", not bad, f"modular == rational on all fixtures, primes {primes}")


def test_criterion_9_determinism(corpus_dir):
    from planecurves.cli import report_json_bytes

    path = corpus_dir / "generic4.curve"
    first = report_json_bytes(path)
    second = report_json_bytes(path)
    ok = first == second and json.loads(first)["hilbert"]["tau"] == 6
    conclude("9", ok, "report twice on the same spec -> byte-identical JSON")
