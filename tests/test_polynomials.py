"""Polynomial arithmetic, parsing, and curve construction."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurves import (
    CurveError,
    CurveFactor,
    CurveSpec,
    ParseError,
    Polynomial,
    build_curve,
    monomial_basis,
    parse_polynomial,
)
from planecurves.polynomials import MAX_DEGREE, MAX_NESTING

X, Y, Z = sympy.symbols("x y z")


def to_sympy(p: Polynomial):
    return sympy.expand(
        sum(
            sympy.Rational(c.numerator, c.denominator) * X**a * Y**b * Z**c2
            for (a, b, c2), c in p.terms.items()
        )
    )


coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(lambda sign, v: sign * v, st.sampled_from([-1, 1]), st.integers(2**64 + 1, 2**80)),
)


@st.composite
def homogeneous_polys(draw, min_degree=1, max_degree=4):
    d = draw(st.integers(min_value=min_degree, max_value=max_degree))
    basis = monomial_basis(d)
    terms = {}
    for mono in basis:
        c = draw(coeffs)
        if c:
            terms[mono] = Fraction(c)
    if not terms:
        terms[basis[0]] = Fraction(1)
    return Polynomial(terms)


@st.composite
def small_polys(draw):
    basis = [m for d in range(0, 4) for m in monomial_basis(d)]
    picked = draw(st.lists(st.sampled_from(basis), min_size=0, max_size=5))
    terms = {}
    for mono in picked:
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(draw(coeffs))
    return Polynomial({m: c for m, c in terms.items() if c})


class TestBasics:
    def test_monomial_basis_size(self):
        for d in range(8):
            assert len(monomial_basis(d)) == (d + 1) * (d + 2) // 2

    def test_monomial_basis_sorted_graded_lex(self):
        basis = monomial_basis(3)
        assert basis[0] == (3, 0, 0)
        assert basis[-1] == (0, 0, 3)

    def test_str_canonical(self):
        p = parse_polynomial("z^2 + x^2 - 2xy")
        assert str(p) == "x^2 - 2xy + z^2"

    def test_degree_and_homogeneous(self):
        p = parse_polynomial("x^3 + xyz")
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert not parse_polynomial("x^2 + y").is_homogeneous()

    def test_partial_derivative(self):
        p = parse_polynomial("x^2y + 3z^3")
        assert p.partial_derivative("x") == parse_polynomial("2xy")
        assert p.partial_derivative("z") == parse_polynomial("9z^2")

    def test_evaluate(self):
        p = parse_polynomial("x^2 - yz")
        assert p.evaluate((2, 1, 3)) == 1


class TestParser:
    def test_rational_coefficient(self):
        p = parse_polynomial("1/2x^2 + 3y^2")
        assert p.coefficient((2, 0, 0)) == Fraction(1, 2)

    def test_implicit_multiplication(self):
        assert parse_polynomial("xyz") == parse_polynomial("x*y*z")

    def test_parenthesized_power(self):
        p = parse_polynomial("(x+y)^3")
        assert p.coefficient((2, 1, 0)) == 3

    def test_unary_minus(self):
        p = parse_polynomial("-x + y")
        assert p.coefficient((1, 0, 0)) == -1

    @pytest.mark.parametrize("bad", ["", "x +", "x^", "(x+y", "x**2", "w+1", "2^x"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(bad)
        assert exc.value.position >= 0

    def test_degree9_expansion_matches_sympy(self, curves):
        ours = to_sympy(curves["degree9"])
        theirs = sympy.expand((X**3 + Y**3 + Z**3) ** 3 + (X**3 + 2 * Y**3 + 3 * Z**3) ** 3)
        assert sympy.simplify(ours - theirs) == 0

    def test_product_of_factors_matches_sympy(self):
        ours = to_sympy(parse_polynomial("(x-y)(y-z)(x-z)(x-2y)(2x+y+z)"))
        theirs = sympy.expand(
            (X - Y) * (Y - Z) * (X - Z) * (X - 2 * Y) * (2 * X + Y + Z)
        )
        assert sympy.simplify(ours - theirs) == 0

    @given(homogeneous_polys())
    @settings(max_examples=40, deadline=None)
    def test_parse_str_round_trip(self, p):
        assert parse_polynomial(str(p)) == p


    def test_nesting_limit(self):
        assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == parse_polynomial("x")
        with pytest.raises(ParseError, match="nested deeper"):
            parse_polynomial("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))

    def test_degree_limit(self):
        assert parse_polynomial(f"x^{MAX_DEGREE}").degree() == MAX_DEGREE
        assert parse_polynomial("(x+y)^30(x-y)^30").degree() == MAX_DEGREE
        for text in ["x^61", "(x+y+z)^100", "x^30*y^31", "x^30y^31", "(2)^61", "(x-x)^61"]:
            with pytest.raises(ParseError, match=f"exceeds the limit of {MAX_DEGREE}"):
                parse_polynomial(text)

    def test_curve_degree_limit(self):
        factors = (CurveFactor("(x+y)^30"), CurveFactor("(x-y)^30"), CurveFactor("z"))
        with pytest.raises(CurveError, match=f"above the limit of {MAX_DEGREE}"):
            build_curve(CurveSpec(factors))

    @given(st.text(alphabet="xyzab019()+-*/^ ", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_returns_polynomial_or_parse_error(self, text):
        try:
            p = parse_polynomial(text)
        except ParseError:
            return
        assert isinstance(p, Polynomial)


def integral_types(p: Polynomial) -> bool:
    """Every integral coefficient is an int, every other one a Fraction."""
    return all(
        type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values()
    )


class TestCoefficients:
    def test_integral_coefficients_are_ints(self):
        p = parse_polynomial("2x-3y+4z")
        q = parse_polynomial("x^2+5yz")
        results = [p, p * q, p**3, p.partial_derivative("x"), (p * q).partial_derivative("z")]
        results += [Polynomial.constant(Fraction(4, 2)), parse_polynomial("2x").scale(Fraction(1, 2))]
        for r in results:
            assert r.terms and all(type(c) is int for c in r.terms.values()), r
        assert parse_polynomial("2x").scale(Fraction(1, 2)) == parse_polynomial("x")

    def test_rational_coefficient_stays_a_fraction(self):
        p = parse_polynomial("1/2x")
        assert p.terms == {(1, 0, 0): Fraction(1, 2)}
        assert type(p.coefficient((1, 0, 0))) is Fraction
        assert (p + p).terms == {(1, 0, 0): 1} and integral_types(p + p)

    def test_absent_coefficient_is_int_zero(self):
        c = parse_polynomial("x+y").coefficient((0, 0, 1))
        assert c == 0 and type(c) is int

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_keeps_integral_coefficients_ints(self, p, q):
        for r in (p, p + q, p - q, p * q, p**2, p.partial_derivative("y"), p.scale(Fraction(3, 2))):
            assert integral_types(r)

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_product_matches_sympy(self, p, q):
        assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))


class TestRingAxioms:
    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys())
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()

    @given(homogeneous_polys(max_degree=5))
    @settings(max_examples=40, deadline=None)
    def test_euler_identity(self, p):
        """x f_x + y f_y + z f_z = deg(f) * f for homogeneous f."""
        n = p.degree()
        lhs = (
            Polynomial.variable("x") * p.partial_derivative("x")
            + Polynomial.variable("y") * p.partial_derivative("y")
            + Polynomial.variable("z") * p.partial_derivative("z")
        )
        assert lhs == p.scale(n)

    @given(homogeneous_polys(max_degree=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_power_is_repeated_product(self, p, n):
        expected = Polynomial.constant(1)
        for _ in range(n):
            expected = expected * p
        assert p**n == expected

    def test_power_of_trinomial(self):
        """Square-and-multiply through every bit pattern of n up to 9."""
        p = parse_polynomial("x+2y-3z")
        expected = Polynomial.constant(1)
        for n in range(10):
            assert p**n == expected
            expected = expected * p


class TestCurveConstruction:
    def test_build_curve(self):
        spec = CurveSpec(factors=(CurveFactor("x", None), CurveFactor("y^2+xz", None)))
        curve = build_curve(spec)
        assert curve.N == 3
        assert curve.r == 2
        assert curve.f == parse_polynomial("x(y^2+xz)")

    def test_rejects_inhomogeneous_factor(self):
        with pytest.raises(CurveError):
            build_curve(CurveSpec(factors=(CurveFactor("x+1", None),)))

    def test_rejects_proportional_factors(self):
        spec = CurveSpec(factors=(CurveFactor("x+y", None), CurveFactor("2x+2y", None)))
        with pytest.raises(CurveError):
            build_curve(spec)
        # a ratio taken as a float would call these two lines proportional
        lines = ("x+1152921504606846977y", "x+1152921504606846976y", "z")
        assert build_curve(CurveSpec(factors=tuple(CurveFactor(t) for t in lines))).N == 3

    def test_rejects_constant_factor(self):
        with pytest.raises(CurveError):
            build_curve(CurveSpec(factors=(CurveFactor("3", None),)))
