"""Sparse homogeneous polynomials in x, y, z with exact rational coefficients.

Monomials are exponent triples (a, b, c) for x^a y^b z^c, ordered graded-lex
with x > y > z.  Polynomials are immutable term maps; all arithmetic is exact.
A coefficient is a Python int when it is integral and a Fraction otherwise,
so an integral curve expands in integer arithmetic, and no code divides
coefficients with `/`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod
from typing import NamedTuple, Optional, Sequence

Monomial = tuple[int, int, int]
Coefficient = int | Fraction

VARS = ("x", "y", "z")


def monomial_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2]


def monomial_key(m: Monomial) -> tuple:
    """Sort key: graded-lex descending with x > y > z (largest first)."""
    return (-monomial_degree(m), -m[0], -m[1], -m[2])


def monomial_basis(d: int) -> list[Monomial]:
    """All monomials of degree d in graded-lex order; empty for d < 0.

    Length is (d+1)(d+2)/2.
    """
    if d < 0:
        return []
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def monomial_str(m: Monomial) -> str:
    if m == (0, 0, 0):
        return "1"
    parts = []
    for v, e in zip(VARS, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "".join(parts)


class Polynomial:
    """Immutable sparse polynomial over Q in x, y, z.

    Zero coefficients are never stored; equality is term-map equality.  A
    coefficient is stored as an int when it is integral, else as a Fraction.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Optional[dict[Monomial, Coefficient]] = None):
        clean: dict[Monomial, Coefficient] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[m] = c
        self.terms = clean
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(0, 0, 0): c})

    @staticmethod
    def variable(v: str) -> "Polynomial":
        i = VARS.index(v)
        e = [0, 0, 0]
        e[i] = 1
        return Polynomial({(e[0], e[1], e[2]): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, m: Monomial) -> Coefficient:
        return self.terms.get(m, 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        return self * Polynomial.constant(c)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def partial_derivative(self, v: str) -> "Polynomial":
        i = VARS.index(v)
        out: dict[Monomial, Coefficient] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            e[i] -= 1
            out[(e[0], e[1], e[2])] = c * m[i]
        return Polynomial(out)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for (a, b, c), coef in self.terms.items():
            total += coef * Fraction(point[0]) ** a * Fraction(point[1]) ** b * Fraction(point[2]) ** c
        return total

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            ms = monomial_str(m)
            if ms == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = ms
            else:
                body = f"{abs(c)}{ms}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with position info."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([xyz])|([()+\-*/^])|([A-Za-z_]))")

# Parentheses nest at most this deep: the parser recurses once per level, and
# the limit stays well inside Python's recursion limit.
MAX_NESTING = 100
# A factor, and the curve, have degree at most this.  The parser checks the
# degree of every product and power before it expands it (a constant counts
# as degree 1 in a power), so `(x+y+z)^100` fails at once instead of
# stalling; the largest expansion it admits, `(x+y+z)^60`, takes about 0.1 s.
MAX_DEGREE = 60
# The last degree a Hilbert function may be reported to (`k_max`).  Degrees
# past 3N-3 <= 177 are all tau, and each one is a list entry and a line of
# the JSON report, so a larger k_max asks for memory and says nothing more.
MAX_K_MAX = 100_000


class _Parser:
    """Recursive-descent parser for the curve-equation grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := coefficient | var ('^' uint)? | '(' expr ')' ('^' uint)?
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0
        self.depth = 0

    def _tokenize(self) -> None:
        pos = 0
        text = self.text
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", pos)
            num, var, op, badvar = m.groups()
            if badvar is not None:
                raise ParseError(f"unknown variable {badvar!r} (only x, y, z allowed)", m.start(4))
            if num is not None:
                self.tokens.append(("num", num, m.start(1)))
            elif var is not None:
                self.tokens.append(("var", var, m.start(2)))
            else:
                self.tokens.append(("op", op, m.start(3)))
            pos = m.end()

    def _peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1

    def parse(self) -> Polynomial:
        p = self.parse_expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return p

    def parse_expr(self) -> Polynomial:
        negate = False
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            negate = True
        p = self.parse_term()
        if negate:
            p = -p
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return p
            self.i += 1
            q = self.parse_term()
            p = p + q if tok[1] == "+" else p - q

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while True:
            tok = self._peek()
            if tok is None:
                return p
            if tok[0] == "op" and tok[1] == "*":
                self.i += 1
            elif not (tok[0] in ("num", "var") or (tok[0] == "op" and tok[1] == "(")):
                return p
            q = self.parse_factor()
            self._check_degree(p.degree() + q.degree(), tok[2])
            p = p * q

    @staticmethod
    def _int(tok: tuple[str, str, int]) -> int:
        """The value of a number token; past int()'s digit limit
        (`sys.get_int_max_str_digits`), a ParseError at the token."""
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"number of {len(tok[1])} digits is too long", tok[2]) from None

    def _parse_uint(self) -> int:
        tok = self._next()
        if tok[0] != "num":
            raise ParseError("expected a non-negative integer exponent", tok[2])
        return self._int(tok)

    @staticmethod
    def _check_degree(degree: int, position: int) -> None:
        if degree > MAX_DEGREE:
            raise ParseError(f"degree {degree} exceeds the limit of {MAX_DEGREE}", position)

    def _power(self, p: Polynomial) -> Polynomial:
        """p, or p^n when '^ n' follows."""
        nxt = self._peek()
        if nxt is None or nxt[0] != "op" or nxt[1] != "^":
            return p
        self.i += 1
        n = self._parse_uint()
        self._check_degree(max(p.degree(), 1) * n, nxt[2])
        return p ** n

    def parse_factor(self) -> Polynomial:
        tok = self._next()
        if tok[0] == "num":
            num = self._int(tok)
            nxt = self._peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.i += 1
                den = self._parse_uint()
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
                return Polynomial.constant(Fraction(num, den))
            return Polynomial.constant(num)
        if tok[0] == "var":
            return self._power(Polynomial.variable(tok[1]))
        if tok[0] == "op" and tok[1] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.depth += 1
            p = self.parse_expr()
            self.depth -= 1
            self._expect_op(")")
            return self._power(p)
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression into its expanded canonical sparse form."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Curve specification


class CurveError(ValueError):
    """Invalid curve specification (inhomogeneous, proportional, empty...)."""


class CurveFactor(NamedTuple):
    text: str
    genus: Optional[int] = None


class CurveSpec(NamedTuple):
    """A curve given as a product of declared-irreducible factors."""

    factors: tuple[CurveFactor, ...]


class Curve(NamedTuple):
    """Parsed and validated curve: its factors; `f` expands their product."""

    factor_polys: tuple[Polynomial, ...]
    spec: CurveSpec

    @property
    def f(self) -> Polynomial:
        return prod(self.factor_polys[1:], start=self.factor_polys[0])

    @property
    def N(self) -> int:
        return sum(self.factor_degrees)

    @property
    def r(self) -> int:
        return len(self.factor_polys)

    @property
    def factor_degrees(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.factor_polys)


def _proportional(p: Polynomial, q: Polynomial) -> bool:
    if set(p.terms) != set(q.terms):
        return False
    if not p.terms:
        return True
    m0 = next(iter(p.terms))
    return all(q.terms[m] * p.terms[m0] == c * q.terms[m0] for m, c in p.terms.items())


def build_curve(spec: CurveSpec) -> Curve:
    """Parse all factors, validate, and return the curve of the factors."""
    if not spec.factors:
        raise CurveError("empty factor list")
    polys = []
    for fac in spec.factors:
        p = parse_polynomial(fac.text)
        if p.is_zero() or p.degree() < 1:
            raise CurveError(f"factor {fac.text!r} must have degree >= 1")
        if not p.is_homogeneous():
            raise CurveError(f"factor {fac.text!r} is not homogeneous")
        polys.append(p)
    degree = sum(p.degree() for p in polys)
    if degree > MAX_DEGREE:
        raise CurveError(f"the curve has degree {degree}, above the limit of {MAX_DEGREE}")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if _proportional(polys[i], polys[j]):
                raise CurveError(
                    f"proportional factors: {spec.factors[i].text!r} and {spec.factors[j].text!r}"
                )
    return Curve(factor_polys=tuple(polys), spec=spec)
