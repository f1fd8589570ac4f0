"""Exact output checks owned by the benchmark.

Each check returns None when the output is right and a one-line reason when
it is not.  Nothing here imports the program under test: polynomials given as
text are parsed by a small parser of this module, and syzygies are checked by
exact evaluation at integer points.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|([-+*/^()]))")
_VARS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


class _Parser:
    """expr := ['-'] term (('+'|'-') term)*;  term := power (['*'|'/'] power)*;
    power := atom ['^' int];  atom := int | x | y | z | '(' expr ')'.
    Division is by integer constants only."""

    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"cannot parse {text!r} at {pos}")
                break
            self.toks.append(next(g for g in m.groups() if g is not None))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> dict:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r}")
        return p

    def expr(self) -> dict:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        p = _add({}, self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            p = _add(p, self.term(), sign)
        return p

    def term(self) -> dict:
        p = self.power()
        while self.peek() is not None and self.peek() not in ("+", "-", ")"):
            if self.peek() == "/":
                self.take()
                d = self.power()
                if set(d) != {(0, 0, 0)}:
                    raise ValueError("division by a non-constant")
                p = {m: Fraction(c) / d[(0, 0, 0)] for m, c in p.items()}
                continue
            if self.peek() == "*":
                self.take()
            p = _mul(p, self.power())
        return p

    def power(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = int(self.take())
            out = {(0, 0, 0): 1}
            for _ in range(e):
                out = _mul(out, base)
            return out
        return base

    def atom(self) -> dict:
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of input")
        if tok.isdigit():
            return {(0, 0, 0): int(tok)} if int(tok) else {}
        if tok in _VARS:
            return {_VARS[tok]: 1}
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("missing ')'")
            return p
        raise ValueError(f"unexpected token {tok!r}")


def parse(text: str) -> dict:
    """Monomial exponent tuple -> rational coefficient."""
    return _Parser(text).parse()


def derivative(p: dict, var: int) -> dict:
    out = {}
    for m, c in p.items():
        if m[var]:
            e = list(m)
            e[var] -= 1
            out[tuple(e)] = c * m[var]
    return out


def evaluate(p: dict, pt) -> Fraction:
    return sum((c * pt[0] ** m[0] * pt[1] ** m[1] * pt[2] ** m[2] for m, c in p.items()), Fraction(0))


def check_report(stdout: bytes, expected: bytes):
    if stdout != expected:
        return "report differs from the frozen fixture"
    return None


def check_hilbert(stdout: bytes, info: dict):
    """tau = n + 4t from the benchmark's own census, and ct = mdr + N - 2."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return "hilbert output is not JSON"
    if got.get("N") != info["N"]:
        return f"N={got.get('N')} but the arrangement has {info['N']} lines"
    want_tau = info["n"] + 4 * info["t"]
    if got.get("tau") != want_tau:
        return f"tau={got.get('tau')} but n + 4t = {want_tau}"
    ct, mdr = got.get("ct"), got.get("mdr")
    if ct is None or mdr is None or ct != mdr + info["N"] - 2:
        return f"ct={ct} is not mdr + N - 2 with mdr={mdr}"
    return None


def check_syzygy(stdout: bytes, info: dict, points) -> str | None:
    """Class counts at mdr and N - 2, and a f_x + b f_y + c f_z = 0 at every point."""
    try:
        got = {int(m): classes for m, classes in json.loads(stdout).items()}
    except ValueError:
        return "syzygy output is not JSON"
    if sorted(got) != info["degrees"]:
        return f"degrees {sorted(got)} != {info['degrees']}"
    N = info["N"]
    if len(got[N - 2]) != info["er_top"]:
        return f"{len(got[N - 2])} classes at m = N-2, fixture says {info['er_top']}"
    if len(got[info["mdr"]]) < 1:
        return "no class at m = mdr"
    f = parse(info["f"])
    grads = [[evaluate(derivative(f, v), pt) for v in range(3)] for pt in points]
    for m, classes in got.items():
        for abc in classes:
            polys = [parse(t) for t in abc]
            for pt, g in zip(points, grads):
                if sum(evaluate(p, pt) * gv for p, gv in zip(polys, g)) != 0:
                    return f"class {abc} in degree {m} is not a syzygy at {pt}"
    return None
