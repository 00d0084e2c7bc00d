"""Polynomial expression grammar shared by manifests and the CLI.

Grammar:
    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' integer]
    atom    := rational | 'i' | variable | '(' expr ')'
    rational:= integer ['/' integer]

Parentheses and prefix signs may nest at most MAX_NESTING deep.  An exponent
literal may not exceed MAX_EXPONENT, and a product or power that could have
more than MAX_TERMS terms is refused before it is computed (a power of a
t-term base by the count of its monomials, comb(t - 1 + e, e)), so one short
expression cannot take minutes or exhaust memory.

Variables are the names of the target VarSpace (w1..wm, z1..zd,
zeta1..zetam, xi1..xid for manifolds; x1..xn, chain parameters u{k}_{j},
and so on elsewhere).  Canonical serialization sorts terms by
graded-lexicographic exponent order and prints coefficients as
`a/b`, `c/d*i` or `a/b+c/d*i`.
"""

from __future__ import annotations

import re
from math import comb

from .errors import ParseError
from .scalars import GaussianRational, format_scalar
from .series import Series, VarSpace, grlex_key

MAX_NESTING = 64
MAX_EXPONENT = 32
MAX_TERMS = 2_000

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r} at column {pos}")
            break
        if m.lastgroup == "int":
            try:
                tokens.append(("int", int(m.group("int"))))
            except ValueError:  # over the interpreter's str -> int digit limit
                raise ParseError(f"{len(m.group('int'))}-digit integer is too long") from None
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, space: VarSpace, order):
        self.tokens = tokens
        self.pos = 0
        self.space = space
        self.order = order
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {_describe(kind, val)}")

    def parse_expr(self) -> Series:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        result = self.parse_term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                term = self.parse_term()
                result = result + term if val == "+" else result - term
            else:
                return result

    def parse_term(self) -> Series:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factor = self.parse_factor()
                _check_terms(len(result.pairs) * len(factor.pairs), "product")
                result = result * factor
            else:
                return result

    def parse_factor(self) -> Series:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal")
            if val > MAX_EXPONENT:
                raise ParseError(f"exponent {val} exceeds the limit {MAX_EXPONENT}")
            t = len(base.pairs)
            if t > 1:
                _check_terms(comb(t - 1 + val, val), "power")
            return base ** val
        return base

    def nested(self, parse) -> Series:
        """Run a parse one nesting level deeper, refusing more than MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} deep")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse_atom(self) -> Series:
        kind, val = self.take()
        if kind == "int":
            num = val
            k, v = self.peek()
            if k == "op" and v == "/":
                self.take()
                k, v = self.take()
                if k != "int":
                    raise ParseError("denominator must be an integer literal")
                if v == 0:
                    raise ParseError("zero denominator")
                return Series.constant(
                    self.space, GaussianRational.from_zi(num, 0, v), self.order
                )
            return Series.constant(self.space, num, self.order)
        if kind == "name":
            if val == "i":
                return Series.constant(self.space, GaussianRational(0, 1), self.order)
            if val not in self.space:
                raise ParseError(f"unknown variable {val!r}")
            return Series.variable(self.space, val, self.order)
        if kind == "op" and val == "(":
            inner = self.nested(self.parse_expr)
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.nested(self.parse_atom)
        if kind == "op" and val == "+":
            return self.nested(self.parse_atom)
        raise ParseError(f"unexpected {_describe(kind, val)}")


def _describe(kind, val) -> str:
    """A token as error messages name it."""
    return "end of input" if kind == "end" else f"token {val!r}"


def _check_terms(bound: int, what: str):
    if bound > MAX_TERMS:
        raise ParseError(f"{what} could have {bound} terms, over the limit {MAX_TERMS}")


def parse_series(text: str, space: VarSpace, order=None) -> Series:
    """Parse an expression into a Series over the given space."""
    parser = _Parser(_tokenize(text), space, order)
    result = parser.parse_expr()
    kind, val = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input near {val!r}")
    return result


def _format_term(space: VarSpace, exp, coef: GaussianRational) -> str:
    vars_part = "*".join(
        space.names[i] if e == 1 else f"{space.names[i]}^{e}"
        for i, e in enumerate(exp)
        if e
    )
    cs = format_scalar(coef)
    needs_parens = ("+" in cs[1:]) or ("-" in cs[1:])
    if not vars_part:
        return f"({cs})" if needs_parens else cs
    if needs_parens:
        return f"({cs})*{vars_part}"
    if cs == "1":
        return vars_part
    if cs == "-1":
        return f"-{vars_part}"
    return f"{cs}*{vars_part}"


def format_series(s: Series) -> str:
    """Canonical text form: terms in graded-lexicographic exponent order."""
    if s.is_zero():
        return "0"
    parts = []
    for exp, (re, im) in sorted(s.pairs.items(), key=lambda t: grlex_key(t[0])):
        text = _format_term(s.space, exp, GaussianRational.from_zi(re, im, s.den))
        if parts and not text.startswith("-"):
            parts.append("+" + text)
        else:
            parts.append(text)
    return "".join(parts)
