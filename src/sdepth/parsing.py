"""Text formats: ideal files and module expressions.

Ideal file grammar (one ideal per file)::

    # comment
    vars: x1 x2 x3 | y1 y2     # optional '|' splits the variables in two blocks
    x1^2*x3
    x2*y1
    1                          # the unit ideal; a file with no generator
                               # lines is the zero ideal

Module expressions (CLI ``--module``) combine the parsed ideal(s)::

    I          the ideal as a module, I/0
    S/I        the quotient ring
    I^2/I^(3)  power quotients; exponents may be parenthesized
    (I+J)^2    sums, products and powers of the named ideals
    S, 0       the unit and zero ideals
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Monomial, MonomialIdeal, QuotientModule, RingContext


class ParseError(ValueError):
    """Input text error, with line/column when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text: str, context: RingContext, line: int | None = None) -> Monomial:
    text = text.strip()
    if text == "1":
        return context.one()
    exps = [0] * context.arity
    for col, factor in _split_factors(text, line):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ParseError(f"bad factor {factor!r}", line, col)
        name, exp = m.group(1), int(m.group(2) or 1)
        try:
            j = context.index_of(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}", line, col) from None
        exps[j] += exp
    return Monomial(context, tuple(exps))


def _split_factors(text: str, line: int | None):
    col = 1
    for part in text.split("*"):
        stripped = part.strip()
        if not stripped:
            raise ParseError("empty factor", line, col)
        yield col, stripped
        col += len(part) + 1


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal file format into a canonical ideal."""
    context = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if context is None:
            if not line.startswith("vars:"):
                raise ParseError("first content line must start with 'vars:'", lineno, 1)
            body = line[len("vars:") :].strip()
            split = None
            if "|" in body:
                left, _, right = body.partition("|")
                names = left.split() + right.split()
                split = len(left.split())
            else:
                names = body.split()
            if not names:
                raise ParseError("no variables declared", lineno)
            for name in names:
                if not _VAR_RE.fullmatch(name):
                    raise ParseError(f"bad variable name {name!r}", lineno)
            try:
                context = RingContext(tuple(names), split)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        gens.append(parse_monomial(line, context, lineno))
    if context is None:
        raise ParseError("empty input: missing 'vars:' line")
    return MonomialIdeal.from_gens(context, gens)


def format_ideal(ideal: MonomialIdeal) -> str:
    """Inverse of :func:`parse_ideal` on canonical ideals (round-trips)."""
    ctx = ideal.context
    if ctx.split is None:
        header = "vars: " + " ".join(ctx.variables)
    else:
        header = (
            "vars: "
            + " ".join(ctx.variables[: ctx.split])
            + " | "
            + " ".join(ctx.variables[ctx.split :])
        )
    lines = [header]
    lines.extend(str(g) for g in ideal.gens)
    return "\n".join(lines) + "\n"


def split_blocks(ideal: MonomialIdeal) -> tuple[MonomialIdeal, MonomialIdeal]:
    """Partition the generators of a split-context ideal by block support.

    Generators supported purely in block A go to the first ideal, purely in
    block B to the second; a generator straddling both blocks is an error.
    """
    ctx = ideal.context
    if ctx.split is None:
        raise ValueError("ideal context has no block split")
    r = ctx.split
    # a subsequence of canonical generators is canonical
    exps_a, exps_b = [], []
    for e in ideal.exps:
        in_a, in_b = any(e[:r]), any(e[r:])
        if in_a and in_b:
            raise ValueError(f"generator {Monomial(ctx, e)} mixes both blocks")
        (exps_b if in_b else exps_a).append(e)
    return MonomialIdeal(ctx, tuple(exps_a)), MonomialIdeal(ctx, tuple(exps_b))


# --- module expressions ----------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[()^+*/])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r} in module expression", None, pos + 1)
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


@dataclass
class _ExprParser:
    tokens: list[str]
    names: dict[str, MonomialIdeal]
    context: RingContext
    pos: int = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of module expression")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_module(self) -> QuotientModule:
        outer = self.parse_sum()
        if self.peek() == "/":
            self.take("/")
            inner = self.parse_sum()
        else:
            inner = MonomialIdeal.zero(self.context)
        if self.peek() is not None:
            raise ParseError(f"trailing token {self.peek()!r} in module expression")
        return QuotientModule(outer, inner)

    def parse_sum(self) -> MonomialIdeal:
        result = self.parse_product()
        while self.peek() == "+":
            self.take("+")
            result = result.add(self.parse_product())
        return result

    def parse_product(self) -> MonomialIdeal:
        result = self.parse_power()
        while self.peek() == "*":
            self.take("*")
            result = result.multiply(self.parse_power())
        return result

    def parse_power(self) -> MonomialIdeal:
        base = self.parse_atom()
        while self.peek() == "^":
            self.take("^")
            if self.peek() == "(":
                self.take("(")
                exp = self._int(self.take())
                self.take(")")
            else:
                exp = self._int(self.take())
            base = base.power(exp)
        return base

    def parse_atom(self) -> MonomialIdeal:
        tok = self.take()
        if tok == "(":
            inner = self.parse_sum()
            self.take(")")
            return inner
        if tok == "S":
            return MonomialIdeal.unit(self.context)
        if tok == "0":
            return MonomialIdeal.zero(self.context)
        if tok in self.names:
            return self.names[tok]
        raise ParseError(f"unknown ideal name {tok!r} in module expression")

    @staticmethod
    def _int(tok: str) -> int:
        if not tok.isdigit():
            raise ParseError(f"expected an integer exponent, found {tok!r}")
        return int(tok)


def parse_module_expr(
    text: str, names: dict[str, MonomialIdeal], context: RingContext
) -> QuotientModule:
    """Evaluate a module expression over named ideals in a common context."""
    return _ExprParser(_tokenize(text), names, context).parse_module()
