"""Sparse exact polynomials over a bigraded ring K[x1..xm, y1..yn].

Every x variable has bidegree (1,0) and every y variable (0,1).  A polynomial
is a map from exponent tuples to nonzero field elements; the zero polynomial
is the empty map, so equality is term-order independent.  Values are
immutable after construction and safe to share across threads.

A ring is ``BigradedRing(m, n, field)`` and nothing more: its variables are
laid out x1..xm then y1..yn, and its term order is grevlex on that layout
(the class constant ``order``).  Elimination needs one more variable, which
:mod:`seqcm.groebner` adds as an x variable of a ring with m + 1.

Text syntax: terms joined by ``+``/``-``, ``*`` for products, ``^`` for
powers, variables ``x1..xm``/``y1..yn``, integer or ``p/q`` coefficients,
parentheses allowed.  One token table (``_TOKEN``) reads the text: a
number is ``[0-9]+``, a name ``[A-Za-z][A-Za-z0-9_]*`` and a variable name
``[xy][0-9]+``, so any other digit or letter is an unexpected character.
Printing is canonical: terms in descending default order, exact
coefficients, so printing then parsing is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import NamedTuple

from .errors import (
    NotBihomogeneousError,
    ParseError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .fields import QQ, RationalField
from .orders import MonomialOrder

Monomial = tuple  # exponent tuple, one nonnegative int per ring variable
# Parentheses nest at most this deep in parsed text: each level takes four
# frames of the recursive-descent parser, so deeper input would exhaust the
# interpreter's recursion limit instead of raising a ParseError.
MAX_NESTING = 100
_VARIABLE = re.compile(r"([xy])([0-9]+)")


# The four hot helpers map C-level operators over the tuples: on 8-variable
# tuples that is 1.5 to 2.3 times faster than a generator expression.


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(add, u, v))


def mono_div(u: Monomial, v: Monomial) -> Monomial:
    """u / v, assuming v divides u."""
    return tuple(map(sub, u, v))


def mono_divides(u: Monomial, v: Monomial) -> bool:
    return all(map(le, u, v))


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(map(max, u, v))


def mono_degree(u: Monomial) -> int:
    return sum(u)


def mono_support(u: Monomial) -> frozenset:
    return frozenset(i for i, e in enumerate(u) if e)


class BiDegree(NamedTuple):
    a: int  # x-degree
    b: int  # y-degree

    def __add__(self, other):
        return BiDegree(self.a + other.a, self.b + other.b)

    def __str__(self):
        return f"({self.a}, {self.b})"


@dataclass(frozen=True)
class BigradedRing:
    """K[x1..xm, y1..yn]: the x block first, then the y block, ordered by
    grevlex on that layout."""

    m: int
    n: int
    field: object = QQ
    order = MonomialOrder()  # a class constant, not a field

    def __post_init__(self):
        if self.m < 0 or self.n < 1:
            raise ValueError("need m >= 0, n >= 1")

    @property
    def nvars(self) -> int:
        return self.m + self.n

    @property
    def x_range(self) -> range:
        return range(self.m)

    @property
    def y_range(self) -> range:
        return range(self.m, self.nvars)

    def variable_name(self, index: int) -> str:
        if index < self.m:
            return f"x{index + 1}"
        return f"y{index - self.m + 1}"

    def variable_index(self, name: str) -> int | None:
        """Index of ``x<i>``/``y<j>`` or None if out of range / unknown."""
        match = _VARIABLE.fullmatch(name)
        if match is None:
            return None
        i = int(match[2])
        if match[1] == "x":
            return i - 1 if 1 <= i <= self.m else None
        return self.m + i - 1 if 1 <= i <= self.n else None

    def sort_key(self):
        return self.order.sort_key(self.nvars)

    # ---- element constructors -------------------------------------------------

    def constant(self, value) -> "Polynomial":
        c = self.field.of(value)
        if not c:
            return self.zero()
        return Polynomial._raw(self, {(0,) * self.nvars: c})

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def gen(self, index: int) -> "Polynomial":
        if not (0 <= index < self.nvars):
            raise IndexError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(self.nvars))
        return Polynomial._raw(self, {exps: self.field.one})

    def x(self, i: int) -> "Polynomial":
        """x_i, 1-based."""
        if not (1 <= i <= self.m):
            raise IndexError(f"x{i} not in ring with m={self.m}")
        return self.gen(i - 1)

    def y(self, j: int) -> "Polynomial":
        """y_j, 1-based."""
        if not (1 <= j <= self.n):
            raise IndexError(f"y{j} not in ring with n={self.n}")
        return self.gen(self.m + j - 1)

    def monomial(self, exps, coeff=1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple")
        c = self.field.of(coeff)
        return Polynomial._raw(self, {exps: c}) if c else self.zero()

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __str__(self):
        return f"{self.field}[x1..x{self.m}, y1..y{self.n}]"


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: BigradedRing, terms):
        cleaned = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != ring.nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple")
            c = ring.field.of(coeff)
            if c:
                cleaned[exps] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def _raw(ring: BigradedRing, terms: dict) -> "Polynomial":
        """Trusted constructor: terms already canonical (no zeros, right width)."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # ---- predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.nvars}

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(e) for e in self.terms}
        return len(degs) <= 1

    def is_bihomogeneous(self) -> bool:
        return len({self._term_bidegree(e) for e in self.terms}) <= 1

    def _term_bidegree(self, exps) -> BiDegree:
        m = self.ring.m
        return BiDegree(sum(exps[:m]), sum(exps[m:]))

    def bidegree(self) -> BiDegree:
        """The common bidegree of all terms; needs a nonzero bihomogeneous input."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no bidegree")
        degs = {self._term_bidegree(e) for e in self.terms}
        if len(degs) > 1:
            shown = ", ".join(map(str, sorted(degs)))
            raise NotBihomogeneousError(f"terms of distinct bidegrees {shown} in {self}")
        return degs.pop()

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(mono_degree(e) for e in self.terms)

    def support_variables(self) -> frozenset:
        out = set()
        for e in self.terms:
            out.update(mono_support(e))
        return frozenset(out)

    # ---- arithmetic ------------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial._raw(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial._raw(self.ring, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, coeff) -> "Polynomial":
        c = self.ring.field.of(coeff)
        if not c:
            return self.ring.zero()
        return Polynomial._raw(self.ring, {e: v * c for e, v in self.terms.items()})

    def mul_term(self, coeff, mono: Monomial) -> "Polynomial":
        c = self.ring.field.of(coeff)
        if not c:
            return self.ring.zero()
        return Polynomial._raw(
            self.ring, {mono_mul(e, mono): v * c for e, v in self.terms.items()}
        )

    # ---- leading data ----------------------------------------------------------

    def leading_monomial(self, keyfn=None) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return max(self.terms, key=keyfn or self.ring.sort_key())

    def leading_coefficient(self, keyfn=None):
        return self.terms[self.leading_monomial(keyfn)]

    def monic(self, keyfn=None) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(keyfn)
        one = self.ring.field.one
        if lc == one:
            return self
        return self.scale(one / lc)

    def sorted_terms(self) -> list:
        """(monomial, coefficient) pairs in descending default order."""
        keyfn = self.ring.sort_key()
        return [(e, self.terms[e]) for e in sorted(self.terms, key=keyfn, reverse=True)]

    # ---- structural maps -------------------------------------------------------

    def substitute_variable(self, index: int, replacement: "Polynomial") -> "Polynomial":
        """Substitute ``replacement`` for the variable at ``index``."""
        self._check_ring(replacement)
        # replacement^k for each exponent k of the variable, built upward in
        # one loop, so that a high power needs no deep recursion.
        powers, power, have = {}, replacement, 1
        for wanted in sorted({e[index] for e in self.terms if e[index]}):
            while have < wanted:
                power, have = power * replacement, have + 1
            powers[wanted] = power
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k:
                base = e[:index] + (0,) + e[index + 1 :]
                images = [
                    (mono_mul(pe, base), c * pc) for pe, pc in powers[k].terms.items()
                ]
            else:
                images = [(e, c)]
            for m, v in images:
                s = out.get(m)
                out[m] = v if s is None else s + v
        return Polynomial._raw(self.ring, {m: c for m, c in out.items() if c})

    # ---- equality / hashing / printing -----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def canonical_key(self):
        """Hashable, order-deterministic identity (for memo tables)."""
        return tuple(sorted(self.terms.items(), key=lambda item: item[0]))

    def _format_monomial(self, exps) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = self.ring.variable_name(i)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        one = self.ring.field.one
        rational = isinstance(self.ring.field, RationalField)
        chunks = []
        for e, c in self.sorted_terms():
            negative = rational and c < 0
            mag = -c if negative else c
            mono = self._format_monomial(e)
            if not mono:
                body = str(mag)
            elif mag == one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# ---- parsing -------------------------------------------------------------------


# One alternative per token kind, tried in order.  Numbers and names are
# ASCII: str.isdigit and str.isalnum would also accept characters such as
# '²', which int() then rejects.  Any other character is a "bad" token.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<newline>\n)|(?P<space>\s)|(?P<bad>.)",
    re.DOTALL,
)


def _tokens(text: str, line: int, column: int) -> list:
    """(kind, text, line, column) of each token of ``text``, 1-based, then
    an ``end`` token; ``text`` starts at ``line`` and ``column``."""
    tokens = []
    origin = 1 - column  # the offset of column 1 on the current line
    for match in _TOKEN.finditer(text):
        kind, col = match.lastgroup, match.start() - origin + 1
        if kind == "newline":
            line, origin = line + 1, match.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", line, col)
        elif kind != "space":
            tokens.append((kind, match.group(), line, col))
    tokens.append(("end", "", line, len(text) - origin + 1))
    return tokens


def _shown(text: str) -> str:
    """A token as an error message names it: only the end token is empty."""
    return repr(text) if text else "end of input"


def parse_polynomial(
    ring: BigradedRing, text: str, line: int = 1, column: int = 1
) -> Polynomial:
    """Parse the textual polynomial syntax; raises :class:`ParseError` with position."""
    tokens = _tokens(text, line, column)[::-1]  # the next token is the last
    depth = 0  # parentheses open around the current atom

    def take(*ops) -> str | None:
        """Pop the next token and return its text if it is one of ``ops``."""
        kind, val, _, _ = tokens[-1]
        if kind == "op" and val in ops:
            tokens.pop()
            return val
        return None

    def parse_expr() -> Polynomial:
        acc, op = ring.zero(), take("+", "-") or "+"
        while op:
            rhs = parse_term()
            acc = acc - rhs if op == "-" else acc + rhs
            op = take("+", "-")
        return acc

    def parse_term() -> Polynomial:
        acc = parse_factor()
        while take("*"):
            acc = acc * parse_factor()
        return acc

    def parse_factor() -> Polynomial:
        base = parse_atom()
        if not take("^"):
            return base
        kind, val, ln, col = tokens.pop()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", ln, col)
        return base ** int(val)

    def parse_atom() -> Polynomial:
        nonlocal depth
        kind, val, ln, col = tokens.pop()
        if kind == "int":
            if not take("/"):
                return ring.constant(int(val))
            kind2, val2, ln2, col2 = tokens.pop()
            if kind2 != "int" or int(val2) == 0:
                raise ParseError("denominator must be a nonzero integer", ln2, col2)
            try:
                return ring.constant(Fraction(int(val), int(val2)))
            except ValueError:  # the denominator vanishes in GF(p)
                raise ParseError(
                    f"denominator {val2} is not invertible in {ring.field.name}", ln2, col2
                ) from None
        if kind == "name":
            idx = ring.variable_index(val)
            if idx is None:
                raise ParseError(
                    f"unknown variable {val!r} in ring with m={ring.m}, n={ring.n}",
                    ln,
                    col,
                )
            return ring.gen(idx)
        if kind == "op" and val == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", ln, col)
            depth += 1
            inner = parse_expr()
            kind, val, ln, col = tokens.pop()
            if kind != "op" or val != ")":
                raise ParseError(f"expected ')', found {_shown(val)}", ln, col)
            depth -= 1
            return inner
        raise ParseError(
            f"expected a coefficient, variable, or '(', found {_shown(val)}", ln, col
        )

    result = parse_expr()
    kind, val, ln, col = tokens[-1]
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", ln, col)
    return result
