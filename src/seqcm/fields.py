"""Exact coefficient fields: the rationals and prime residue fields.

A rational coefficient is a Python ``int`` when it is an integer and a
``fractions.Fraction`` otherwise; prime-field coefficients are :class:`ModP`
wrappers around a canonical residue in ``[0, p)``.  All of them support
``+``, ``-`` and ``*`` directly, and each field divides through its
``inverse`` (an ``int / int`` would be a float), so the polynomial layer
never needs to know which field it is working over.  A product of two
Fractions may be an integral Fraction; it equals and hashes as the int, so
no product is normalised.

The rationals are the default.  The generic-coordinate arguments used by the
grade and regularity procedures need "enough" field elements, so a prime
field should be large (p >= 2**16 recommended); tiny primes make the
randomized searches fail spuriously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class ModP:
    """A residue modulo a fixed prime, kept canonical in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __add__(self, other: "ModP") -> "ModP":
        return ModP(self.val + other.val, self.p)

    def __sub__(self, other: "ModP") -> "ModP":
        return ModP(self.val - other.val, self.p)

    def __mul__(self, other: "ModP") -> "ModP":
        return ModP(self.val * other.val, self.p)

    def __truediv__(self, other: "ModP") -> "ModP":
        return ModP(self.val * pow(other.val, -1, self.p), self.p)

    def __neg__(self) -> "ModP":
        return ModP(-self.val, self.p)

    def __bool__(self) -> bool:
        return self.val != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, ModP):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __str__(self):
        return str(self.val)

    def __repr__(self):
        return f"ModP({self.val}, {self.p})"


# Miller-Rabin with the first 13 primes as bases decides primality for every
# p below MAX_PRIME (Sorenson and Webster, Math. Comp. 86, 2017); larger p
# are refused rather than guessed.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers.  An element is an ``int`` when it is
    an integer and a ``Fraction`` when it is not; :meth:`of` and
    :meth:`inverse` return ints for integral values."""

    name = "QQ"
    zero = 0
    one = 1

    def of(self, value) -> int | Fraction:
        """Coerce an int, Fraction, or ``p/q`` string to an element, an int
        when it is integral."""
        if isinstance(value, int):
            return int(value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def inverse(self, x) -> int | Fraction:
        """1/x for a nonzero element x."""
        if isinstance(x, int):
            return x if x == 1 or x == -1 else Fraction(1, x)
        inv = 1 / x
        return inv.numerator if inv.denominator == 1 else inv

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PrimeField:
    """The residue field GF(p) for a prime 2 <= p < ``MAX_PRIME``."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_PRIME:
            raise ValueError(f"GF(p) needs p < {MAX_PRIME}, the primality test's bound")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    @property
    def zero(self) -> ModP:
        return ModP(0, self.p)

    @property
    def one(self) -> ModP:
        return ModP(1, self.p)

    def inverse(self, x: ModP) -> ModP:
        """1/x for a nonzero element x."""
        return self.one / x

    def of(self, value) -> ModP:
        if isinstance(value, ModP):
            if value.p != self.p:
                raise ValueError("residue from a different prime field")
            return value
        if isinstance(value, int):
            return ModP(value, self.p)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return ModP(value.numerator * pow(value.denominator, -1, self.p), self.p)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def __str__(self):
        return self.name


QQ = RationalField()


def field_from_name(name: str):
    """Inverse of the ``field.name`` labels used in problem files: ``QQ``,
    or ``GF(p)`` with p in ASCII digits."""
    if name == "QQ":
        return QQ
    prime = re.fullmatch(r"GF\(([0-9]+)\)", name)
    if prime is not None:
        return PrimeField(int(prime[1]))
    raise ValueError(f"unknown field {name!r}")
