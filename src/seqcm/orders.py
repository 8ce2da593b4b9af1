"""Global monomial orders: grevlex and block elimination orders.

An order is exposed as a sort key on exponent tuples, so ``max(terms,
key=order.sort_key(nvars))`` picks the leading monomial.  All orders here are
global (1 is minimal), total, and compatible with multiplication, which is
what the division algorithm and Buchberger's algorithm require.
"""

from __future__ import annotations

from dataclasses import dataclass

GREVLEX = "grevlex"
ELIMINATE = "block-eliminate"


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """Order tag plus parameters; hashable so it can key Groebner caches.

    ``block-eliminate`` compares the first ``block`` variables grevlex-first,
    so it eliminates those leading (auxiliary) variables.  ``last_var``
    selects a grevlex variant with one chosen variable rotated to the
    smallest position; it is plain grevlex after relabeling, and it puts any
    variable where the colon-by-variable and regular-form fast paths read it
    off the initial ideal.
    """

    tag: str = GREVLEX
    block: int = 0
    last_var: int | None = None

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(GREVLEX)

    @classmethod
    def eliminate(cls, block: int) -> "MonomialOrder":
        if block < 1:
            raise ValueError("elimination block must contain a variable")
        return cls(ELIMINATE, block=block)

    @classmethod
    def grevlex_last(cls, var_index: int) -> "MonomialOrder":
        return cls(GREVLEX, last_var=var_index)

    def sort_key(self, nvars: int):
        """Return a key function on exponent tuples of length ``nvars``."""
        if self.tag == ELIMINATE:
            k = self.block
            if k >= nvars:
                raise ValueError("elimination block swallows the whole ring")
            return lambda e: _grevlex_key(e[:k]) + _grevlex_key(e[k:])
        if self.tag == GREVLEX:
            if self.last_var is None:
                return _grevlex_key
            v = self.last_var
            if not (0 <= v < nvars):
                raise ValueError("rotated variable index out of range")
            return lambda e: _grevlex_key(e[:v] + e[v + 1 :] + (e[v],))
        raise ValueError(f"unknown order tag {self.tag!r}")

    def __str__(self):
        if self.tag == ELIMINATE:
            return f"{self.tag}({self.block})"
        if self.last_var is not None:
            return f"{self.tag}[last={self.last_var}]"
        return self.tag
