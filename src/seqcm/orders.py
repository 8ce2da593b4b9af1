"""Global monomial orders: grevlex and block elimination orders.

An order stores only its parameters: it eliminates exactly when its
``block`` is positive, and is grevlex otherwise, with at most one variable
(``last_var``) rotated to the smallest position.

An order is exposed as a sort key on exponent tuples, so ``max(terms,
key=order.sort_key(nvars))`` picks the leading monomial.  All orders here are
global (1 is minimal), total, and compatible with multiplication, which is
what the division algorithm and Buchberger's algorithm require.

Keys are memoised: ``sort_key`` hands out one key function per (order,
nvars), and each key function caches its values, so a monomial's key is
built once rather than on every ``max`` or ``sort``.  Both caches are
bounded LRUs (at most _KEY_FUNCTIONS functions of _KEYS_PER_FUNCTION keys
each), so they stay small whatever rings and orders a process sees, and
they fill lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import neg

_KEY_FUNCTIONS = 32  # cached key functions, one per (order, nvars)
_KEYS_PER_FUNCTION = 2048  # cached keys per key function


def _grevlex_key(exps):
    return (sum(exps), tuple(map(neg, reversed(exps))))


@dataclass(frozen=True)
class MonomialOrder:
    """Order parameters, hashable so they can key Groebner caches.

    ``block > 0`` makes a block elimination order: the first ``block``
    variables are compared grevlex first, so those leading variables are
    eliminated.  Otherwise the order is grevlex, and ``last_var`` (built by
    :meth:`variable_last`) rotates one chosen variable to the smallest
    position; that is plain grevlex after relabeling, and it puts any
    variable where the colon-by-variable and regular-form fast paths read
    it off the initial ideal.
    """

    block: int = 0
    last_var: int | None = None

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls()

    @classmethod
    def eliminate(cls, block: int) -> "MonomialOrder":
        if block < 1:
            raise ValueError("elimination block must contain a variable")
        return cls(block=block)

    @classmethod
    def variable_last(cls, var_index: int, nvars: int) -> "MonomialOrder":
        """Grevlex with ``var_index`` smallest: plain grevlex when it is the
        last variable already, so both spellings share one basis memo key."""
        if var_index == nvars - 1:
            return cls.grevlex()
        return cls(last_var=var_index)

    def sort_key(self, nvars: int):
        """Return a key function on exponent tuples of length ``nvars``.

        The function is shared by every caller asking for the same order and
        ``nvars``, and it memoises its values.
        """
        return _cached_key_function(self, nvars)

    def _uncached_key(self, nvars: int):
        if self.block:
            k = self.block
            if k >= nvars:
                raise ValueError("elimination block swallows the whole ring")
            return lambda e: _grevlex_key(e[:k]) + _grevlex_key(e[k:])
        if self.last_var is None:
            return _grevlex_key
        v = self.last_var
        if not (0 <= v < nvars):
            raise ValueError("rotated variable index out of range")
        return lambda e: _grevlex_key(e[:v] + e[v + 1 :] + (e[v],))


@lru_cache(maxsize=_KEY_FUNCTIONS)
def _cached_key_function(order: MonomialOrder, nvars: int):
    return lru_cache(maxsize=_KEYS_PER_FUNCTION)(order._uncached_key(nvars))
