"""Groebner engine and ideal calculus.

Buchberger's algorithm with Gebauer-Moller pair pruning and normal (minimal
lcm) selection, returning the unique reduced basis.  On top of it: ideal
membership, intersection (one more variable t and a block elimination
order), ideal quotient, saturation by rounds of colons (one round is the
H^0 test of :mod:`seqcm.relcm`), and Krull dimension via maximal
independent variable sets of the leading-term ideal.

Monomial ideals take combinatorial shortcuts everywhere (their reduced basis
is the minimal generator set, intersections are pairwise lcms, colons divide
exponents), and colons by a single variable of a homogeneous ideal are read
off a grevlex basis with that variable rotated last.  Each shortcut computes
the same ideal as the general elimination route; the test suite compares the
two on random inputs.

Reduced bases are memoized in a process-wide LRU of at most _GB_MEMO_SIZE
bases, keyed by ring, order, and the canonical generator list; an evicted
basis is recomputed on its next request, and the reduced basis is unique, so
eviction changes no result.  The memo is guarded by a lock so ideals can be
shared across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import combinations
from typing import Iterable, Sequence

from .errors import NotMonomialError, RingMismatchError, ZeroPolynomialError
from .orders import MonomialOrder
from .poly import (
    BigradedRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_support,
)

# ---- division ------------------------------------------------------------------


def _reduce_terms(terms: dict, reducers: list, keyfn, zero) -> dict:
    """Fully reduce a term dict by monic reducers [(lm, terms), ...]."""
    p = dict(terms)
    remainder = {}
    while p:
        m = max(p, key=keyfn)
        c = p.pop(m)
        hit = None
        for lm, body in reducers:
            if mono_divides(lm, m):
                hit = (lm, body)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, body = hit
        shift = mono_div(m, lm)
        for bm, bc in body.items():
            if bm == lm:
                continue
            e = mono_mul(bm, shift)
            s = p.get(e, zero) - c * bc
            if s:
                p[e] = s
            elif e in p:
                del p[e]
    return remainder


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder | None = None
) -> Polynomial:
    """Remainder of ``f`` on division by a Groebner basis.

    No term of the result is divisible by a leading term of the basis, and
    the map is idempotent.  The basis is trusted to be a Groebner basis for
    its ideal under ``order``.
    """
    ring = f.ring
    keyfn = (order or ring.order).sort_key(ring.nvars)
    reducers = []
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("basis element from a different ring")
        if g:
            lm = g.leading_monomial(keyfn)
            lc = g.terms[lm]
            body = g.terms if lc == ring.field.one else g.scale(ring.field.one / lc).terms
            reducers.append((lm, body))
    out = _reduce_terms(f.terms, reducers, keyfn, ring.field.zero)
    return Polynomial._raw(ring, out)


def exact_div(g: Polynomial, f: Polynomial) -> Polynomial:
    """The quotient g/f when f divides g exactly."""
    if not f:
        raise ZeroPolynomialError("division by the zero polynomial")
    ring = g.ring
    keyfn = ring.sort_key()
    lmf = f.leading_monomial(keyfn)
    lcf = f.terms[lmf]
    p = dict(g.terms)
    quotient = {}
    while p:
        m = max(p, key=keyfn)
        c = p.pop(m)
        if not mono_divides(lmf, m):
            raise ValueError(f"{f} does not divide {g}")
        shift = mono_div(m, lmf)
        q = c / lcf
        quotient[shift] = q
        for bm, bc in f.terms.items():
            if bm == lmf:
                continue
            e = mono_mul(bm, shift)
            s = p.get(e, ring.field.zero) - q * bc
            if s:
                p[e] = s
            elif e in p:
                del p[e]
    return Polynomial._raw(ring, quotient)


# ---- Buchberger ------------------------------------------------------------------


def _monic_terms(terms: dict, one) -> tuple:
    """(lead, monic terms) of a remainder from :func:`_reduce_terms`.

    The remainder collects its terms in descending order, so its first key
    is the leading monomial.
    """
    lm = next(iter(terms))
    lc = terms[lm]
    if lc != one:
        inv = one / lc
        terms = {e: c * inv for e, c in terms.items()}
    return lm, terms


def _spoly_terms(f: dict, lf: tuple, g: dict, lg: tuple) -> dict:
    """S-polynomial term dict for monic f, g with leads lf, lg."""
    lcm = mono_lcm(lf, lg)
    sf = mono_div(lcm, lf)
    sg = mono_div(lcm, lg)
    out = {}
    for e, c in f.items():
        out[mono_mul(e, sf)] = c
    for e, c in g.items():
        e2 = mono_mul(e, sg)
        s = out.get(e2)
        s = -c if s is None else s - c
        if s:
            out[e2] = s
        elif e2 in out:
            del out[e2]
    return out


def _update_pairs(G: list, B: list, lmh: tuple, h: dict, keyfn):
    """Gebauer-Moller pair update: append (lmh, h) to G, prune and extend B.

    G holds (lead, monic terms); B holds (key of lcm, lcm, i, j) with i < j
    indices into G.  The three classic criteria are applied: new pairs whose
    lcm is a multiple of another new pair's lcm are dropped, coprime lead
    pairs are dropped, and old pairs strictly superseded by the new element
    are dropped.
    """
    t = len(G)
    lms = [lm for lm, _ in G]

    candidates = list(range(t))
    lcms = {i: mono_lcm(lms[i], lmh) for i in candidates}
    kept: list[int] = []
    while candidates:
        i = candidates.pop()
        li = lcms[i]
        coprime = li == mono_mul(lms[i], lmh)
        dominated = any(mono_divides(lcms[j], li) for j in candidates) or any(
            mono_divides(lcms[j], li) for j in kept
        )
        if coprime or not dominated:
            kept.append(i)
    new_pairs = [
        (keyfn(lcms[i]), lcms[i], i, t)
        for i in kept
        if lcms[i] != mono_mul(lms[i], lmh)
    ]

    surviving = []
    for pair in B:
        _, lcm_ij, i, j = pair
        if (
            not mono_divides(lmh, lcm_ij)
            or mono_lcm(lms[i], lmh) == lcm_ij
            or mono_lcm(lms[j], lmh) == lcm_ij
        ):
            surviving.append(pair)
    B[:] = surviving + new_pairs
    G.append((lmh, h))


def _autoreduce(G: list, keyfn, ring: BigradedRing) -> tuple:
    """The reduced basis from a Groebner basis G of (lead, monic terms).

    Elements whose lead another element's lead divides are dropped, which
    leaves a minimal basis.  One tail-reduction pass then makes it reduced:
    reducing an element by the others never changes its lead (no other lead
    divides it), so the leads every later reduction divides by stay fixed
    (Cox-Little-O'Shea, section 2.7).
    """
    current = sorted(G, key=lambda item: keyfn(item[0]))
    minimal = []
    for lm, terms in current:
        if not any(mono_divides(q, lm) for q, _ in minimal):
            minimal.append((lm, terms))
    zero = ring.field.zero
    for i, (lm, terms) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        minimal[i] = (lm, _reduce_terms(terms, others, keyfn, zero))
    return tuple(Polynomial._raw(ring, terms) for _, terms in reversed(minimal))


def _minimal_monomials(monos: Iterable[tuple]) -> tuple:
    """Minimal elements of a set of monomials under divisibility."""
    uniq = sorted(set(monos), key=lambda e: (sum(e), e))
    out = []
    for m in uniq:
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return tuple(out)


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> tuple:
    """The reduced Groebner basis of the ideal generated by ``gens``."""
    polys = [g for g in gens if g]
    if not polys:
        return ()
    ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    order = order or ring.order
    keyfn = order.sort_key(ring.nvars)
    one = ring.field.one

    if all(p.is_monomial() for p in polys):
        # Monomial ideals: the reduced basis is the minimal generator set,
        # independent of the order.
        monos = sorted(
            _minimal_monomials(e for p in polys for e in p.terms),
            key=keyfn,
            reverse=True,
        )
        return tuple(Polynomial._raw(ring, {m: one}) for m in monos)

    G: list[tuple] = []  # (lead, monic terms); G doubles as the reducer list
    B: list[tuple] = []
    zero = ring.field.zero

    for f in sorted(polys, key=lambda p: keyfn(p.leading_monomial(keyfn))):
        r = _reduce_terms(f.terms, G, keyfn, zero)
        if r:
            _update_pairs(G, B, *_monic_terms(r, one), keyfn)

    while B:
        best = min(range(len(B)), key=lambda k: B[k][0])
        _, _, i, j = B.pop(best)
        (li, gi), (lj, gj) = G[i], G[j]
        r = _reduce_terms(_spoly_terms(gi, li, gj, lj), G, keyfn, zero)
        if r:
            _update_pairs(G, B, *_monic_terms(r, one), keyfn)

    return _autoreduce(G, keyfn, ring)


# ---- ideals ----------------------------------------------------------------------

_GB_MEMO_SIZE = 1024  # reduced bases kept process-wide, least recently used evicted
_GB_MEMO: OrderedDict = OrderedDict()
_GB_LOCK = threading.Lock()


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases."""

    __slots__ = ("ring", "gens", "_bases", "_gens_key")

    def __init__(self, ring: BigradedRing, gens: Iterable[Polynomial] = ()):
        kept = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if g:
                kept.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(kept))
        object.__setattr__(self, "_bases", {})
        object.__setattr__(self, "_gens_key", None)

    def __setattr__(self, *_):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def unit(cls, ring: BigradedRing) -> "Ideal":
        return cls(ring, (ring.one(),))

    @classmethod
    def zero(cls, ring: BigradedRing) -> "Ideal":
        return cls(ring, ())

    def _presentation(self) -> tuple:
        """(ring, canonical generator keys): the identity of the
        presentation, shared by ``==``, ``hash`` and the basis memo."""
        key = self._gens_key
        if key is None:
            key = (self.ring, tuple(g.canonical_key() for g in self.gens))
            object.__setattr__(self, "_gens_key", key)
        return key

    def __eq__(self, other) -> bool:
        """Presentation equality: same ring, same generators in the same
        order.  :meth:`equals` is the ideal-theoretic comparison."""
        if not isinstance(other, Ideal):
            return NotImplemented
        return self is other or self._presentation() == other._presentation()

    def __hash__(self):
        return hash(self._presentation())

    def groebner_basis(self, order: MonomialOrder | None = None) -> tuple:
        order = order or self.ring.order
        cached = self._bases.get(order)
        if cached is not None:
            return cached
        key = (order, self._presentation())
        with _GB_LOCK:
            cached = _GB_MEMO.get(key)
            if cached is not None:
                _GB_MEMO.move_to_end(key)
        if cached is None:
            cached = buchberger(self.gens, order)
            with _GB_LOCK:
                _GB_MEMO[key] = cached
                if len(_GB_MEMO) > _GB_MEMO_SIZE:
                    _GB_MEMO.popitem(last=False)
        self._bases[order] = cached
        return cached

    def leading_monomials(self, order: MonomialOrder | None = None) -> tuple:
        order = order or self.ring.order
        keyfn = order.sort_key(self.ring.nvars)
        return tuple(g.leading_monomial(keyfn) for g in self.groebner_basis(order))

    # ---- predicates ----------------------------------------------------------

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit_ideal(self) -> bool:
        if not self.gens:
            return False
        if any(g.is_constant() for g in self.gens):
            return True
        if self.is_homogeneous():
            return False  # nonconstant forms lie in the ideal of the variables
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def is_monomial_ideal(self) -> bool:
        return all(g.is_monomial() for g in self.gens)

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def minimal_monomial_generators(self) -> tuple:
        """Exponent tuples of the unique minimal monomial generators."""
        if not self.is_monomial_ideal():
            raise NotMonomialError(f"{self} is not a monomial ideal")
        return _minimal_monomials(e for g in self.gens for e in g.terms)

    # ---- membership and comparisons -------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("element from a different ring")
        if not f:
            return True
        if f.is_constant():  # a unit: no basis needed for a homogeneous ideal
            return self.is_unit_ideal()
        if self.is_monomial_ideal():  # divisibility by any generator will do
            monos = [m for g in self.gens for m in g.terms]
            return all(
                any(mono_divides(m, e) for m in monos) for e in f.terms
            )
        return not normal_form(f, self.groebner_basis(), self.ring.order)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        if self is other:
            return True
        if self.ring != other.ring:
            return False
        if self.is_monomial_ideal() and other.is_monomial_ideal():
            return self.minimal_monomial_generators() == other.minimal_monomial_generators()
        return self.groebner_basis() == other.groebner_basis()

    # ---- algebra ----------------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def scaled_by(self, f: Polynomial) -> "Ideal":
        """The product ideal f * I."""
        return Ideal(self.ring, tuple(f * g for g in self.gens))

    def generator_strings(self) -> tuple:
        if not self.gens:
            return ("0",)
        return tuple(str(g) for g in self.gens)

    def __repr__(self):
        inside = ", ".join(self.generator_strings())
        return f"Ideal({inside})"


# ---- elimination-based calculus ---------------------------------------------------


def _monomial_ideal(ring: BigradedRing, monos) -> Ideal:
    one = ring.field.one
    return Ideal(ring, tuple(Polynomial._raw(ring, {m: one}) for m in monos))


def _intersect_monomials(a: tuple, b: tuple) -> tuple:
    """Minimal generators of the intersection of two monomial ideals, given
    by theirs: the minimal pairwise lcms."""
    return _minimal_monomials(mono_lcm(u, v) for u in a for v in b)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J: unit, zero and monomial inputs directly, the others by
    :func:`_intersect_by_elimination`."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals from different rings")
    if I.is_unit_ideal():
        return J
    if J.is_unit_ideal():
        return I
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal.zero(I.ring)
    if I.is_monomial_ideal() and J.is_monomial_ideal():
        return _monomial_ideal(
            I.ring,
            _intersect_monomials(
                I.minimal_monomial_generators(), J.minimal_monomial_generators()
            ),
        )
    return _intersect_by_elimination(I, J)


def _intersect_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J as the t-free part of the basis of t*I + (1-t)*J under
    ``eliminate(1)``, for t the variable 0 of BigradedRing(m + 1, n): a
    generator is lifted by prepending a 0 exponent."""
    ring = I.ring
    ext = BigradedRing(ring.m + 1, ring.n, ring.field)
    t = ext.gen(0)
    one_minus_t = ext.one() - t

    def lift(g: Polynomial) -> Polynomial:
        return Polynomial._raw(ext, {(0,) + e: c for e, c in g.terms.items()})

    gens = [t * lift(g) for g in I.gens] + [one_minus_t * lift(g) for g in J.gens]
    kept = []
    for g in buchberger(gens, MonomialOrder.eliminate(1)):
        if all(e[0] == 0 for e in g.terms):
            kept.append(Polynomial._raw(ring, {e[1:]: c for e, c in g.terms.items()}))
    return Ideal(ring, kept)


def _colon_basis(basis, var_index: int, keyfn) -> list:
    """A basis of (I : v) read off the basis of the homogeneous ideal I
    under a grevlex order ``keyfn`` with v last: in(I : v) = in(I) : v, and
    every basis element whose lead v divides is divisible by v outright, so
    those elements divided by v and the others as they are."""
    out = []
    for g in basis:
        lead = g.leading_monomial(keyfn)
        if lead[var_index]:
            if any(e[var_index] == 0 for e in g.terms):
                raise ValueError("colon_by_variable needs a homogeneous ideal")
            v = tuple(int(i == var_index) for i in range(len(lead)))
            g = Polynomial._raw(g.ring, {mono_div(e, v): c for e, c in g.terms.items()})
        out.append(g)
    return out


def colon_by_variable(I: Ideal, var_index: int) -> Ideal:
    """(I : v) for a single variable v, assuming I is homogeneous: the
    basis with v rotated to the smallest grevlex position, read by
    :func:`_colon_basis`."""
    ring = I.ring
    order = MonomialOrder.variable_last(var_index, ring.nvars)
    basis = I.groebner_basis(order)
    return Ideal(ring, _colon_basis(basis, var_index, order.sort_key(ring.nvars)))


def _as_variable_index(f: Polynomial) -> int | None:
    if len(f.terms) != 1:
        return None
    (exps,) = f.terms
    if sum(exps) != 1:
        return None
    return exps.index(1)


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) = {g : g*f in I}, via (I ∩ (f)) / f."""
    if not f:
        raise ZeroPolynomialError("colon by zero")
    if f.ring != I.ring:
        raise RingMismatchError("operands from different rings")
    if f.is_constant():
        return I
    if I.is_zero_ideal():
        return I
    if I.is_unit_ideal():
        return Ideal.unit(I.ring)
    if I.is_monomial_ideal() and f.is_monomial():
        (fe,) = f.terms
        monos = _minimal_monomials(
            tuple(max(a - b, 0) for a, b in zip(m, fe))
            for m in I.minimal_monomial_generators()
        )
        return _monomial_ideal(I.ring, monos)
    v = _as_variable_index(f)
    if v is not None and I.is_homogeneous():
        return colon_by_variable(I, v)
    inter = intersect(I, Ideal(I.ring, (f,)))
    return Ideal(I.ring, tuple(exact_div(g, f) for g in inter.gens))


def _colon_ideal(I: Ideal, J: Ideal) -> Ideal:
    """One colon round (I : J) = ∩_g (I : g) over the generators g of J, or
    I itself (the same object) once the running intersection lies inside I:
    every (I : g) contains I, so then the whole intersection is I."""
    running = None
    for g in J.gens:
        quotient = ideal_quotient(I, g)
        running = quotient if running is None else intersect(running, quotient)
        if I.contains_ideal(running):
            return I
    return running


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity): colon rounds I <- (I : J) until one adds nothing.
    A saturated I is returned itself, the same object."""
    if J.is_zero_ideal():
        raise ZeroPolynomialError("saturation by the zero ideal")
    current = I
    while True:
        step = _colon_ideal(current, J)
        if step is current:
            return current
        current = step


def krull_dim(I: Ideal) -> int:
    """dim S/I as the maximum size of an independent set of variables.

    A set U is independent when no leading monomial of the reduced basis is
    supported inside U.  A monomial ideal is its own initial ideal, so its
    generators as given serve, with no basis.  For the unit ideal (the zero
    ring) the sentinel -1 is returned.
    """
    ring = I.ring
    nv = ring.nvars
    if I.is_monomial_ideal():
        monos = [m for g in I.gens for m in g.terms]
    else:
        monos = I.leading_monomials()
    supports = [mono_support(m) for m in monos]
    if frozenset() in supports:
        return -1  # unit ideal: the zero ring
    # A variable that is itself a leading monomial lies in no independent set.
    dead = {v for s in supports if len(s) == 1 for v in s}
    supports = [s for s in supports if not s & dead]
    variables = [v for v in range(nv) if v not in dead]
    if not supports:
        return len(variables)
    for size in range(len(variables), 0, -1):
        for combo in combinations(variables, size):
            u = frozenset(combo)
            if not any(s <= u for s in supports):
                return size
    return 0
