"""Cohomological dimension, grade, and relative Cohen-Macaulayness.

Modules are subquotients A/B of ideals (the cyclic case S/I is A = (1),
B = I).  The invariants are taken with respect to a variable block: P (the
x variables), Q (the y variables), or m (all variables, giving the classical
depth/dimension theory).

cd is computed through dimension: cd(Q, S/I) = dim S/(I + P), and dually for
P; for the full block it is plain Krull dimension.  grade is the length of a
maximal regular sequence of linear forms in the block variables, found by a
seeded randomized search; over an infinite field a regular element of degree
one exists whenever the grade is positive (prime avoidance), which is why
the search is complete there.  Over a small prime field the search can
exhaust; use the rationals or a large prime.

Each step of the search draws candidate forms; once two have failed, H^0 of
the current quotient is decided exactly, and a nonzero H^0 ends the search.
That exact decision keeps grade seed independent.  grade <= cd holds for
every nonzero graded module (bigraded for P and Q), so
:func:`is_relative_cm`, which computes cd first, stops the search as soon as
the sequence has cd forms: the terminal step could only have proven
H^0 != 0.  cd is read off dimension only for such modules, so
:func:`is_relative_cm` rejects any other input.

The regular-element test is (B : l) ∩ A ⊆ B, a pure Groebner computation.
For cyclic homogeneous modules the test is accelerated by a linear change of
coordinates sending l to the last variable, where regularity is visible on
the initial ideal; the elimination-based test remains the reference and the
two are compared in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CertificateVerificationError,
    NoRegularFormError,
    NotBihomogeneousError,
    UndecidableByRulesError,
    ZeroModuleError,
)
from .groebner import Ideal, ideal_quotient, intersect, krull_dim
from .poly import BigradedRing, Polynomial

RETRY_BUDGET = 32
_EXACT_H0_AFTER = 1  # decide H^0 exactly once two candidates have failed


class VariableBlock(Enum):
    """P = x block, Q = y block, M = all variables (the graded maximal ideal)."""

    P = "P"
    Q = "Q"
    M = "m"

    @classmethod
    def from_tag(cls, tag: str) -> "VariableBlock":
        for member in cls:
            if member.value == tag:
                return member
        raise ValueError(f"unknown block {tag!r}; expected P, Q, or m")

    def variable_indices(self, ring: BigradedRing) -> tuple:
        if self is VariableBlock.P:
            return tuple(ring.x_range)
        if self is VariableBlock.Q:
            return tuple(ring.y_range)
        return tuple(ring.x_range) + tuple(ring.y_range)

    def ideal(self, ring: BigradedRing) -> Ideal:
        return Ideal(ring, tuple(ring.gen(i) for i in self.variable_indices(ring)))

    def complement_ideal(self, ring: BigradedRing) -> Ideal:
        """The ideal to add before taking dimension: Q for P, P for Q, 0 for m."""
        if self is VariableBlock.P:
            return VariableBlock.Q.ideal(ring)
        if self is VariableBlock.Q:
            return VariableBlock.P.ideal(ring)
        return Ideal.zero(ring)

    def swapped(self) -> "VariableBlock":
        if self is VariableBlock.P:
            return VariableBlock.Q
        if self is VariableBlock.Q:
            return VariableBlock.P
        return self


class IdealPair:
    """An ordered pair B ⊆ A of ideals representing the module A/B."""

    __slots__ = ("a", "b")

    def __init__(self, a: Ideal, b: Ideal, *, _trusted: bool = False):
        if a.ring != b.ring:
            raise ValueError("ideals from different rings")
        if not _trusted and not a.contains_ideal(b):
            raise ValueError("lower ideal is not contained in the upper ideal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *_):
        raise AttributeError("IdealPair is immutable")

    @classmethod
    def cyclic(cls, ideal: Ideal) -> "IdealPair":
        return cls(Ideal.unit(ideal.ring), ideal, _trusted=True)

    @property
    def ring(self) -> BigradedRing:
        return self.a.ring

    def is_cyclic(self) -> bool:
        return self.a.is_unit_ideal()

    def is_zero_module(self) -> bool:
        return self.b.contains_ideal(self.a)

    def mod_form(self, ell: Polynomial) -> "IdealPair":
        """The pair for (A/B)/(l·(A/B)) = A/(B + l·A)."""
        return IdealPair(self.a, self.b + self.a.scaled_by(ell), _trusted=True)

    def is_graded_for(self, block: "VariableBlock") -> bool:
        """Whether A/B is bigraded (for P and Q) or graded (for m), which is
        what the cd formulas and the bound grade <= cd need."""
        if block is VariableBlock.M:
            return self.a.is_homogeneous() and self.b.is_homogeneous()
        return all(g.is_bihomogeneous() for g in self.a.gens + self.b.gens)

    def block_swapped(self) -> "IdealPair":
        target = self.ring.swapped()
        swap = lambda ideal: Ideal(target, tuple(g.block_swapped(target) for g in ideal.gens))
        return IdealPair(swap(self.a), swap(self.b), _trusted=True)

    def __repr__(self):
        return f"IdealPair(A={self.a!r}, B={self.b!r})"


@dataclass(frozen=True)
class GradeWitness:
    grade: int
    regular_sequence: tuple


@dataclass(frozen=True)
class CdGradeReport:
    cd: int
    grade: int
    relative_cm: bool
    regular_sequence: tuple

    def __post_init__(self):
        if self.grade > self.cd:
            raise CertificateVerificationError(
                f"inconsistent invariants: grade {self.grade} > cd {self.cd}"
            )


# ---- cohomological dimension ------------------------------------------------------


def cd_wrt(I: Ideal, block: VariableBlock) -> int:
    """cd(block, S/I) = dim of S/I modulo the complementary block."""
    if I.is_unit_ideal():
        raise ZeroModuleError("cd of the zero module is undefined")
    return krull_dim(I + block.complement_ideal(I.ring))


def cd_subquotient(
    pair: IdealPair, block: VariableBlock, *, quotient_unmixed: bool = False
) -> int:
    """cd of A/B by the decision rules (cyclic, exact sequence, unmixedness).

    Rules, in order: a cyclic pair delegates to :func:`cd_wrt`; if
    cd(S/B) > cd(S/A) the exact sequence 0 -> A/B -> S/B -> S/A -> 0 forces
    cd(A/B) = cd(S/B); if the caller certifies that S/B is relatively
    unmixed, every nonzero submodule of S/B has the same cd.  Anything else
    raises rather than guessing.
    """
    if pair.is_zero_module():
        raise ZeroModuleError("cd of the zero module is undefined")
    if pair.is_cyclic():
        return cd_wrt(pair.b, block)
    cd_b = cd_wrt(pair.b, block)
    if not quotient_unmixed:
        cd_a = cd_wrt(pair.a, block)
        if cd_b > cd_a:
            return cd_b
        raise UndecidableByRulesError(
            "cd of a non-cyclic subquotient needs cd(S/B) > cd(S/A) "
            "or an unmixedness certificate for S/B"
        )
    return cd_b


# ---- H^0 and regular elements -----------------------------------------------------


def h0_is_zero(pair: IdealPair, block: VariableBlock) -> bool:
    """Whether H^0_block(A/B) = (sat(B) ∩ A)/B vanishes.

    Decided by the single colon round (B : block) ∩ A ⊆ B: a nonzero torsion
    submodule always contains an element killed by the block ideal itself,
    so the first round of the saturation already detects nonvanishing.  The
    test suite checks this against the full saturation route.
    """
    if pair.is_zero_module():
        raise ZeroModuleError("H^0 of the zero module")
    blk = block.ideal(pair.ring)
    if blk.is_zero_ideal():
        return False  # torsion functor of the zero ideal is the identity
    running = None
    for g in blk.gens:
        quotient = ideal_quotient(pair.b, g)
        running = quotient if running is None else intersect(running, quotient)
        if pair.b.contains_ideal(running):
            return True  # the full intersection is squeezed inside B already
    if pair.is_cyclic():
        return pair.b.contains_ideal(running)
    return pair.b.contains_ideal(intersect(running, pair.a))


def _linear_form(ring: BigradedRing, indices, coeffs) -> Polynomial:
    terms = {}
    for idx, c in zip(indices, coeffs):
        fc = ring.field.of(c)
        if fc:
            exps = tuple(1 if i == idx else 0 for i in range(ring.nvars))
            terms[exps] = fc
    return Polynomial._raw(ring, terms)


def _last_variable_substitution(ring: BigradedRing, ell: Polynomial) -> Polynomial:
    """The replacement making the coordinate change send l to the last variable."""
    last = ring.nvars - 1
    coeff_last = None
    rest = []
    for exps, c in ell.terms.items():
        i = exps.index(1)
        if i == last:
            coeff_last = c
        else:
            rest.append((i, c))
    inv = ring.field.one / coeff_last
    repl_terms = {tuple(1 if i == last else 0 for i in range(ring.nvars)): inv}
    for i, c in rest:
        repl_terms[tuple(1 if j == i else 0 for j in range(ring.nvars))] = -c * inv
    return Polynomial._raw(ring, repl_terms)


def _regular_via_last_variable(pair: IdealPair, ell: Polynomial) -> bool:
    """Regularity of l on A/B in coordinates where l becomes the last variable.

    Needs homogeneous B and a nonzero coefficient of l on the last ring
    variable.  On a cyclic module, l is regular iff no minimal generator of
    the transformed initial ideal (grevlex) involves the last variable; on a
    general pair the colon by the last variable is read off the same basis
    and intersected with the transformed A.
    """
    ring = pair.ring
    last = ring.nvars - 1
    repl = _last_variable_substitution(ring, ell)
    b_t = Ideal(ring, [g.substitute_variable(last, repl) for g in pair.b.gens])
    if pair.is_cyclic():
        return all(lm[last] == 0 for lm in b_t.leading_monomials())
    from .groebner import colon_by_variable

    quotient = colon_by_variable(b_t, last)
    a_t = Ideal(ring, [g.substitute_variable(last, repl) for g in pair.a.gens])
    return b_t.contains_ideal(intersect(quotient, a_t))


def is_regular_form(pair: IdealPair, ell: Polynomial) -> bool:
    """Exact test that l is a nonzerodivisor on A/B: (B : l) ∩ A ⊆ B."""
    if not ell:
        return False
    ring = pair.ring
    last = ring.nvars - 1
    linear = all(sum(e) == 1 for e in ell.terms)
    if linear and pair.b.is_homogeneous() and any(e[last] for e in ell.terms):
        return _regular_via_last_variable(pair, ell)
    quot = ideal_quotient(pair.b, ell)
    if pair.is_cyclic():
        return pair.b.contains_ideal(quot)
    return pair.b.contains_ideal(intersect(quot, pair.a))


def _draw_form(ring, indices, rng, span, prefer_last_nonzero):
    while True:
        coeffs = [rng.randint(-span, span) for _ in indices]
        if prefer_last_nonzero and indices and indices[-1] == ring.nvars - 1:
            while coeffs[-1] == 0:
                coeffs[-1] = rng.randint(-span, span)
        ell = _linear_form(ring, indices, coeffs)
        if ell:
            return ell


def find_regular_linear_form(
    pair: IdealPair, block: VariableBlock, seed: int = 0
) -> Polynomial:
    """A linear form in the block variables that is regular on A/B.

    Coefficients come from a deterministic stream seeded by ``seed``; the
    integer range widens on every retry.  Precondition: H^0 of the pair
    vanishes, so a regular form exists over a large enough field.
    """
    if block is VariableBlock.P and pair.ring.m >= 1:
        swapped = find_regular_linear_form(
            pair.block_swapped(), VariableBlock.Q, seed
        )
        return swapped.block_swapped(pair.ring)
    rng = random.Random(seed)
    ell = _search_regular_form(pair, block, rng, check_h0=False)
    if ell is None:
        raise NoRegularFormError(
            "no regular linear form found within the retry budget; "
            "the module either has H^0 != 0 or the field is too small"
        )
    return ell


def _search_regular_form(pair, block, rng, *, check_h0: bool):
    """Regular form for one grade step, or None once H^0 != 0 is proven.

    When ``check_h0`` is set, an exact test decides H^0 once
    ``_EXACT_H0_AFTER + 1`` candidates have failed, keeping the grade value
    itself seed independent.  A regular form drawn before that skips the
    test: it proves H^0 = 0 on its own.
    """
    ring = pair.ring
    indices = block.variable_indices(ring)
    if not indices:
        return None  # zero block: H^0 is the whole (nonzero) module
    h0_known_zero = False
    prefer_last = pair.b.is_homogeneous()
    for attempt in range(RETRY_BUDGET):
        span = 1 + attempt
        ell = _draw_form(ring, indices, rng, span, prefer_last)
        if is_regular_form(pair, ell):
            return ell
        if check_h0 and not h0_known_zero and attempt >= _EXACT_H0_AFTER:
            if not h0_is_zero(pair, block):
                return None
            h0_known_zero = True
    if check_h0 and not h0_known_zero and not h0_is_zero(pair, block):
        return None
    raise NoRegularFormError(
        "regular linear forms exist but none was found within the retry "
        "budget; rerun over the rationals or a larger prime field"
    )


def grade_wrt(
    pair: IdealPair, block: VariableBlock, seed: int = 0, *, _stop: int | None = None
) -> GradeWitness:
    """grade(block, A/B) with the regular sequence that witnesses it.

    Zero when H^0 is nonzero; otherwise one more than the grade of
    A/(B + l·A) for a regular linear form l.  The search runs until H^0 of
    the remaining quotient is proven nonzero, bounded only by the block
    size.  The returned value is seed independent (H^0 is decided exactly
    whenever a step ends); only the witness depends on the seed.

    ``_stop`` (for callers that know cd, such as :func:`is_relative_cm`)
    ends the search once the sequence has that many forms.  Since
    grade <= cd, a search stopped at cd skips only the terminal step, which
    could do nothing but prove H^0 != 0; the forms drawn before it come from
    the same stream, so the witness is unchanged.  The bound grade <= cd
    holds only for modules graded for the block (bigraded for P and Q), so
    any other pair ignores ``_stop`` and runs the full search.
    """
    if pair.is_zero_module():
        raise ZeroModuleError("grade of the zero module is undefined")
    if _stop is not None and not pair.is_graded_for(block):
        _stop = None
    if block is VariableBlock.P and pair.ring.m >= 1:
        inner = grade_wrt(pair.block_swapped(), VariableBlock.Q, seed, _stop=_stop)
        back = tuple(f.block_swapped(pair.ring) for f in inner.regular_sequence)
        return GradeWitness(inner.grade, back)
    rng = random.Random(seed)
    current = pair
    sequence = []
    bound = len(block.variable_indices(pair.ring))
    while _stop is None or len(sequence) < _stop:
        ell = _search_regular_form(current, block, rng, check_h0=True)
        if ell is None:
            break
        sequence.append(ell)
        current = current.mod_form(ell)
        if len(sequence) > bound:
            raise NoRegularFormError(
                "regular sequence exceeded the block size; inconsistent state"
            )
    return GradeWitness(len(sequence), tuple(sequence))


def is_relative_cm(
    pair: IdealPair,
    block: VariableBlock,
    seed: int = 0,
    *,
    quotient_unmixed: bool = False,
) -> CdGradeReport:
    """grade, cd, and the relative Cohen-Macaulay verdict grade == cd.

    cd comes first and bounds the grade search: grade <= cd holds for every
    nonzero graded module, so once the regular sequence has cd forms the
    verdict is known and the terminal search (failed candidates plus an
    exact H^0 proof) is skipped.  The grade and regular sequence equal those
    of an unstopped :func:`grade_wrt` with the same seed.

    Raises :class:`NotBihomogeneousError` unless A/B is bigraded (graded for
    the m block): cd's dimension formula and grade <= cd hold only then.
    """
    if not pair.is_graded_for(block):
        raise NotBihomogeneousError(
            f"the module is not graded for the block {block.value}; relative CM "
            "is decided for bigraded modules (graded ones for m)"
        )
    cd = cd_subquotient(pair, block, quotient_unmixed=quotient_unmixed)
    witness = grade_wrt(pair, block, seed, _stop=cd)
    return CdGradeReport(
        cd=cd,
        grade=witness.grade,
        relative_cm=witness.grade == cd,
        regular_sequence=witness.regular_sequence,
    )
