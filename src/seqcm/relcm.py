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
:func:`cd_wrt`, :func:`grade_wrt` and :func:`is_relative_cm` reject any
other input.

For a principal cyclic module S/fS and the block P or Q, both invariants
are known in closed form, and :func:`is_relative_cm` uses them instead:
with f of bidegree (a, b), a + b > 0, and n variables in Q,
cd(Q, S/fS) = n - [a = 0] (f lies in P unless a = 0, so
dim S/(f, P) is n or n - 1) and grade(Q, S/fS) = n - [b > 0].  For the
grade, f is S-regular, so grade >= n - 1, and 0 -> S(-a,-b) -> S -> S/fS -> 0
makes H^{n-1}_Q(S/fS) the kernel of f on H^n_Q(S)(-a,-b), which is nonzero
exactly when b > 0 (Bruns-Herzog, Cohen-Macaulay Rings, 3.5 with 1.6.17).
P is the mirror, with m for n and a, b exchanged.  The search then stops at
the known grade, so it needs no dimension and no terminal H^0 proof.

H^0 = 0 and the regularity of a form l are one colon condition,
(B : J) ∩ A ⊆ B for J the block ideal or (l).  H^0 takes one colon round of
:mod:`seqcm.groebner` by the block generators.  A linear l over homogeneous
B is tested after a linear change of coordinates sending l to its pivot,
the largest-index variable it involves; with the pivot last in grevlex,
regularity is visible on the initial ideal (Bayer-Stillman).  The P, Q and
m blocks share this one coordinate path: a drawn form's pivot is its
block's last variable.  The test suite keeps the elimination route of the
colon as the reference for both tests.
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
from .groebner import Ideal, _colon_ideal, colon_by_variable, intersect, krull_dim
from .orders import MonomialOrder
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


def _require_graded(pair: IdealPair, block: VariableBlock) -> None:
    """Reject A/B unless it is bigraded (graded for the m block): cd's
    dimension formula and the bound grade <= cd hold only then."""
    if not pair.is_graded_for(block):
        raise NotBihomogeneousError(
            f"the module is not graded for the block {block.value}; cd and grade "
            "are decided for bigraded modules (graded ones for m)"
        )


def cd_wrt(I: Ideal, block: VariableBlock) -> int:
    """cd(block, S/I) = dim of S/I modulo the complementary block."""
    _require_graded(IdealPair.cyclic(I), block)
    if I.is_unit_ideal():
        raise ZeroModuleError("cd of the zero module is undefined")
    return krull_dim(I + block.complement_ideal(I.ring))


def _principal_cd_grade(pair: IdealPair, block: VariableBlock):
    """(cd, grade) of S/fS for the block P or Q by the closed forms of the
    module docstring, or None unless the pair is cyclic and B has the one
    nonconstant generator f.  The caller has checked that f is
    bihomogeneous.  A ring with aux slots gets None, since the formulas do
    not count them."""
    if block is VariableBlock.M or len(pair.b.gens) != 1 or pair.ring.aux:
        return None
    f = pair.b.gens[0]
    if f.is_constant() or not pair.is_cyclic():
        return None
    a, b = f.bidegree()
    if block is VariableBlock.P:
        a, b = b, a
    n = len(block.variable_indices(pair.ring))
    return n - (a == 0), n - (b > 0)


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
    _require_graded(pair, block)
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

    Decided by the first colon round T = (B : block) of the saturation:
    H^0 = 0 iff T is B or T ∩ A ⊆ B.  A nonzero torsion submodule always
    contains an element killed by the block ideal itself, so one round
    detects nonvanishing.  The test suite checks this against the full
    saturation route.
    """
    if pair.is_zero_module():
        raise ZeroModuleError("H^0 of the zero module")
    blk = block.ideal(pair.ring)
    if blk.is_zero_ideal():
        return False  # torsion functor of the zero ideal is the identity
    torsion = _colon_ideal(pair.b, blk)
    return torsion is pair.b or pair.b.contains_ideal(intersect(torsion, pair.a))


def _linear_form(ring: BigradedRing, indices, coeffs) -> Polynomial:
    terms = {}
    for idx, c in zip(indices, coeffs):
        fc = ring.field.of(c)
        if fc:
            exps = tuple(1 if i == idx else 0 for i in range(ring.nvars))
            terms[exps] = fc
    return Polynomial._raw(ring, terms)


def _pivot_substitution(ring: BigradedRing, ell: Polynomial, pivot: int) -> Polynomial:
    """The replacement making the coordinate change send l to its pivot variable."""
    coeffs = {exps.index(1): c for exps, c in ell.terms.items()}
    inv = ring.field.one / coeffs.pop(pivot)
    others = [-c * inv for c in coeffs.values()]
    return _linear_form(ring, (pivot, *coeffs), (inv, *others))


def is_regular_form(pair: IdealPair, ell: Polynomial) -> bool:
    """Exact test that the linear form l is a nonzerodivisor on A/B:
    (B : l) ∩ A ⊆ B, for homogeneous B.

    A linear change of coordinates sends l to its pivot v, the
    largest-index variable of l.  With v last in grevlex, l is regular on a
    cyclic module iff no minimal generator of the transformed initial ideal
    involves v (Bayer-Stillman); on a general pair the colon by v is read
    off the same kind of basis and intersected with the transformed A.
    When v is the last ring variable, both tests ask for the plain grevlex
    basis (:meth:`MonomialOrder.variable_last`), the order and memo key the
    rest of the engine uses.  Raises ``ValueError`` unless l is linear and
    B homogeneous.
    """
    if not ell:
        return False
    if any(sum(e) != 1 for e in ell.terms) or not pair.b.is_homogeneous():
        raise ValueError("the regularity test needs a linear form and a homogeneous B")
    ring = pair.ring
    pivot = max(exps.index(1) for exps in ell.terms)
    repl = _pivot_substitution(ring, ell, pivot)
    b_t = Ideal(ring, [g.substitute_variable(pivot, repl) for g in pair.b.gens])
    if pair.is_cyclic():
        order = MonomialOrder.variable_last(pivot, ring.nvars)
        return all(lm[pivot] == 0 for lm in b_t.leading_monomials(order))
    quotient = colon_by_variable(b_t, pivot)
    a_t = Ideal(ring, [g.substitute_variable(pivot, repl) for g in pair.a.gens])
    return b_t.contains_ideal(intersect(quotient, a_t))


def _draw_form(ring, indices, rng, span):
    """A nonzero form, its last coefficient drawn nonzero (its pivot over QQ)."""
    while True:
        coeffs = [rng.randint(-span, span) for _ in indices]
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
    integer range widens on every retry.  This is the first step of
    :func:`grade_wrt`'s search, so it raises :class:`NoRegularFormError`
    when H^0 of the pair is nonzero (no form is regular) or when the retry
    budget runs out (the field is too small), and, like :func:`grade_wrt`,
    :class:`NotBihomogeneousError` unless A/B is bigraded (graded for m).
    """
    _require_graded(pair, block)
    ell = _search_regular_form(pair, block, random.Random(seed))
    if ell is None:
        raise NoRegularFormError(
            "H^0 of the module is nonzero, so no linear form is regular on it"
        )
    return ell


def _search_regular_form(pair, block, rng):
    """Regular form for one grade step, or None once H^0 != 0 is proven.

    An exact test decides H^0 once ``_EXACT_H0_AFTER + 1`` candidates have
    failed, keeping the grade value itself seed independent.  A regular
    form drawn before that skips the test: it proves H^0 = 0 on its own.
    The callers check that the pair is graded, as :func:`is_regular_form`
    needs.
    """
    ring = pair.ring
    indices = block.variable_indices(ring)
    if not indices:
        return None  # zero block: H^0 is the whole (nonzero) module
    for attempt in range(RETRY_BUDGET):
        ell = _draw_form(ring, indices, rng, 1 + attempt)
        if is_regular_form(pair, ell):
            return ell
        if attempt == _EXACT_H0_AFTER and not h0_is_zero(pair, block):
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
    the same stream, so the witness is unchanged.

    Raises :class:`NotBihomogeneousError` unless A/B is bigraded (graded for
    the m block), like :func:`cd_wrt`.
    """
    _require_graded(pair, block)
    if pair.is_zero_module():
        raise ZeroModuleError("grade of the zero module is undefined")
    rng = random.Random(seed)
    current = pair
    sequence = []
    bound = len(block.variable_indices(pair.ring))
    while _stop is None or len(sequence) < _stop:
        ell = _search_regular_form(current, block, rng)
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
    exact H^0 proof) is skipped.  For a principal S/fS and the block P or Q,
    cd and grade are read off the bidegree of f (see the module docstring):
    no dimension is computed, and the search stops at the known grade, so
    it skips the terminal H^0 proof even when grade < cd.  Either way the
    grade and regular sequence equal those of an unstopped
    :func:`grade_wrt` with the same seed.

    Raises :class:`NotBihomogeneousError` unless A/B is bigraded (graded for
    the m block): cd's dimension formula and grade <= cd hold only then.
    """
    _require_graded(pair, block)
    closed = _principal_cd_grade(pair, block)
    if closed is None:
        cd = stop = cd_subquotient(pair, block, quotient_unmixed=quotient_unmixed)
    else:
        cd, stop = closed
    witness = grade_wrt(pair, block, seed, _stop=stop)
    return CdGradeReport(
        cd=cd,
        grade=witness.grade,
        relative_cm=witness.grade == cd,
        regular_sequence=witness.regular_sequence,
    )
