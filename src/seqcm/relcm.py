"""Cohomological dimension, grade, and relative Cohen-Macaulayness.

Modules are subquotients A/B of ideals (the cyclic case S/I is A = (1),
B = I).  The invariants are taken with respect to a variable block: P (the
x variables), Q (the y variables), or m (all variables, giving the classical
depth/dimension theory).

cd is computed through dimension: cd(Q, S/I) = dim S/(I + P), and dually for
P; for the full block it is plain Krull dimension.  cd depends only on the
support (Divaani-Aazar, Naghipour and Tousi, Proc. AMS 130, 2002), so a
subquotient has cd(A/B) = cd(S/(B : A)), B : A being its annihilator.

grade is the length of a maximal regular sequence of linear forms in the
block variables, found by a seeded randomized search; over an infinite field
a regular element of degree one exists whenever the grade is positive (prime
avoidance), which is why the search is complete there.  Over a small prime
field the search can exhaust; use the rationals or a large prime.

One loop, :func:`grade_wrt`, runs every step of the search, and its
docstring has the step rule.  grade <= cd holds for every nonzero graded
module (bigraded for P and Q), so :func:`is_relative_cm`, which computes cd
first, stops the search as soon as the sequence has cd forms: the terminal
step could only have proven H^0 != 0.  cd is read off dimension only for
such modules, so :func:`cd_wrt`, :func:`grade_wrt` and
:func:`is_relative_cm` reject any other input.

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

For monomial A and B (a monomial S/I, and every level pair of the monomial
route) the grade is exact too: grade(V, A/B) = |V| - max{i : H_i(V; A/B)
!= 0} for the block variables V (Bruns-Herzog 1.6.17), and in each
multidegree the Koszul complex is a relative simplicial chain complex
(Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1).  Its ranks
are taken over the ring's field.  Finitely many degrees suffice: the
exponents outside V range over 0 and the generators' values, and the
exponents in V over the lcms of the generators of A or of B that such a
strand keeps.  :func:`is_relative_cm` stops the search at that grade.

H^0 = 0 and the regularity of a form l are one colon condition,
(B : J) ∩ A ⊆ B for J the block ideal or (l).  H^0 takes one colon round of
:mod:`seqcm.groebner` by the block generators.

Whether l is regular on a nonzero module A/B' is decided by one section
test on an ideal J with A ∩ J = B', which makes it exact: l is regular on
A/B' iff (J : l) ∩ A ⊆ J.  For x in A with l·x in J, l·x lies in
A ∩ J = B'; so a regular l puts x in B' ⊆ J, and conversely an x in A with
l·x in B' ⊆ J lies in (J : l) ∩ A ⊆ J, hence in A ∩ J = B'.
The section of a homogeneous ideal J is its linear generators solved, each
for its largest-index variable, and substituted into its other generators,
so that S/J = R/J̄ for the polynomial ring R on the variables left.  The
section map S -> R has its kernel in J, so it sends (J : l) ∩ A onto
(J̄ : l̄) ∩ Ā, and an element lies in J iff its image lies in J̄.  A linear
change of coordinates then sends l̄ to its pivot v, its largest-index
variable.  With v last in grevlex (which on S restricts to grevlex on R),
the reduced basis G of J̄ decides (Bayer-Stillman):
  True   when no lead of G involves v: then (J̄ : v) = J̄;
  False  when l̄ = 0 (then (J : l) ∩ A = A, which is not in J as A/B' ≠ 0);
         or when some lead of G involves v and A = (1): v divides such a g
         outright, and g/v lies in (J̄ : v) outside J̄, G being reduced; or
         when a product (g/v)·ā, for such g and ā a transformed generator
         of A, is nonzero modulo G, an element of (J̄ : v) ∩ Ā outside J̄;
  and otherwise the exact finish: (J̄ : v) is read off G, as g/v for the g
         whose lead v divides and g for the others (the rule that
         :func:`seqcm.groebner.colon_by_variable` applies too), intersected
         with Ā, and each generator of the intersection reduced modulo G.
Two choices of J meet A ∩ J = B':
  J = B' = B, in :func:`is_regular_form`, because B ⊆ A;
  J = B + L in a step of :func:`grade_wrt`, for L the ideal of the forms
         accepted so far and B' = B + L·A, while the invariant
         A ∩ (B + L) = B + L·A holds.  It holds for L = 0, and for A = (1)
         always.  An accepted l keeps it when l is regular on S/(A + L):
         for x = b + y + l·s in A with b in B and y in L, s lies in A + L,
         say s = a' + y', and x - l·a' lies in A ∩ (B + L).
Once the invariant fails, a step takes J = B' itself.  Either way the
step's exact H^0 decision reads the same J, as the pair (A + J, J):
(A + J)/J ≅ A/(A ∩ J) = A/B'.  The P, Q and m blocks share this
coordinate path: a drawn form's pivot is its block's last variable.  The
test suite keeps the elimination route of the colon as the reference for
both tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CertificateVerificationError,
    NoRegularFormError,
    NotBihomogeneousError,
    ZeroModuleError,
)
from .groebner import (
    Ideal,
    _colon_basis,
    _colon_ideal,
    _minimal_monomials,
    intersect,
    krull_dim,
    normal_form,
)
from .orders import MonomialOrder
from .poly import BigradedRing, Polynomial, mono_divides, mono_lcm

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

    def __repr__(self):
        return f"IdealPair(A={self.a!r}, B={self.b!r})"


@dataclass(frozen=True)
class GradeWitness:
    regular_sequence: tuple
    grade = property(lambda self: len(self.regular_sequence))


@dataclass(frozen=True)
class CdGradeReport:
    cd: int
    grade: int
    regular_sequence: tuple
    relative_cm = property(lambda self: self.grade == self.cd)

    def __post_init__(self):
        if self.grade > self.cd:
            raise CertificateVerificationError(
                f"inconsistent invariants: grade {self.grade} > cd {self.cd}"
            )


# ---- cohomological dimension ------------------------------------------------------


def _require_graded(pair: IdealPair, block: VariableBlock) -> None:
    """Reject A/B unless it is bigraded (graded for the m block): cd's
    dimension formula and the bound grade <= cd hold only then."""
    if block is VariableBlock.M:
        graded = pair.a.is_homogeneous() and pair.b.is_homogeneous()
    else:
        graded = all(g.is_bihomogeneous() for g in pair.a.gens + pair.b.gens)
    if not graded:
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
    bihomogeneous."""
    if block is VariableBlock.M or len(pair.b.gens) != 1:
        return None
    f = pair.b.gens[0]
    if f.is_constant() or not pair.is_cyclic():
        return None
    a, b = f.bidegree()
    if block is VariableBlock.P:
        a, b = b, a
    n = len(block.variable_indices(pair.ring))
    return n - (a == 0), n - (b > 0)


def cd_subquotient(pair: IdealPair, block: VariableBlock) -> int:
    """cd(block, A/B) = cd(block, S/(B : A)), exact for every graded pair.

    cd of a module depends only on its support (Divaani-Aazar, Naghipour
    and Tousi, Proc. AMS 130, 2002), and Supp A/B = V(Ann A/B) = V(B : A).
    A cyclic pair has B : A = B.
    """
    _require_graded(pair, block)
    if pair.is_zero_module():
        raise ZeroModuleError("cd of the zero module is undefined")
    if pair.is_cyclic():
        return cd_wrt(pair.b, block)
    return cd_wrt(_colon_ideal(pair.b, pair.a), block)


# ---- exact grade of monomial modules ----------------------------------------------


def _monomial_grade(pair: IdealPair, block: VariableBlock):
    """grade(block, A/B) for monomial A and B by Koszul homology, or None
    when A or B is not monomial.

    grade = |V| - max{i : H_i(V; A/B) != 0} for the block variables V
    (Bruns-Herzog 1.6.17).  In degree beta, the Koszul complex of A/B is the
    relative chain complex of the faces F of V ∩ supp(beta) with
    x^(beta - e_F) in A modulo those with x^(beta - e_F) in B, a face of
    size i in degree i (Miller-Sturmfels, ch. 1); ranks are taken over the
    ring's field, since torsion makes the homology depend on it.  Fixing
    the exponents of the other variables W gives a strand, a module over
    K[V] whose Tor lives only at lcms of the strand's generators of A or B
    (0 -> A/B -> S/B -> S/A -> 0 carries Taylor's bound over to A/B).  A
    strand changes only where a W-exponent reaches a generator's, so the
    W-exponents range over 0 and the generators' values.  The caller
    knows that A/B is nonzero, so H_0 = (A/B)/V(A/B) is nonzero too.
    """
    ring = pair.ring
    if not (pair.a.is_monomial_ideal() and pair.b.is_monomial_ideal()):
        return None
    vs = block.variable_indices(ring)
    ws = [i for i in range(ring.nvars) if i not in vs]
    gens = (pair.a.minimal_monomial_generators(), pair.b.minimal_monomial_generators())
    top = 0
    zero = (0,) * len(vs)
    seen = set()
    values = [sorted({0, *(g[w] for part in gens for g in part)}) for w in ws]
    for strand in itertools.product(*values):
        a_v, b_v = (
            _minimal_monomials(
                tuple(g[v] for v in vs)
                for g in part
                if all(g[w] <= e for w, e in zip(ws, strand))
            )
            for part in gens
        )
        if not a_v or (a_v, b_v) in seen:
            continue
        seen.add((a_v, b_v))
        for beta in _lcm_lattice(a_v, zero) | _lcm_lattice(b_v, zero):
            top = _top_homology(beta, a_v, b_v, top, ring.field)
            if top == len(vs):
                return 0
    return len(vs) - top


def _lcm_lattice(monos, zero) -> set:
    """The lcms of all subsets of the monomials, the empty one (zero) included."""
    lattice = {zero}
    for g in monos:
        lattice |= {mono_lcm(u, g) for u in lattice}
    return lattice


def _top_homology(beta, a_gens, b_gens, floor: int, field) -> int:
    """The largest i > floor with H_i(V; A/B) nonzero in degree beta over
    the field, else floor, for the strand generators of A and B."""
    support = [j for j, e in enumerate(beta) if e]
    if len(support) <= floor:
        return floor

    def faces(gens):  # facets {j : g_j < beta_j} for the g dividing beta
        out = set()
        for g in gens:
            if mono_divides(g, beta):
                facet = face = sum(1 << j for j in support if g[j] < beta[j])
                while face:  # every nonempty submask of the facet
                    out.add(face)
                    face = (face - 1) & facet
                out.add(0)
        return out

    chains = {}
    for face in faces(a_gens) - faces(b_gens):
        size = face.bit_count()
        if size >= floor:
            level = chains.setdefault(size, {})
            level[face] = len(level)
    sign = (field.one, -field.one)
    rank_above = 0
    for i in range(max(chains, default=floor), floor, -1):
        cells, below = chains.get(i, {}), chains.get(i - 1, {})
        boundaries = (
            {below[f]: sign[k % 2] for k, f in enumerate(_faces_below(c)) if f in below}
            for c in cells
        )
        rank = _rank(boundaries, field)
        if len(cells) > rank + rank_above:
            return i
        rank_above = rank
    return floor


def _faces_below(face: int):
    """face minus each of its elements, in increasing order of the element."""
    rest = face
    while rest:
        low = rest & -rest
        yield face ^ low
        rest ^= low


def _rank(rows, field) -> int:
    """Rank of the rows, each a map column -> nonzero field element: the
    number of pivots of :func:`_echelon`."""
    return len(_echelon(rows, field))


def _echelon(rows, field) -> dict:
    """Forward elimination of the rows, each a map column -> nonzero field
    element, which it consumes: {pivot: row scaled to one there}, the pivot
    of a row being its largest column."""
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = field.one / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            _subtract_row(row, row[col], pivot, field.zero)
    return pivots


def _subtract_row(row: dict, c, other: dict, zero) -> None:
    """row -= c * other, dropping the entries that vanish."""
    for k, v in other.items():
        x = row.get(k, zero) - c * v
        if x:
            row[k] = x
        else:
            del row[k]


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


def _solve_linear(ring: BigradedRing, gens) -> tuple:
    """The section (subs, rest) of the ideal of homogeneous generators: the
    linear ones solved by :func:`_echelon`, each for its largest-index
    variable, as substitutions [(variable, replacement)], and the others
    with the substitutions applied.  One back-substitution pass clears each
    pivot row of the smaller pivots, so no replacement involves a solved
    variable and the substitutions apply one by one."""
    field = ring.field
    linear, rest = [], []
    for g in gens:
        (linear if sum(next(iter(g.terms))) == 1 else rest).append(g)
    if not linear:
        return [], rest
    rows = _echelon([{e.index(1): c for e, c in g.terms.items()} for g in linear], field)
    done = []  # the pivots below p, whose rows are already cleared
    for p in sorted(rows):
        row = rows[p]
        for q in done:
            if q in row:
                _subtract_row(row, row[q], rows[q], field.zero)
        done.append(p)
    subs = []
    for p, row in rows.items():
        del row[p]
        subs.append((p, _linear_form(ring, list(row), [-c for c in row.values()])))
    return subs, [_substitute(g, subs) for g in rest]


def _substitute(f: Polynomial, subs) -> Polynomial:
    """f with the substitutions [(variable, replacement)] applied in turn."""
    for var, repl in subs:
        if any(exps[var] for exps in f.terms):
            f = f.substitute_variable(var, repl)
    return f


def _section_verdict(section, a: Ideal, ell: Polynomial) -> bool:
    """The section test of the module docstring for l on the nonzero module
    A/B', given the section (subs, rest) of J with A ∩ J = B': whether l is
    regular.  Only a candidate that the lead test, A = (1) and the product
    witness leave open pays for the exact finish's intersection."""
    subs, rest = section
    ell = _substitute(ell, subs)
    if not ell:
        return False
    ring = ell.ring
    pivot = max(exps.index(1) for exps in ell.terms)
    to_pivot = [(pivot, _pivot_substitution(ring, ell, pivot))]
    order = MonomialOrder.variable_last(pivot, ring.nvars)
    keyfn = order.sort_key(ring.nvars)
    basis = Ideal(ring, [_substitute(g, to_pivot) for g in rest]).groebner_basis(order)
    colon = _colon_basis(basis, pivot, keyfn)  # (J̄ : v)
    cofactors = [c for c, g in zip(colon, basis) if c is not g]
    if not cofactors:
        return True
    if a.is_unit_ideal():
        return False
    a_t = Ideal(ring, [_substitute(g, subs + to_pivot) for g in a.gens])
    if any(normal_form(c * x, basis, order) for c in cofactors for x in a_t.gens):
        return False
    return not any(
        normal_form(g, basis, order) for g in intersect(Ideal(ring, colon), a_t).gens
    )


def is_regular_form(pair: IdealPair, ell: Polynomial) -> bool:
    """Exact test that the linear form l is a nonzerodivisor on the nonzero
    module A/B, for homogeneous B: the section test of the module docstring
    with J = B' = B.  Raises ``ValueError`` unless l is linear and B
    homogeneous.
    """
    if not ell:
        return False
    if any(sum(e) != 1 for e in ell.terms) or not pair.b.is_homogeneous():
        raise ValueError("the regularity test needs a linear form and a homogeneous B")
    return _section_verdict(_solve_linear(pair.ring, pair.b.gens), pair.a, ell)


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
    """A linear form in the block variables that is regular on A/B: the
    first form of :func:`grade_wrt`'s witness with the same seed, which
    raises what that search raises.  Raises :class:`NoRegularFormError`
    when the witness is empty (H^0 of the pair is nonzero, so no form is
    regular).
    """
    witness = grade_wrt(pair, block, seed, _stop=1)
    if not witness.regular_sequence:
        raise NoRegularFormError(
            "H^0 of the module is nonzero, so no linear form is regular on it"
        )
    return witness.regular_sequence[0]


def grade_wrt(
    pair: IdealPair, block: VariableBlock, seed: int = 0, *, _stop: int | None = None
) -> GradeWitness:
    """grade(block, A/B) with the regular sequence that witnesses it.

    Zero when H^0 is nonzero; otherwise one more than the grade of
    A/(B + l·A) for a regular linear form l.  Each step finds l on
    A/(B + L·A), L the ideal of the forms accepted so far:
      - on a non-cyclic pair, while the invariant A ∩ (B + L) = B + L·A
        holds, it first tests that the last accepted form keeps it
        (:func:`is_regular_form` on S/(A + the earlier forms));
      - it builds one ideal J, B + L while the invariant holds and
        B + L·A after, computes its section once and gives every
        candidate the section test of the module docstring against it;
      - candidates come from a stream seeded by ``seed``, their integer
        coefficient span widening by one on every retry;
      - once ``_EXACT_H0_AFTER + 1`` candidates have failed, H^0 of
        A/(B + L·A) is decided exactly on (A + J)/J, which is isomorphic
        to it, and a nonzero H^0 ends the search (a regular form drawn
        before that proves H^0 = 0 on its own);
      - after ``RETRY_BUDGET`` failed candidates it raises
        :class:`NoRegularFormError` (the field is too small).
    The search is bounded by the block size.  The returned value is seed
    independent (H^0 is decided exactly whenever a step ends); only the
    witness depends on the seed.

    ``_stop`` (for callers that know cd or the grade, such as
    :func:`is_relative_cm`) ends the search once the sequence has that many
    forms.  Since grade <= cd, a search stopped at cd skips only the
    terminal step, which could do nothing but prove H^0 != 0; the forms
    drawn before it come from the same stream, so the witness is unchanged.

    Raises :class:`ZeroModuleError` on the zero module and
    :class:`NotBihomogeneousError` unless A/B is bigraded (graded for the m
    block), like :func:`cd_wrt`.
    """
    _require_graded(pair, block)
    if pair.is_zero_module():
        raise ZeroModuleError("grade of the zero module is undefined")
    ring = pair.ring
    indices = block.variable_indices(ring)  # an empty block leaves grade 0
    rng = random.Random(seed)
    sequence = []
    invariant = True  # A ∩ (B + L) = B + L·A, always true for A = (1)
    while indices and (_stop is None or len(sequence) < _stop):
        if invariant and sequence and not pair.is_cyclic():  # kept by the last form?
            earlier = Ideal(ring, sequence[:-1])
            invariant = is_regular_form(IdealPair.cyclic(pair.a + earlier), sequence[-1])
        j = pair.b  # B + L while the invariant holds, B + L·A after
        for ell in sequence:
            j += Ideal(ring, (ell,)) if invariant else pair.a.scaled_by(ell)
        section = _solve_linear(ring, j.gens)
        for attempt in range(RETRY_BUDGET):
            ell = _draw_form(ring, indices, rng, 1 + attempt)
            if _section_verdict(section, pair.a, ell):
                break
            if attempt == _EXACT_H0_AFTER:  # (A + J)/J ≅ A/(B + L·A)
                if not h0_is_zero(IdealPair(pair.a + j, j, _trusted=True), block):
                    return GradeWitness(tuple(sequence))
        else:
            raise NoRegularFormError(
                "regular linear forms exist but none was found within the retry "
                "budget; rerun over the rationals or a larger prime field"
            )
        sequence.append(ell)
        if len(sequence) > len(indices):
            raise NoRegularFormError(
                "regular sequence exceeded the block size; inconsistent state"
            )
    return GradeWitness(tuple(sequence))


def is_relative_cm(pair: IdealPair, block: VariableBlock, seed: int = 0) -> CdGradeReport:
    """grade, cd, and the relative Cohen-Macaulay verdict grade == cd.

    cd comes first and stops :func:`grade_wrt`'s search once the sequence
    has cd forms, since grade <= cd holds for every nonzero graded module.
    For a principal S/fS and the block P or Q, cd and grade are read off
    the bidegree of f (see the module docstring), and the search stops at
    the known grade.  Otherwise cd comes from :func:`cd_subquotient`, and
    for monomial A and B the search stops at the Koszul grade
    (:func:`_monomial_grade`).  In every case the grade and regular
    sequence equal those of an unstopped :func:`grade_wrt` with the same
    seed.

    Raises :class:`NotBihomogeneousError` unless A/B is bigraded (graded for
    the m block): cd's dimension formula and grade <= cd hold only then.
    """
    _require_graded(pair, block)
    closed = _principal_cd_grade(pair, block)
    if closed is None:
        cd = cd_subquotient(pair, block)
        stop = _monomial_grade(pair, block)
        if stop is None:
            stop = cd
    else:
        cd, stop = closed
    witness = grade_wrt(pair, block, seed, _stop=stop)
    return CdGradeReport(cd, witness.grade, witness.regular_sequence)
