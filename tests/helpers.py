"""Shared test utilities: random input generators and independent oracles.

The oracles deliberately avoid the code paths they check: membership is
re-decided by dense exact linear algebra, quotients and saturations can be
recomputed through the elimination of an extra variable even where the
library would take a combinatorial shortcut, and submodule cds are brute
forced by enumerating monomials.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from seqcm.errors import NoRegularFormError
from seqcm.filtration import (
    DimensionFiltration,
    FiltrationSlice,
    PrimaryComponent,
    PrimaryDecomposition,
    _split_pure_power_families,
    cd_of_prime,
)
from seqcm.groebner import (
    Ideal,
    _intersect_by_elimination,
    _intersect_monomials,
    _minimal_monomials,
    _monomial_ideal,
    _reduce_terms,
    exact_div,
)
from seqcm.orders import MonomialOrder
from seqcm.poly import BigradedRing, Polynomial, mono_degree, mono_divides, mono_support
from seqcm.relcm import (
    _EXACT_H0_AFTER,
    RETRY_BUDGET,
    IdealPair,
    VariableBlock,
    _draw_form,
    _pivot_substitution,
    cd_wrt,
    h0_is_zero,
)


# ---- reference monomial helpers ---------------------------------------------------
# The generator-expression forms of ``poly.mono_*``, which use ``map``.


def ref_mono_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ref_mono_div(u, v):
    return tuple(a - b for a, b in zip(u, v))


def ref_mono_divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def ref_mono_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


# ---- enumeration ------------------------------------------------------------------


def monomials_of_degree(ring: BigradedRing, degree: int):
    """All exponent tuples of total degree exactly ``degree``."""
    nv = ring.nvars
    out = []
    for bars in itertools.combinations(range(degree + nv - 1), nv - 1):
        exps = []
        prev = -1
        for bar in bars:
            exps.append(bar - prev - 1)
            prev = bar
        exps.append(degree + nv - 1 - prev - 1)
        out.append(tuple(exps))
    return out


def monomials_up_to(ring: BigradedRing, max_degree: int):
    """All exponent tuples of total degree <= max_degree (including 1)."""
    return [e for deg in range(max_degree + 1) for e in monomials_of_degree(ring, deg)]


# ---- random generators --------------------------------------------------------------


def random_monomial_ideal(rng, ring, max_gens=4, max_degree=3) -> Ideal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        deg = rng.randint(1, max_degree)
        exps = [0] * ring.nvars
        for _ in range(deg):
            exps[rng.randrange(ring.nvars)] += 1
        gens.append(ring.monomial(exps))
    return Ideal(ring, gens)


def random_block_form(rng, ring, indices, degree, max_terms=4) -> Polynomial:
    """Random nonzero homogeneous polynomial of given degree in the chosen variables."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(degree):
                exps[rng.choice(indices)] += 1
            c = rng.randint(-4, 4)
            if c:
                prev = terms.get(tuple(exps), Fraction(0))
                terms[tuple(exps)] = prev + Fraction(c)
        p = Polynomial(ring, terms)
        if p:
            return p


def random_bihomogeneous(rng, ring, a, b, max_terms=5) -> Polynomial:
    """Random nonzero bihomogeneous polynomial of bidegree exactly (a, b)."""
    xs = list(ring.x_range)
    ys = list(ring.y_range)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(a):
                exps[rng.choice(xs)] += 1
            for _ in range(b):
                exps[rng.choice(ys)] += 1
            c = rng.randint(-4, 4)
            if c:
                prev = terms.get(tuple(exps), Fraction(0))
                terms[tuple(exps)] = prev + Fraction(c)
        p = Polynomial(ring, terms)
        if p and p.bidegree() == (a, b):
            return p


def random_split_product(rng, ring, a, b):
    """(h1, h2, f = h1*h2) with h1 in the x block of degree a, h2 in y of degree b."""
    h1 = random_block_form(rng, ring, list(ring.x_range), a) if a else ring.one()
    h2 = random_block_form(rng, ring, list(ring.y_range), b) if b else ring.one()
    return h1, h2, h1 * h2


# ---- independent membership oracle ----------------------------------------------------


def _solvable(rows):
    """Consistency of an augmented system of Fraction rows by Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return True
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols - 1):
        target = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                target = r
                break
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        piv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col] / piv
                for c in range(col, ncols):
                    rows[r][c] -= factor * rows[pivot_row][c]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    # inconsistent iff some row is (0 ... 0 | nonzero)
    for row in rows:
        if not any(row[:-1]) and row[-1]:
            return False
    return True


def dense_membership(f: Polynomial, I: Ideal, max_degree: int = 6) -> bool:
    """Decide f in I for homogeneous generators by exact linear algebra.

    I is then graded, so f lies in I iff each homogeneous component f_d lies
    in I_d, the span of the products mu*g with deg(mu*g) = d.  Each f_d is
    decided by one linear system over those products; a component of degree
    above max_degree counts as outside I.  Sound always, and complete when
    deg f <= max_degree.
    """
    gens = I.gens
    assert all(g.is_homogeneous() for g in gens), "generators must be homogeneous"
    components: dict = {}
    for e, c in f.terms.items():
        components.setdefault(mono_degree(e), {})[e] = c
    for degree, f_d in components.items():
        if degree > max_degree:
            return False
        columns = [
            g.mul_term(Fraction(1), mu)
            for g in gens
            if g.total_degree() <= degree
            for mu in monomials_of_degree(I.ring, degree - g.total_degree())
        ]
        basis = dict.fromkeys([e for col in columns for e in col.terms] + list(f_d))
        zero = Fraction(0)
        rows = [
            [col.terms.get(e, zero) for col in columns] + [f_d.get(e, zero)]
            for e in basis
        ]
        if not _solvable(rows):
            return False
    return True


# ---- slow (elimination-only) ideal calculus -------------------------------------------


def elimination_intersect(I: Ideal, J: Ideal) -> Ideal:
    """Intersection forced through the elimination of t (no shortcuts)."""
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal.zero(I.ring)
    return _intersect_by_elimination(I, J)


def elimination_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) via intersection and exact division only."""
    if I.is_zero_ideal():
        return I
    inter = elimination_intersect(I, Ideal(I.ring, (f,)))
    return Ideal(I.ring, tuple(exact_div(g, f) for g in inter.gens))


def elimination_saturation(I: Ideal, J: Ideal) -> Ideal:
    current = I
    while True:
        step = None
        for g in J.gens:
            q = elimination_quotient(current, g)
            step = q if step is None else elimination_intersect(step, q)
        if current.contains_ideal(step):
            return current
        current = step


def exact_grade_search(pair, block, seed: int = 0) -> tuple:
    """The regular sequence of an unstopped grade search that decides every
    candidate by the defining test (B : l) ∩ A ⊆ B on the current quotient,
    elimination route only (:func:`slow_is_regular`): the reference for the
    section test of ``relcm.grade_wrt``.
    It draws the same candidate stream, with the same retry budget, and
    decides H^0 exactly once two candidates of a step have failed."""
    rng = random.Random(seed)
    indices = block.variable_indices(pair.ring)
    sequence = []
    while indices:
        for attempt in range(RETRY_BUDGET):
            ell = _draw_form(pair.ring, indices, rng, 1 + attempt)
            if slow_is_regular(pair, ell):
                break
            if attempt == _EXACT_H0_AFTER and not h0_is_zero(pair, block):
                return tuple(sequence)
        else:
            raise NoRegularFormError("the reference search exhausted its retry budget")
        sequence.append(ell)
        pair = IdealPair(pair.a, pair.b + pair.a.scaled_by(ell), _trusted=True)
    return tuple(sequence)


def plain_cyclic_is_regular(ideal: Ideal, ell: Polynomial) -> bool:
    """The Bayer-Stillman test of the linear form l on S/I, I homogeneous,
    with every generator of I carried into the basis: the reference for the
    section test of ``relcm.is_regular_form``, which solves I's linear
    generators first."""
    ring = ideal.ring
    pivot = max(exps.index(1) for exps in ell.terms)
    repl = _pivot_substitution(ring, ell, pivot)
    transformed = Ideal(ring, [g.substitute_variable(pivot, repl) for g in ideal.gens])
    order = MonomialOrder.variable_last(pivot, ring.nvars)
    return all(lm[pivot] == 0 for lm in transformed.leading_monomials(order))


def slow_is_regular(pair, ell) -> bool:
    """The defining regularity test (B : l) ∩ A ⊆ B, elimination route only."""
    quot = elimination_quotient(pair.b, ell)
    if pair.is_cyclic():
        return pair.b.contains_ideal(quot)
    return pair.b.contains_ideal(elimination_intersect(quot, pair.a))


# ---- multi-pass interreduction ----------------------------------------------------------


def multipass_autoreduce(polys: list, keyfn) -> tuple:
    """Reduced basis from a Groebner basis by interreducing until nothing
    changes, recomputing every lead: the reference for the one-pass
    ``groebner._autoreduce``."""
    current = [p.monic(keyfn) for p in polys if p]
    current.sort(key=lambda p: keyfn(p.leading_monomial(keyfn)))
    minimal = []
    for p in current:
        lm = p.leading_monomial(keyfn)
        if not any(mono_divides(q.leading_monomial(keyfn), lm) for q in minimal):
            minimal.append(p)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(minimal):
            others = [
                (q.leading_monomial(keyfn), q.terms)
                for j, q in enumerate(minimal)
                if j != i
            ]
            reduced = _reduce_terms(p.terms, others, keyfn, p.ring.field.zero)
            q = Polynomial._raw(p.ring, reduced).monic(keyfn)
            if q.terms != p.terms:
                minimal[i] = q
                changed = True
    minimal.sort(key=lambda p: keyfn(p.leading_monomial(keyfn)), reverse=True)
    return tuple(minimal)


# ---- intersection-based decomposition and chain ---------------------------------------


def _fold_intersections(monomial_ideals):
    acc = None
    for monos in monomial_ideals:
        acc = monos if acc is None else _intersect_monomials(acc, monos)
    return acc


def intersection_primary_decomposition(I: Ideal, block) -> PrimaryDecomposition:
    """Irredundant primary decomposition of a proper nonzero monomial ideal
    that tests each component against the intersection of all the others:
    the reference for the leaf test of
    ``filtration.monomial_primary_decomposition``."""
    ring = I.ring
    families = _split_pure_power_families(
        [_minimal_monomials(e for g in I.gens for e in g.terms)]
    )
    by_radical: dict = {}
    for monos in families:
        variables = frozenset(i for m in monos for i in mono_support(m))
        prev = by_radical.get(variables)
        by_radical[variables] = (
            monos if prev is None else _intersect_monomials(prev, monos)
        )
    radicals = sorted(by_radical, key=lambda vs: (len(vs), sorted(vs)))
    dropped = True
    while dropped:
        dropped = False
        for k, rad in enumerate(radicals):
            others = _fold_intersections(
                by_radical[rad2] for j, rad2 in enumerate(radicals) if j != k
            )
            if others is not None and all(
                any(mono_divides(g, m) for g in by_radical[rad]) for m in others
            ):
                del radicals[k]
                dropped = True
                break
    components = []
    for rad in radicals:
        radical = Ideal(ring, tuple(ring.gen(i) for i in sorted(rad)))
        components.append(PrimaryComponent(
            _monomial_ideal(ring, by_radical[rad]), radical, cd_of_prime(radical, block)
        ))
    components.sort(key=lambda c: (
        c.cd_value, sorted(c.variables), c.primary.minimal_monomial_generators()
    ))
    return PrimaryDecomposition(tuple(components))


def intersection_dimension_filtration(I: Ideal, block) -> DimensionFiltration:
    """The chain D_i = ∩ {q_k : cd(q_k) > c_i} with every D_i intersected
    from scratch: the reference for the one-fold chain of
    ``filtration.dimension_filtration``."""
    ring = I.ring
    components = intersection_primary_decomposition(I, block).components
    values = sorted({c.cd_value for c in components})
    slices = []
    chain = [I]
    for c in values:
        level = tuple(comp for comp in components if comp.cd_value == c)
        e_monos = _fold_intersections(
            comp.primary.minimal_monomial_generators() for comp in level
        )
        slices.append(FiltrationSlice(c, _monomial_ideal(ring, e_monos), level))
        above = _fold_intersections(
            comp.primary.minimal_monomial_generators()
            for comp in components
            if comp.cd_value > c
        )
        chain.append(Ideal.unit(ring) if above is None else _monomial_ideal(ring, above))
    return DimensionFiltration(tuple(chain), tuple(slices))


# ---- brute-force submodule oracle ------------------------------------------------------


def cyclic_submodule_cd(I: Ideal, u_mono, block: VariableBlock) -> int:
    """cd of the submodule generated by the image of the monomial u in S/I."""
    ring = I.ring
    from seqcm.groebner import ideal_quotient

    colon = ideal_quotient(I, ring.monomial(u_mono))
    return cd_wrt(colon, block)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    return I.contains_ideal(J) and J.contains_ideal(I)
