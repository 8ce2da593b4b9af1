"""Shared test utilities: random input generators and independent oracles.

The oracles deliberately avoid the code paths they check: membership is
re-decided by dense exact linear algebra, quotients and saturations can be
recomputed through the auxiliary-variable elimination route even where the
library would take a combinatorial shortcut, and submodule cds are brute
forced by enumerating monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from seqcm.groebner import Ideal, _eliminate_first_aux, _reduce_terms, exact_div
from seqcm.poly import BigradedRing, Polynomial, mono_degree, mono_divides
from seqcm.relcm import VariableBlock, cd_wrt


# ---- enumeration ------------------------------------------------------------------


def monomials_up_to(ring: BigradedRing, max_degree: int):
    """All exponent tuples of total degree <= max_degree (including 1)."""
    nv = ring.nvars
    out = []
    for deg in range(max_degree + 1):
        for bars in itertools.combinations(range(deg + nv - 1), nv - 1):
            exps = []
            prev = -1
            for bar in bars:
                exps.append(bar - prev - 1)
                prev = bar
            exps.append(deg + nv - 1 - prev - 1)
            out.append(tuple(exps))
    return out


def monomials_of_degree(ring: BigradedRing, degree: int):
    return [e for e in monomials_up_to(ring, degree) if mono_degree(e) == degree]


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
    """Decide f in I by solving for a coefficient combination up to max_degree.

    Sound always; complete when the generators are homogeneous and
    deg f <= max_degree (membership then has degree-matched witnesses, one
    per graded piece of f).  Inhomogeneous ideals can need combination
    degrees beyond any fixed budget, so callers feed homogeneous inputs.
    """
    ring = I.ring
    if not f:
        return True
    columns = []
    for g in I.gens:
        dg = g.total_degree()
        for mu in monomials_up_to(ring, max_degree - dg):
            columns.append(g.mul_term(Fraction(1), mu))
    basis = {}
    for p in columns + [f]:
        for e in p.terms:
            basis.setdefault(e, len(basis))
    rows = []
    for e, idx in basis.items():
        row = [col.terms.get(e, Fraction(0)) for col in columns]
        row.append(f.terms.get(e, Fraction(0)))
        rows.append(row)
    return _solvable(rows)


# ---- slow (elimination-only) ideal calculus -------------------------------------------


def elimination_intersect(I: Ideal, J: Ideal) -> Ideal:
    """Intersection forced through the auxiliary-variable route (no shortcuts)."""
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal.zero(ring)
    ext = ring.extended(1)
    t = ext.gen(0)
    one_minus_t = ext.one() - t
    gens = [t * g.embedded(ext) for g in I.gens]
    gens += [one_minus_t * g.embedded(ext) for g in J.gens]
    return _eliminate_first_aux(ext, gens, ring)


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


# ---- brute-force submodule oracle ------------------------------------------------------


def cyclic_submodule_cd(I: Ideal, u_mono, block: VariableBlock) -> int:
    """cd of the submodule generated by the image of the monomial u in S/I."""
    ring = I.ring
    from seqcm.groebner import ideal_quotient

    colon = ideal_quotient(I, ring.monomial(u_mono))
    return cd_wrt(colon, block)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    return I.contains_ideal(J) and J.contains_ideal(I)
