"""Classification of hypersurface rings S/fS.

A bihomogeneous f of bidegree (a, b) expands as sum c_{alpha,beta} x^alpha
y^beta, which is a matrix over the occurring x monomials and y monomials.
S/fS is sequentially Cohen-Macaulay with respect to Q (equivalently P) iff f
factors as h1(x) * h2(y), which happens exactly when that matrix has rank at
most one; the split, when it exists, is read off a nonzero row and column
and re-verified by exact expansion.  A returned None is backed by an
exact rank computation certifying rank >= 2.

When a, b > 0 and f = h1*h2, the two-level chain (f) ⊂ (middle) ⊂ (1) is a
Cohen-Macaulay filtration, and the cd formula fixes the middle factor: h1
for Q and h2 for P.  With respect to Q, say, S/(h1) has cd n and
(h1)/(f) ≅ S/(h2) has cd n - 1, while the other order would put the larger
cd at the bottom.  The chain is still verified through the cd/grade
machinery (using the cyclic isomorphism (middle)/(f) ≅ S/(cofactor)); if it
fails, something is inconsistent and we raise.

Every module checked here, S/fS and the two levels, is principal and cyclic,
so :func:`seqcm.relcm.is_relative_cm` reads its cd and grade off the
bidegree in closed form and stops the regular-sequence search at that grade:
no dimension and no terminal H^0 proof is computed.  The rank test still
decides the classification, and a verdict searches only for the levels it
records: S/fS itself when f does not split or is one-sided, the two levels
otherwise.  :func:`hypersurface_stats` searches for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import (
    CMFiltration,
    FiltrationLevel,
    Route,
    SeqCMVerdict,
    VerifySpec,
    _hypersurface_invariants,
    single_level_verdict,
)
from .errors import (
    CertificateVerificationError,
    UnitIdealError,
    ZeroPolynomialError,
)
from .groebner import Ideal
from .poly import BigradedRing, Polynomial
from .relcm import CdGradeReport, IdealPair, VariableBlock, _rank, is_relative_cm


@dataclass(frozen=True)
class CoefficientMatrix:
    """c_{alpha,beta} over the x monomials (rows) and y monomials (columns)
    occurring in f, in descending monomial order; zero entries where the
    product monomial is absent."""

    ring: BigradedRing
    rows: tuple  # x-part exponent tuples
    cols: tuple  # y-part exponent tuples
    entries: tuple  # tuple of row tuples of field elements

    def reconstruct(self) -> Polynomial:
        from .poly import mono_mul

        terms = {}
        for i, alpha in enumerate(self.rows):
            for j, beta in enumerate(self.cols):
                c = self.entries[i][j]
                if c:
                    terms[mono_mul(alpha, beta)] = c
        return Polynomial._raw(self.ring, terms)


def coefficient_matrix(f: Polynomial) -> CoefficientMatrix:
    """The (x monomial) x (y monomial) coefficient matrix of a nonzero
    bihomogeneous polynomial; lossless."""
    f.bidegree()  # raises on zero / non-bihomogeneous input
    ring = f.ring
    keyfn = ring.sort_key()
    m, n = ring.m, ring.n  # key each term by its x part and its y part
    table = {(e[:m] + (0,) * n, (0,) * m + e[m:]): c for e, c in f.terms.items()}
    rows = sorted({ab[0] for ab in table}, key=keyfn, reverse=True)
    cols = sorted({ab[1] for ab in table}, key=keyfn, reverse=True)
    zero = ring.field.zero
    entries = tuple(
        tuple(table.get((alpha, beta), zero) for beta in cols) for alpha in rows
    )
    return CoefficientMatrix(ring, tuple(rows), tuple(cols), entries)


def exact_rank(entries, field) -> int:
    """Rank of a dense matrix by the sparse row elimination that also gives
    the Koszul ranks (:func:`seqcm.relcm._rank`); exact over any field."""
    return _rank([{j: c for j, c in enumerate(row) if c} for row in entries], field)


@dataclass(frozen=True)
class SplitWitness:
    """f = h1(x) * h2(y) with h2 monic, checked by expansion when built."""

    h1: Polynomial
    h2: Polynomial


def rank_one_split(f: Polynomial):
    """The split f = h1(x)*h2(y) when the coefficient matrix has rank <= 1.

    Built from the first nonzero entry in canonical order, verified by exact
    expansion, and normalized with h2 monic.  Returns None when no split
    exists, in which case :func:`exact_rank` certifies rank >= 2.
    """
    matrix = coefficient_matrix(f)
    ring = f.ring
    entries = matrix.entries  # f != 0 guarantees a nonzero entry
    i0, j0 = next((i, j) for i, row in enumerate(entries) for j, c in enumerate(row) if c)
    inv = ring.field.one / entries[i0][j0]
    h1_terms = {x: row[j0] * inv for x, row in zip(matrix.rows, entries) if row[j0]}
    h1 = Polynomial._raw(ring, h1_terms)
    h2 = Polynomial._raw(ring, {y: c for y, c in zip(matrix.cols, entries[i0]) if c})
    if h1 * h2 == f:
        lc = h2.leading_coefficient()
        return SplitWitness(h1.scale(lc), h2.scale(ring.field.one / lc))
    if exact_rank(entries, ring.field) <= 1:
        raise CertificateVerificationError("rank <= 1 but the split failed to expand")
    return None


@dataclass(frozen=True)
class HypersurfaceReport:
    """The rank-one split (None when rank >= 2) and the invariants a
    hypersurface document writes: the bidegree a, b and cd_P, grade_P,
    cd_Q, grade_Q of S/fS in closed form."""

    split: SplitWitness | None
    invariants: dict


def _proper_principal(f: Polynomial) -> Ideal:
    if not f:
        raise ZeroPolynomialError("hypersurface needs a nonzero polynomial")
    if f.is_constant():
        raise UnitIdealError("(f) is the unit ideal for a nonzero constant")
    return Ideal(f.ring, (f,))


def hypersurface_stats(f: Polynomial) -> HypersurfaceReport:
    """Rank-one split, and bidegree, cd and grade for both blocks of S/fS.

    For a nonzero bihomogeneous f of bidegree (a, b): a = 0 gives
    (cd_P, cd_Q) = (m, n-1) with both blocks relative CM, b = 0 the mirror,
    and a, b > 0 gives grade exactly one below cd on both sides.  These
    closed forms are the ones :func:`is_relative_cm` uses for a principal
    S/fS and the ones ``--verify`` checks a document against, so no
    dimension and no regular sequence is computed.
    """
    _proper_principal(f)
    return HypersurfaceReport(rank_one_split(f), _hypersurface_invariants(f))


def _two_level_certificate(
    f: Polynomial,
    middle: Polynomial,
    cofactor: Polynomial,
    block: VariableBlock,
    seed: int,
) -> CMFiltration:
    """Verify the chain (f) ⊂ (middle) ⊂ (1), and raise if it fails.

    Level one is (middle)/(f) ≅ S/(cofactor) via multiplication by middle,
    level two is S/(middle); both must be relative CM with strictly
    increasing cd.
    """
    ring = f.ring
    lower, upper = Ideal(ring, (cofactor,)), Ideal(ring, (middle,))
    bottom = is_relative_cm(IdealPair.cyclic(lower), block, seed)
    top = is_relative_cm(IdealPair.cyclic(upper), block, seed)
    if not (bottom.relative_cm and top.relative_cm and bottom.cd < top.cd):
        raise CertificateVerificationError("split found but the two-level chain did not verify")
    level1 = FiltrationLevel(upper, bottom, VerifySpec.cyclic(lower))
    level2 = FiltrationLevel(Ideal.unit(ring), top, VerifySpec.cyclic(upper))
    return CMFiltration(Ideal(ring, (f,)), (level1, level2))


def classify_hypersurface(
    f: Polynomial,
    block: VariableBlock,
    seed: int = 0,
    *,
    _report: CdGradeReport | HypersurfaceReport | None = None,
) -> SeqCMVerdict:
    """Sequential Cohen-Macaulayness of S/fS with respect to P or Q.

    True exactly when f = h1(x)*h2(y).  Degenerate bidegrees (a = 0 or
    b = 0) yield a one-level certificate (the ring is relative CM); a mixed
    split yields the verified two-level chain; no split yields a negative
    verdict whose single level records grade < cd of the ring itself.

    ``_report`` is work the caller has already done on S/fS:
    :func:`seqcm.filtration.is_seq_cm` passes the block's cyclic cd/grade
    report, and the CLI passes the :class:`HypersurfaceReport` of
    :func:`hypersurface_stats`, whose split is reused.  Only a single-level
    verdict reads a report of S/fS, and it computes its own when handed
    none.
    """
    if block is VariableBlock.M:
        raise ValueError("classification applies to the P and Q blocks")
    a, b = f.bidegree()
    I = _proper_principal(f)
    if isinstance(_report, HypersurfaceReport):
        split, report = _report.split, None
    else:
        split, report = rank_one_split(f), _report
    if split is None or a == 0 or b == 0:
        report = report or is_relative_cm(IdealPair.cyclic(I), block, seed)
        if report.relative_cm != (split is not None):  # one-sided exactly when relative CM
            raise CertificateVerificationError("the rank test and the grade of S/fS disagree")
        return single_level_verdict(I, report, Route.HYPERSURFACE_RANK1)
    middle, cofactor = (split.h1, split.h2) if block is VariableBlock.Q else (split.h2, split.h1)
    filtration = _two_level_certificate(f, middle, cofactor, block, seed)
    return SeqCMVerdict(filtration, Route.HYPERSURFACE_RANK1)
