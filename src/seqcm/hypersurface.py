"""Classification of hypersurface rings S/fS.

A bihomogeneous f of bidegree (a, b) expands as sum c_{alpha,beta} x^alpha
y^beta, which is a matrix over the occurring x monomials and y monomials.
S/fS is sequentially Cohen-Macaulay with respect to Q (equivalently P) iff f
factors as h1(x) * h2(y), which happens exactly when that matrix has rank at
most one.  The matrix is kept as sparse rows, f's terms grouped by their x
part; the split, when it exists, is read off the row and the column of f's
leading term and re-verified by exact expansion.  A returned None is backed
by an exact rank computation certifying rank >= 2.

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


def _parts(ring: BigradedRing, exps) -> tuple:
    """The x part and the y part of an exponent tuple, each of the ring's width."""
    m, n = ring.m, ring.n
    return exps[:m] + (0,) * n, (0,) * m + exps[m:]


def coefficient_matrix(f: Polynomial) -> dict:
    """The (x monomial) x (y monomial) coefficient matrix of a nonzero
    bihomogeneous polynomial as sparse rows {x part: {y part: c}}, holding
    f's terms only; lossless."""
    f.bidegree()  # raises on zero / non-bihomogeneous input
    rows = {}
    for exps, c in f.terms.items():
        x, y = _parts(f.ring, exps)
        rows.setdefault(x, {})[y] = c
    return rows


def exact_rank(rows, field) -> int:
    """Rank of the rows, each a map column -> field element, by the sparse
    elimination that also gives the Koszul ranks
    (:func:`seqcm.relcm._rank`); exact over any field."""
    return _rank([{k: c for k, c in row.items() if c} for row in rows], field)


@dataclass(frozen=True)
class SplitWitness:
    """f = h1(x) * h2(y) with h2 monic, checked by expansion when built."""

    h1: Polynomial
    h2: Polynomial


def rank_one_split(f: Polynomial):
    """The split f = h1(x)*h2(y) when the coefficient matrix has rank <= 1.

    Read off the row and the column of f's leading term, verified by exact
    expansion, and normalized with h2 monic, which makes it unique.  Returns
    None when no split exists, in which case :func:`exact_rank` certifies
    rank >= 2.
    """
    rows = coefficient_matrix(f)
    ring = f.ring
    lead = f.leading_monomial()
    x0, y0 = _parts(ring, lead)
    inv = ring.field.one / f.terms[lead]
    h1 = Polynomial._raw(ring, {x: row[y0] * inv for x, row in rows.items() if y0 in row})
    h2 = Polynomial._raw(ring, rows[x0])
    if h1 * h2 == f:
        lc = h2.leading_coefficient()
        return SplitWitness(h1.scale(lc), h2.scale(ring.field.one / lc))
    if exact_rank(rows.values(), ring.field) <= 1:
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
