"""Filtration certificates and sequential Cohen-Macaulay verdicts.

These are the shared result types of the decision procedures: a chain of
ideals whose successive quotients carry per-level cd/grade records, plus a
routing tag saying which procedure produced the verdict.  Every level also
records how to re-check it from the certificate alone (a cyclic isomorph, an
ideal pair, or a saturation identity), which is what the CLI's --verify
mode replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import CertificateVerificationError
from .groebner import Ideal
from .relcm import CdGradeReport


class Route(Enum):
    RELATIVE_CM = "relative-cm"
    CD_LE_1 = "cd-le-1"
    MONOMIAL_FILTRATION = "monomial-filtration"
    HYPERSURFACE_RANK1 = "hypersurface-rank1"
    UNMIXED_SHORTCUT = "unmixed-shortcut"


@dataclass(frozen=True)
class VerifySpec:
    """Self-contained recipe to recompute one level's cd and grade.

    kind "cyclic": the quotient is isomorphic to S/`quotient`.
    kind "pair": the quotient is `pair_a`/`pair_b`; its cd and grade are
    recomputed by :func:`seqcm.relcm.is_relative_cm` on that pair.
    kind "h0": the level ideal is the block-saturation of `h0_of`, so the
    quotient is the H^0 submodule (cd 0, grade 0).
    """

    kind: str
    quotient: Ideal | None = None
    pair_a: Ideal | None = None
    pair_b: Ideal | None = None
    h0_of: Ideal | None = None

    @classmethod
    def cyclic(cls, quotient: Ideal) -> "VerifySpec":
        return cls(kind="cyclic", quotient=quotient)

    @classmethod
    def pair(cls, a: Ideal, b: Ideal) -> "VerifySpec":
        return cls(kind="pair", pair_a=a, pair_b=b)

    @classmethod
    def h0(cls, of: Ideal) -> "VerifySpec":
        return cls(kind="h0", h0_of=of)


@dataclass(frozen=True)
class FiltrationLevel:
    """One step D_i of the chain with the invariants of D_i/D_{i-1}."""

    ideal: Ideal
    cd: int
    grade: int
    relative_cm: bool
    regular_sequence: tuple
    verify: VerifySpec
    associated_primes: tuple | None = None  # radicals, monomial route only


@dataclass(frozen=True)
class CMFiltration:
    """base = D_0 ⊊ levels[0].ideal ⊊ ... ⊊ levels[-1].ideal = (1)."""

    block: object
    base: Ideal
    levels: tuple

    def chain(self) -> tuple:
        return (self.base,) + tuple(level.ideal for level in self.levels)

    def level_cds(self) -> tuple:
        return tuple(level.cd for level in self.levels)

    def __post_init__(self):
        cds = self.level_cds()
        if any(c2 <= c1 for c1, c2 in zip(cds, cds[1:])):
            raise CertificateVerificationError(
                f"level cds {cds} are not strictly increasing"
            )


@dataclass(frozen=True)
class SeqCMVerdict:
    """Decision plus certificate; when false, the first failing level index (1-based).

    ``report`` is the cd/grade report of S/I itself, which
    :func:`seqcm.filtration.is_seq_cm` computes first, routes by and sets
    on every verdict it returns; other deciders leave it None.  It is not
    part of the certificate and takes no part in comparisons.
    """

    decision: bool
    filtration: CMFiltration
    route: Route
    offending_level: int | None = None
    report: CdGradeReport | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.decision and not all(l.relative_cm for l in self.filtration.levels):
            raise CertificateVerificationError(
                "positive verdict with a non-relative-CM level"
            )
        if self.decision and self.offending_level is not None:
            raise CertificateVerificationError("positive verdict with offending level")


def single_level_verdict(
    I: Ideal, block, report: CdGradeReport, route: Route
) -> SeqCMVerdict:
    """The verdict whose chain is I ⊊ (1): S/I is the only quotient, so the
    decision is whether S/I itself is relative CM."""
    level = FiltrationLevel(
        ideal=Ideal.unit(I.ring),
        cd=report.cd,
        grade=report.grade,
        relative_cm=report.relative_cm,
        regular_sequence=report.regular_sequence,
        verify=VerifySpec.cyclic(I),
    )
    return SeqCMVerdict(
        decision=report.relative_cm,
        filtration=CMFiltration(block=block, base=I, levels=(level,)),
        route=route,
        offending_level=None if report.relative_cm else 1,
    )
