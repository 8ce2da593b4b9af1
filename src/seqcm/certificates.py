"""Filtration certificates: their types, their document format and their check.

These are the shared result types of the decision procedures: a chain of
ideals whose successive quotients carry the cd/grade report of each level,
plus a routing tag saying which procedure produced the verdict.  Every level
also records how to re-check it from the certificate alone (a cyclic
isomorph, an ideal pair, or a saturation identity).  ``VERIFY_FIELDS`` names
the document fields of each kind; the encoders below write them and
:func:`verify_certificate`, which the CLI's --verify mode runs, reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import CertificateVerificationError, SeqcmError
from .groebner import Ideal, saturation
from .poly import parse_polynomial
from .relcm import CdGradeReport, IdealPair, VariableBlock, is_relative_cm


class Route(Enum):
    RELATIVE_CM = "relative-cm"
    CD_LE_1 = "cd-le-1"
    MONOMIAL_FILTRATION = "monomial-filtration"
    HYPERSURFACE_RANK1 = "hypersurface-rank1"
    UNMIXED_SHORTCUT = "unmixed-shortcut"


# Each verify kind and the document fields holding its ideals, in order:
#   cyclic  the quotient is isomorphic to S/quotient;
#   pair    the quotient is a/b, and a is the level ideal + b;
#   h0      the level ideal is the block-saturation of `of`, so the quotient
#           is the H^0 submodule (cd 0, grade 0).
VERIFY_FIELDS = {"cyclic": ("quotient",), "pair": ("a", "b"), "h0": ("of",)}


@dataclass(frozen=True)
class VerifySpec:
    """Self-contained recipe to recompute one level: a kind of
    ``VERIFY_FIELDS`` and its ideals, in the order that table lists."""

    kind: str
    ideals: tuple

    @classmethod
    def cyclic(cls, quotient: Ideal) -> "VerifySpec":
        return cls("cyclic", (quotient,))

    @classmethod
    def pair(cls, a: Ideal, b: Ideal) -> "VerifySpec":
        return cls("pair", (a, b))

    @classmethod
    def h0(cls, of: Ideal) -> "VerifySpec":
        return cls("h0", (of,))


@dataclass(frozen=True)
class FiltrationLevel:
    """One step D_i of the chain with the cd/grade report of D_i/D_{i-1}."""

    ideal: Ideal
    report: CdGradeReport
    verify: VerifySpec
    associated_primes: tuple | None = None  # radicals, monomial route only

    cd = property(lambda self: self.report.cd)
    grade = property(lambda self: self.report.grade)
    relative_cm = property(lambda self: self.report.relative_cm)
    regular_sequence = property(lambda self: self.report.regular_sequence)


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
    level = FiltrationLevel(Ideal.unit(I.ring), report, VerifySpec.cyclic(I))
    return SeqCMVerdict(
        decision=report.relative_cm,
        filtration=CMFiltration(block=block, base=I, levels=(level,)),
        route=route,
        offending_level=None if report.relative_cm else 1,
    )


# ---- documents -----------------------------------------------------------------------


def _ring_doc(ring) -> dict:
    return {"m": ring.m, "n": ring.n, "field": ring.field.name}


def _ideal_doc(ideal: Ideal) -> list:
    return list(ideal.generator_strings())


def _verify_doc(spec: VerifySpec) -> dict:
    doc = dict(zip(VERIFY_FIELDS[spec.kind], map(_ideal_doc, spec.ideals)))
    return {"kind": spec.kind, **doc}


def _filtration_doc(filtration: CMFiltration) -> dict:
    levels = []
    for index, level in enumerate(filtration.levels, start=1):
        entry = {
            "level": index,
            "ideal": _ideal_doc(level.ideal),
            "cd": level.cd,
            "grade": level.grade,
            "relative_cm": level.relative_cm,
            "regular_sequence": [str(p) for p in level.regular_sequence],
            "verify": _verify_doc(level.verify),
        }
        if level.associated_primes is not None:
            entry["associated_primes"] = [
                _ideal_doc(p) for p in level.associated_primes
            ]
        levels.append(entry)
    return {
        "base": _ideal_doc(filtration.base),
        "levels": levels,
    }


def _verdict_doc(verdict: SeqCMVerdict) -> dict:
    return {
        "decision": verdict.decision,
        "route": verdict.route.value,
        "offending_level": verdict.offending_level,
        "filtration": _filtration_doc(verdict.filtration),
    }


# ---- re-verification -----------------------------------------------------------------


def _level_problem(spec: VerifySpec, level_ideal: Ideal | None, want, block, seed):
    """What is wrong with a level whose verify record is ``spec`` and whose
    document says (cd, grade, relative_cm) = ``want``; None if nothing."""
    if spec.kind == "h0":
        (of,) = spec.ideals
        if not saturation(of, block.ideal(of.ring)).equals(level_ideal):
            return "stored ideal is not the saturation"
        got = (0, 0, True)
    else:
        if spec.kind == "pair":
            a, b = spec.ideals
            if not a.equals(level_ideal + b):
                return "pair a is not the level ideal + b"
            pair = IdealPair(a, b)
        else:
            pair = IdealPair.cyclic(spec.ideals[0])
        report = is_relative_cm(pair, block, seed)
        got = (report.cd, report.grade, report.relative_cm)
    return None if got == want else f"recomputed {got}, document says {want}"


def verify_certificate(doc: dict, ideal: Ideal) -> list:
    """Check a result document against the input ideal it was made from.

    ``ring`` and ``generators`` must be the input's, and the filtration must
    start at the input ideal and end at (1) with strictly increasing level
    cds.  Each level is recomputed from its verify record alone (pair levels
    also check a = ideal + b, torsion levels the saturation identity).
    Ideals are compared as ideals, not as texts.  Each distinct ideal of the
    document is parsed at most once per call, and one written as
    ``generators`` is taken to be ``ideal`` once that check passes.

    Returns a list of human-readable disagreements (empty when everything
    checks out).  Only documents carrying a verdict are verified.
    """
    verdict = doc.get("verdict")
    if verdict is None:
        return []
    ring = ideal.ring
    block = VariableBlock.from_tag(doc["block"])
    seed = doc["seed"]
    parsed = {}

    def parse(gens) -> Ideal:
        key = tuple(gens)
        if key not in parsed:
            parsed[key] = Ideal(ring, [parse_polynomial(ring, g) for g in key])
        return parsed[key]

    problems = [] if doc["ring"] == _ring_doc(ring) else ["ring is not the input ring"]
    generators = tuple(doc["generators"])
    if generators == ideal.generator_strings() or parse(generators).equals(ideal):
        parsed[generators] = ideal
    else:
        problems.append("generators are not the input ideal")
    filtration = verdict["filtration"]
    base = parse(filtration["base"])
    if base is not ideal and not base.equals(ideal):
        problems.append("filtration base is not the input ideal")
    levels = filtration["levels"]
    if not levels or (
        levels[-1]["ideal"] != ["1"] and not parse(levels[-1]["ideal"]).is_unit_ideal()
    ):
        problems.append("last level ideal is not (1)")
    cds = [level["cd"] for level in levels]
    if any(c2 <= c1 for c1, c2 in zip(cds, cds[1:])):
        problems.append(f"level cds {cds} not strictly increasing")
    for level in levels:
        record = level["verify"]
        tag = f"level {level['level']}"
        names = VERIFY_FIELDS.get(record["kind"])
        if names is None:
            problems.append(f"{tag}: unknown verify kind {record['kind']!r}")
            continue
        want = (level["cd"], level["grade"], level["relative_cm"])
        try:
            spec = VerifySpec(record["kind"], tuple(parse(record[n]) for n in names))
            stored = None if spec.kind == "cyclic" else parse(level["ideal"])
            problem = _level_problem(spec, stored, want, block, seed)
        except (SeqcmError, ValueError) as exc:
            problem = f"recheck raised {exc}"
        if problem is not None:
            problems.append(f"{tag}: {problem}")
    all_cm = all(level["relative_cm"] for level in levels)
    if verdict["decision"] != (all_cm and verdict["offending_level"] is None):
        problems.append("decision inconsistent with level records")
    return problems
