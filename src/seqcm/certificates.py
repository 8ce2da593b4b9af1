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

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from .errors import CertificateVerificationError, SeqcmError
from .groebner import Ideal, intersect, saturation
from .poly import parse_polynomial
from .relcm import CdGradeReport, IdealPair, VariableBlock, is_relative_cm
from .relcm import _echelon, _principal_cd_grade


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


def _first_failing_level(relative_cm_flags) -> int | None:
    """The first level, counted from 1, whose flag is false, or None: the
    offending level of verdicts and of the documents that are verified."""
    return next((i for i, ok in enumerate(relative_cm_flags, start=1) if not ok), None)


@dataclass(frozen=True)
class SeqCMVerdict:
    """A certificate and the route that produced it.

    S/I is sequentially CM exactly when every quotient of its CM filtration
    is relative CM, so ``offending_level`` (the first level that is not)
    and ``decision`` (there is none) are read off the levels.

    ``report`` is the cd/grade report of S/I itself, which
    :func:`seqcm.filtration.is_seq_cm` computes first, routes by and sets
    on every verdict it returns; other deciders leave it None.  It is not
    part of the certificate and takes no part in comparisons.
    """

    filtration: CMFiltration
    route: Route
    report: CdGradeReport | None = field(default=None, compare=False)

    offending_level = property(lambda self: _first_failing_level(
        level.relative_cm for level in self.filtration.levels
    ))
    decision = property(lambda self: self.offending_level is None)


def single_level_verdict(I: Ideal, report: CdGradeReport, route: Route) -> SeqCMVerdict:
    """The verdict whose chain is I ⊊ (1): S/I is the only quotient, so the
    decision is whether S/I itself is relative CM."""
    level = FiltrationLevel(Ideal.unit(I.ring), report, VerifySpec.cyclic(I))
    return SeqCMVerdict(CMFiltration(I, (level,)), route)


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


def _hypersurface_invariants(f) -> dict:
    """A hypersurface document's invariants: the bidegree (a, b) of f, and
    the cd and grade of S/fS for P and Q in closed form."""
    doc = dict(zip("ab", f.bidegree()))
    pair = IdealPair.cyclic(Ideal(f.ring, (f,)))
    for block in (VariableBlock.P, VariableBlock.Q):
        cd, grade = _principal_cd_grade(pair, block)
        doc[f"cd_{block.value}"], doc[f"grade_{block.value}"] = cd, grade
    return doc


def _verdict_doc(verdict: SeqCMVerdict) -> dict:
    return {
        "decision": verdict.decision,
        "route": verdict.route.value,
        "offending_level": verdict.offending_level,
        "filtration": _filtration_doc(verdict.filtration),
    }


# ---- re-verification -----------------------------------------------------------------


def _level_problem(spec: VerifySpec, d_i: Ideal, below: Ideal, want, block, seed):
    """What is wrong with the level D_i = ``d_i`` over D_{i-1} = ``below``
    whose verify record is ``spec`` and whose document says (cd, grade,
    relative_cm) = ``want``; None if nothing.

    The record must present D_i/D_{i-1}.  A pair a/b does when a = D_i + b
    and D_i ∩ b = D_{i-1}; a cyclic S/q when q = D_{i-1} and D_i = (1), or
    D_{i-1} = f·q and D_i = (f), since f is a nonzerodivisor; an H^0 record
    when it is of D_{i-1}.  The invariants are then recomputed from the
    record alone, an H^0 level's by the saturation identity.  A level equal
    to the one below is a zero module, which the recomputation rejects; for
    H^0 that means an ``of`` that is already saturated.
    """
    first = spec.ideals[0]
    if spec.kind == "pair":
        a, b = spec.ideals
        if not a.equals(d_i + b):
            return "pair a is not the level ideal + b"
        what, presented = "ideal ∩ b", intersect(d_i, b)
    elif spec.kind == "h0" or d_i.is_unit_ideal():
        what, presented = VERIFY_FIELDS[spec.kind][0], first
    elif len(d_i.gens) == 1:
        what, presented = "ideal·quotient", first.scaled_by(d_i.gens[0])
    else:
        return "cyclic level ideal is neither (1) nor principal"
    if not presented.equals(below):
        return f"{what} is not the level below"
    if spec.kind == "h0":
        sat = saturation(first, block.ideal(d_i.ring))
        if sat is first:  # the first colon round added nothing
            return "h0 quotient is zero: of is saturated"
        if not sat.equals(d_i):
            return "stored ideal is not the saturation"
        got = (0, 0, True)
    else:
        module = IdealPair if spec.kind == "pair" else IdealPair.cyclic
        report = is_relative_cm(module(*spec.ideals), block, seed)
        got = (report.cd, report.grade, report.relative_cm)
    return None if got == want else f"recomputed {got}, document says {want}"


def _sequence_problem(forms: Ideal, count: int, grade: int, block) -> str | None:
    """What is wrong with a level's ``regular_sequence`` of ``count``
    strings, parsed as the generators of ``forms``; None if nothing.  It
    must hold ``grade`` linearly independent nonzero linear forms in the
    block's variables.  This runs no search: whether the forms are a
    regular sequence on the level is not checked."""
    if count != grade:
        return f"regular_sequence has {count} forms, grade is {grade}"
    variables = set(block.variable_indices(forms.ring))
    if len(forms.gens) < count or not all(  # parsing drops a zero form
        sum(e) == 1 and e.index(1) in variables for g in forms.gens for e in g.terms
    ):
        return "regular_sequence is not of nonzero linear forms in the block's variables"
    rows = [{e.index(1): c for e, c in g.terms.items()} for g in forms.gens]
    if len(_echelon(rows, forms.ring.field)) < count:
        return "regular_sequence is not linearly independent"
    return None


class _BadField(Exception):
    """A field that the check reads is missing or of the wrong JSON type;
    the one argument says which, as a disagreement."""


class _Fields(dict):
    """A document object whose reads raise :class:`_BadField` on a missing
    key or on a value whose type is not the key's in ``_FIELD_TYPES``."""

    def __missing__(self, key):
        raise _BadField(f"{key} is missing")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        want, types = _FIELD_TYPES.get(key, (None, ()))
        items = value if type(value) is list else ()  # a list field holds objects
        if want and (type(value) not in types or any(type(v) is not _Fields for v in items)):
            raise _BadField(f"{key} is not a JSON {want}")
        return value


# The JSON type of each field the check reads by name (a boolean is not an
# integer): a value of another type is one disagreement, not a broken read
# or a false match.  A list of polynomials is checked where it is parsed.
_FIELD_TYPES = {
    **dict.fromkeys(("block", "kind", "route", "h1", "h2"), ("string", (str,))),
    **dict.fromkeys(("seed", "cd", "grade"), ("integer", (int,))),
    **dict.fromkeys(("relative_cm", "decision"), ("boolean", (bool,))),
    "offending_level": ("integer or null", (int, type(None))),
    **dict.fromkeys(("verdict", "filtration", "verify", "invariants"), ("object", (_Fields,))),
    "levels": ("list of objects", (list,)),
    "split": ("object or null", (_Fields, type(None))),
}


@contextmanager
def _reading(problems: list, tag: str = ""):
    """Add a field that the block reads and the document lacks, or has with
    the wrong type, to ``problems`` as one disagreement naming it, once
    however many blocks read it, and go on after the block."""
    try:
        yield
    except _BadField as exc:
        if all(p.rpartition(": ")[2] != exc.args[0] for p in problems):
            problems.append(tag + exc.args[0])


def _same(value, computed) -> bool:
    """Whether a document value equals the computed one as JSON, so that
    ``true``, ``1`` and ``1.0`` differ; for values ``_FIELD_TYPES`` does not
    type (the ring, hypersurface invariants, a recomputed document's fields)."""
    return json.dumps(value, sort_keys=True) == json.dumps(computed, sort_keys=True)


def _input_sha256(text: str) -> str:
    """The hex SHA-256 of a problem file's text, as a document records it."""
    return hashlib.sha256(text.encode()).hexdigest()


def verify_certificate(doc: dict, problem) -> list:
    """Check a result document against the problem it was made from, a
    :class:`seqcm.cli.ProblemFile`.

    ``input_sha256`` must hash the problem's text, and ``ring`` and
    ``generators`` must be the input's.  A ``seqcm`` or
    ``hypersurface`` document's filtration must then start at the input
    ideal and end at (1) with strictly increasing level cds.  Each level's
    verify record must present the level over the one below it, the chain
    taken to run from the input ideal to (1), and the level is recomputed
    from that record alone (:func:`_level_problem`).  Each level's
    ``regular_sequence`` must be ``grade`` linearly independent linear forms
    in the block's variables (:func:`_sequence_problem`).  The verdict's
    ``offending_level`` and ``decision`` must follow from the levels as a
    verdict derives them, its ``route`` must be the one its command's
    decider gives for the input and levels (:func:`_decided_route`), and
    the top-level invariants must agree with the levels (seqcm) or the
    input's generator (hypersurface); these last checks compute no basis.
    Any other document must be the one its command writes again from the
    problem, with its ``block`` and ``seed`` (:func:`_recomputed_problems`).
    Ideals are compared as ideals, not as texts.  Each distinct ideal of the
    document is parsed at most once per call, and the input's own generator
    strings are taken to be the problem's ideal.

    Returns a list of human-readable disagreements (empty when everything
    checks out), among them an ideal that does not parse and each field
    that the check reads and the document lacks or has with the wrong JSON
    type (``_FIELD_TYPES``; a ``seed`` is an integer, not a boolean).  A
    value read untyped must equal the computed one as JSON (:func:`_same`).
    """
    doc = json.loads(json.dumps(doc), object_hook=_Fields)
    ideal, ring = problem.ideal, problem.ring
    parsed = {ideal.generator_strings(): ideal}
    problems = []

    def parse(gens) -> Ideal:
        if type(gens) is not list or not all(type(g) is str for g in gens):
            raise ValueError(f"{gens!r} is not a list of polynomial strings")
        key = tuple(gens)
        if key not in parsed:
            parsed[key] = Ideal(ring, [parse_polynomial(ring, g) for g in key])
        return parsed[key]

    def check(name: str, read, holds, claim: str) -> None:
        """A disagreement unless the ideal that ``read()`` gives parses and holds."""
        with _reading(problems):
            try:
                if not holds(parse(read())):
                    problems.append(f"{name} {claim}")
            except (SeqcmError, ValueError) as exc:
                problems.append(f"cannot parse {name}: {exc}")

    with _reading(problems):
        if not _same(doc["ring"], _ring_doc(ring)):
            problems.append("ring is not the input ring")
    with _reading(problems):
        if doc["input_sha256"] != _input_sha256(problem.text):
            problems.append("input_sha256 is not the hash of the input text")
    check("generators", lambda: doc["generators"], ideal.equals, "are not the input ideal")
    block = seed = None
    with _reading(problems):
        try:
            block = VariableBlock.from_tag(doc["block"])
        except ValueError as exc:
            problems.append(str(exc))
    with _reading(problems):
        seed = doc["seed"]
    if doc.get("command") not in ("seqcm", "hypersurface"):
        with _reading(problems):
            if not problems:  # the document's input is the file's
                problems += _recomputed_problems(doc, problem, block, seed)
        return problems
    try:
        verdict = doc["verdict"]
        filtration = verdict["filtration"]
        levels = filtration["levels"]
    except _BadField as exc:
        return problems + [exc.args[0]]
    check("filtration base", lambda: filtration["base"], ideal.equals, "is not the input ideal")
    check("last level ideal", lambda: levels[-1]["ideal"] if levels else [],
          Ideal.is_unit_ideal, "is not (1)")
    with _reading(problems):
        cds = [level["cd"] for level in levels]
        if any(c2 <= c1 for c1, c2 in zip(cds, cds[1:])):
            problems.append(f"level cds {cds} not strictly increasing")
    ends = {0: ideal, len(levels): Ideal.unit(ring)}  # D_0 and D_n, checked above
    for index, level in enumerate(levels, start=1):
        tag = f"level {index}: "
        with _reading(problems, tag):
            record = level["verify"]
            names = VERIFY_FIELDS.get(record["kind"])
            if names is None:
                problems.append(f"{tag}unknown verify kind {record['kind']!r}")
                continue
            want = (level["cd"], level["grade"], level["relative_cm"])
            if None in (block, seed):
                continue  # reported above
            try:
                spec = VerifySpec(record["kind"], tuple(parse(record[n]) for n in names))
                d_i = ends.get(index) or parse(level["ideal"])
                below = ends.get(index - 1) or parse(levels[index - 2]["ideal"])
                problem = _level_problem(spec, d_i, below, want, block, seed)
            except (SeqcmError, ValueError) as exc:
                problem = f"recheck raised {exc}"
            if problem is not None:
                problems.append(tag + problem)
        with _reading(problems, tag):
            if block is not None:  # else reported above
                texts = level["regular_sequence"]
                try:
                    problem = _sequence_problem(parse(texts), len(texts), level["grade"], block)
                except (SeqcmError, ValueError) as exc:
                    problem = f"cannot parse regular_sequence: {exc}"
                if problem is not None:
                    problems.append(tag + problem)
    with _reading(problems):
        offending = _first_failing_level(level["relative_cm"] for level in levels)
        for key, value in {"offending_level": offending, "decision": offending is None}.items():
            with _reading(problems):
                if verdict[key] != value:
                    problems.append(f"{key} is not {value}")
    with _reading(problems):
        if verdict["route"] != _decided_route(doc["command"], ideal, levels):
            problems.append(f"route {verdict['route']!r} does not fit the input and levels")
    if doc["command"] == "hypersurface":
        _hypersurface_problems(doc, ideal, problems)
        return problems
    with _reading(problems):
        invariants = doc["invariants"]
        # cd depends only on the support, the union of the levels' supports.
        want = {"cd": levels[-1]["cd"]} if levels else {}
        want["relative_cm"] = invariants["grade"] == invariants["cd"]
        if len(levels) == 1 and levels[0]["verify"]["kind"] == "cyclic":  # S/I itself
            want["grade"] = levels[0]["grade"]
        problems += [
            f"invariants {key} is not {value}"
            for key, value in want.items()
            if invariants[key] != value
        ]
    return problems


def _recomputed_problems(doc: dict, problem, block, seed) -> list:
    """Each field of a document without a verdict that is not what its
    command writes again from ``problem`` with ``block`` and ``seed``.  The
    fields checked against the input (``ring``, ``generators`` and
    ``input_sha256``) are skipped, and so is ``file``."""
    from .cli import run  # imported here: cli imports this module

    try:
        fresh = run(doc["command"], problem, block, seed)
    except (SeqcmError, ValueError) as exc:
        return [f"recheck raised {exc}"]
    problems = []
    for key in sorted((doc.keys() | fresh.keys()) - {"file", "input_sha256", "ring", "generators"}):
        if key not in doc:
            problems.append(f"{key} is missing")
        elif not _same(doc.get(key), fresh.get(key)):  # compared whole
            value = json.dumps(fresh.get(key), sort_keys=True)
            problems.append(f"{key} is not the recomputed {value}")
    return problems


def _decided_route(command: str, ideal: Ideal, levels: list) -> str | None:
    """The route that ``command``'s decider gives for the input ideal and
    the document's levels, or None when it gives none: for ``seqcm`` the
    first test of :func:`seqcm.filtration._routed_verdict` that they meet,
    for ``hypersurface`` the rank-one route of a single generator."""
    one = len(levels) == 1
    if command == "hypersurface":
        route = Route.HYPERSURFACE_RANK1 if len(ideal.gens) == 1 else None
    elif one and levels[0]["relative_cm"]:
        route = Route.RELATIVE_CM
    elif levels and levels[-1]["cd"] <= 1:
        shape = [(level["verify"]["kind"], level["cd"]) for level in levels]
        route = Route.CD_LE_1 if shape == [("h0", 0), ("cyclic", 1)] else None
    elif ideal.is_monomial_ideal():
        route = Route.UNMIXED_SHORTCUT if one else Route.MONOMIAL_FILTRATION
    else:
        route = Route.HYPERSURFACE_RANK1 if len(ideal.gens) == 1 else None
    return route and route.value


def _hypersurface_problems(doc: dict, ideal: Ideal, problems: list) -> None:
    """Add to ``problems`` what is wrong with a hypersurface document's
    invariants and split, read against the input's generator f: its
    bidegree, cd and grade of S/fS in closed form, and a split
    h1(x)·h2(y) = f, null exactly when the decision is false."""
    if len(ideal.gens) != 1:
        return  # the route check reports it
    (f,), ring = ideal.gens, ideal.ring
    with _reading(problems):
        invariants = doc["invariants"]
        problems += [
            f"invariants {key} is not {value}"
            for key, value in _hypersurface_invariants(f).items()
            if not _same(invariants[key], value)
        ]
    with _reading(problems):
        split = doc["split"]
        if (split is None) == doc["verdict"]["decision"]:
            problems.append("split is not null exactly when decision is false")
            return
        if split is None:
            return
        try:
            h1, h2 = (parse_polynomial(ring, split[key]) for key in ("h1", "h2"))
        except SeqcmError as exc:
            problems.append(f"cannot parse split: {exc}")
            return
        if not h1.support_variables() <= set(ring.x_range):
            problems.append("split h1 is not in x only")
        if not h2.support_variables() <= set(ring.y_range):
            problems.append("split h2 is not in y only")
        if h1 * h2 != f:
            problems.append("split h1·h2 is not the generator")
