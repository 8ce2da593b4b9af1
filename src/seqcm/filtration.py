"""Monomial primary decomposition, dimension filtrations, and the sequential
Cohen-Macaulay decision.

A monomial ideal splits into primary components by the classic coprime-
generator recursion, whose leaves are generated by pure powers of
variables.  Leaves with the same radical are merged into one component by
intersection, and redundant components are dropped.  A pure-power ideal is
irreducible: it contains an intersection of monomial ideals only when it
contains one of them.  So a component contains the intersection of the
others exactly when each of its leaves contains a leaf of another
component, and the redundancy test intersects nothing.  Components are
labeled with the cd of S modulo their radical (a variable count for the
chosen block).  Sorting the distinct cd values c_1 < ... < c_r, the chain

    D_i = intersection of the components with cd > c_i

interpolates from D_0 = I to D_r = (1).  With E_i the intersection of the
level-i components, it is built by one fold from the top down,
D_{i-1} = D_i ∩ E_i, so each intersection is computed once.  Its quotients
D_i/D_{i-1} are isomorphic to (D_i + E_i)/E_i.  That chain is taken as the
dimension filtration with respect to the block (its maximality is validated
by a brute-force oracle in the test suite, not assumed), and the module is
sequentially Cohen-Macaulay iff every quotient has grade equal to its cd.

Inputs outside the supported classes (monomial, principal bihomogeneous, or
cd <= 1) are rejected loudly: a wrong verdict is worse than no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

from .certificates import (
    CMFiltration,
    FiltrationLevel,
    Route,
    SeqCMVerdict,
    VerifySpec,
    single_level_verdict,
)
from .errors import (
    CertificateVerificationError,
    NotMonomialError,
    UnitIdealError,
    UnsupportedIdealClassError,
)
from .groebner import (
    Ideal,
    _intersect_monomials,
    _minimal_monomials,
    _monomial_ideal,
    saturation,
)
from .hypersurface import classify_hypersurface
from .poly import BigradedRing, Polynomial, mono_divides, mono_support
from .relcm import CdGradeReport, IdealPair, VariableBlock, is_relative_cm

# ---- monomial primary decomposition ------------------------------------------------


@dataclass(frozen=True)
class PrimaryComponent:
    """A primary monomial ideal, its radical prime, and the block cd of S/radical."""

    primary: Ideal
    radical: Ideal
    cd_value: int

    @property
    def variables(self) -> frozenset:
        return frozenset(
            e.index(1) for g in self.radical.gens for e in g.terms
        )


@dataclass(frozen=True)
class PrimaryDecomposition:
    components: tuple

    def cd_values(self) -> tuple:
        return tuple(sorted({c.cd_value for c in self.components}))


def _variable_prime(ring, variables) -> Ideal:
    return Ideal(ring, tuple(ring.gen(i) for i in sorted(variables)))


def cd_of_prime(radical: Ideal, block: VariableBlock) -> int:
    """cd(block, S/p) for a variable-generated prime p: the block variables
    missing from p.  Must agree with :func:`seqcm.relcm.cd_wrt`."""
    used = set()
    for g in radical.gens:
        for e in g.terms:
            if sum(e) != 1:
                raise NotMonomialError("radical is not generated by variables")
            used.add(e.index(1))
    return sum(1 for i in block.variable_indices(radical.ring) if i not in used)


def _split_pure_power_families(gen_sets) -> list:
    """Recursively split coprime-product generators until all are pure powers."""
    out = []
    seen = set()
    stack = list(gen_sets)
    while stack:
        monos = stack.pop()
        key = frozenset(monos)
        if key in seen:
            continue
        seen.add(key)
        target = None
        for m in monos:
            support = [i for i, e in enumerate(m) if e]
            if len(support) > 1:
                target = (m, support[0])
                break
        if target is None:
            out.append(monos)
            continue
        m, v = target
        u = tuple(m[i] if i == v else 0 for i in range(len(m)))
        w = tuple(0 if i == v else m[i] for i in range(len(m)))
        rest = [k for k in monos if k != m]
        stack.append(_minimal_monomials(rest + [u]))
        stack.append(_minimal_monomials(rest + [w]))
    return out


def monomial_primary_decomposition(
    I: Ideal, block: VariableBlock = VariableBlock.Q
) -> PrimaryDecomposition:
    """Irredundant primary decomposition of a proper monomial ideal.

    Same-radical leaves of the split are merged by intersection, and
    redundant components (those containing the intersection of the others)
    are dropped, so distinct components have distinct radicals and the
    component radicals are exactly the associated primes.  Redundancy is
    read off the irreducible leaves (see the module docstring); radicals
    are scanned by size, and after each drop the scan starts again.
    """
    if not I.is_monomial_ideal():
        raise NotMonomialError("primary decomposition implemented for monomial ideals")
    if I.is_unit_ideal():
        raise UnitIdealError("the unit ideal has no primary decomposition")
    ring = I.ring
    if I.is_zero_ideal():
        zero = Ideal.zero(ring)
        comp = PrimaryComponent(zero, zero, cd_of_prime(zero, block))
        return PrimaryDecomposition((comp,))

    families = _split_pure_power_families([_minimal_monomials(
        e for g in I.gens for e in g.terms
    )])
    leaves: dict = {}
    for monos in families:
        variables = frozenset(i for m in monos for i in mono_support(m))
        leaves.setdefault(variables, []).append(monos)

    radicals = sorted(leaves, key=lambda vs: (len(vs), sorted(vs)))
    # Drop the first component containing the intersection of the others,
    # then rescan.  Each leaf is irreducible, so it contains that intersection
    # exactly when it contains one of the other components' leaves.
    while True:
        for k, rad in enumerate(radicals):
            others = [leaf for rad2 in radicals if rad2 != rad for leaf in leaves[rad2]]
            if all(
                any(_contains_monomials(leaf, other) for other in others)
                for leaf in leaves[rad]
            ):
                del radicals[k]
                break
        else:
            break

    components = []
    for rad in radicals:
        primary = _monomial_ideal(ring, _intersect_all(leaves[rad]))
        radical = _variable_prime(ring, rad)
        components.append(
            PrimaryComponent(primary, radical, cd_of_prime(radical, block))
        )
    components.sort(
        key=lambda c: (
            c.cd_value,
            sorted(c.variables),
            c.primary.minimal_monomial_generators(),
        )
    )

    # The intersection of the components must reproduce the input exactly.
    total = _intersect_all(c.primary.minimal_monomial_generators() for c in components)
    if total != _minimal_monomials(e for g in I.gens for e in g.terms):
        raise CertificateVerificationError(
            "primary decomposition does not intersect back to the input"
        )
    return PrimaryDecomposition(tuple(components))


def _divides_into(monos: tuple, m: tuple) -> bool:
    return any(mono_divides(g, m) for g in monos)


def _contains_monomials(container: tuple, members: tuple) -> bool:
    """Whether the monomial ideal spanned by ``container`` contains every member."""
    return all(_divides_into(container, m) for m in members)


def _intersect_all(monomial_ideals) -> tuple:
    """Minimal generators of the intersection of a nonempty iterable of
    monomial ideals, each given by its minimal generators."""
    return reduce(_intersect_monomials, monomial_ideals)


# ---- dimension filtration ------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationSlice:
    """Level data: the cd value, E_i (intersection of level components), components."""

    cd_value: int
    unmixed_part: Ideal
    components: tuple


@dataclass(frozen=True)
class DimensionFiltration:
    chain: tuple  # D_0 = I ⊊ D_1 ⊊ ... ⊊ D_r = (1)
    slices: tuple


def dimension_filtration(I: Ideal, block: VariableBlock) -> DimensionFiltration:
    """The chain D_i = ∩ {q_k : cd(q_k) > c_i} from the primary decomposition.

    Built as D_r = (1) and D_{i-1} = D_i ∩ E_i down to D_1; D_0 is I itself.
    Strictness of the inclusions follows from irredundancy and is re-checked
    here; each quotient D_i/D_{i-1} is nonzero with cd equal to c_i.
    """
    decomposition = monomial_primary_decomposition(I, block)
    ring = I.ring
    slices, e_monos = [], []
    for c in decomposition.cd_values():
        level_comps = tuple(
            comp for comp in decomposition.components if comp.cd_value == c
        )
        e_monos.append(_intersect_all(
            comp.primary.minimal_monomial_generators() for comp in level_comps
        ))
        slices.append(FiltrationSlice(c, _monomial_ideal(ring, e_monos[-1]), level_comps))
    above = list(accumulate(reversed(e_monos[1:]), _intersect_monomials))
    chain = [I, *(_monomial_ideal(ring, d) for d in reversed(above)), Ideal.unit(ring)]
    for lower, upper in zip(chain, chain[1:]):
        if not upper.contains_ideal(lower) or upper.equals(lower):
            raise CertificateVerificationError("dimension filtration chain not strict")
    return DimensionFiltration(tuple(chain), tuple(slices))


# ---- sequential Cohen-Macaulay decision ----------------------------------------------


def _level_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def _cyclic_report(I: Ideal, block: VariableBlock, seed: int) -> CdGradeReport:
    return is_relative_cm(IdealPair.cyclic(I), block, seed)


def _cd_le_1_verdict(I: Ideal, block: VariableBlock, seed: int) -> SeqCMVerdict:
    """cd <= 1 always admits the chain I ⊊ sat(I) ⊊ (1) with level cds (0, 1)."""
    ring = I.ring
    sat = saturation(I, block.ideal(ring))
    if sat.is_unit_ideal() or sat is I:  # saturation returns a saturated I itself
        raise CertificateVerificationError(
            "cd<=1 route expects a proper, strictly larger saturation"
        )
    top_report = _cyclic_report(sat, block, _level_seed(seed, 2))
    if top_report.cd != 1 or top_report.grade != 1:
        raise CertificateVerificationError(
            "saturation quotient is not Cohen-Macaulay of cd 1"
        )
    torsion = FiltrationLevel(sat, CdGradeReport(0, 0, ()), VerifySpec.h0(I))
    free_part = FiltrationLevel(Ideal.unit(ring), top_report, VerifySpec.cyclic(sat))
    return SeqCMVerdict(CMFiltration(I, (torsion, free_part)), Route.CD_LE_1)


def _monomial_verdict(
    I: Ideal, block: VariableBlock, seed: int, report: CdGradeReport
) -> SeqCMVerdict:
    df = dimension_filtration(I, block)
    ring = I.ring
    levels = []
    for index, piece in enumerate(df.slices):
        d_ideal = df.chain[index + 1]
        e_ideal = piece.unmixed_part
        if index == 0 and len(df.slices) == 1:
            # Unmixed: the single quotient is S/I itself, already measured.
            level_report = report
            verify = VerifySpec.cyclic(I)
        else:
            pair = IdealPair(d_ideal + e_ideal, e_ideal, _trusted=True)
            level_report = is_relative_cm(pair, block, _level_seed(seed, index))
            verify = VerifySpec.pair(pair.a, pair.b)
        if level_report.cd != piece.cd_value:
            raise CertificateVerificationError(
                f"level cd {level_report.cd} disagrees with component cd "
                f"{piece.cd_value}"
            )
        primes = tuple(c.radical for c in piece.components)
        levels.append(FiltrationLevel(d_ideal, level_report, verify, primes))
    route = Route.UNMIXED_SHORTCUT if len(levels) == 1 else Route.MONOMIAL_FILTRATION
    return SeqCMVerdict(CMFiltration(I, tuple(levels)), route)


def is_seq_cm(I: Ideal, block: VariableBlock, seed: int = 0) -> SeqCMVerdict:
    """Decide sequential Cohen-Macaulayness of S/I with respect to the block.

    Routing: relative CM modules are trivially sequentially CM; cd <= 1
    always is (torsion-then-top chain); monomial ideals go through the
    dimension filtration; principal bihomogeneous ideals go to the
    hypersurface classifier.  Everything else raises
    :class:`UnsupportedIdealClassError` instead of guessing.
    """
    if I.is_unit_ideal():
        raise UnitIdealError("S/I is the zero module")
    report = _cyclic_report(I, block, _level_seed(seed, 0))
    return replace(_routed_verdict(I, block, seed, report), report=report)


def _routed_verdict(
    I: Ideal, block: VariableBlock, seed: int, report: CdGradeReport
) -> SeqCMVerdict:
    """The verdict on S/I along the route its cyclic report selects."""
    if report.relative_cm:
        return single_level_verdict(I, report, Route.RELATIVE_CM)
    if report.cd <= 1:
        return _cd_le_1_verdict(I, block, seed)
    if I.is_monomial_ideal():
        return _monomial_verdict(I, block, seed, report)
    gens = I.gens
    if len(gens) == 1 and gens[0].is_bihomogeneous():
        # S/fS is Cohen-Macaulay, so block m returned relative CM above.
        return classify_hypersurface(gens[0], block, seed, _report=report)
    raise UnsupportedIdealClassError(
        "supported classes: monomial ideals, principal bihomogeneous ideals, "
        "or any ideal with cd <= 1"
    )


def quotient_associated_primes(verdict: SeqCMVerdict, level: int) -> tuple:
    """Associated primes of the level-th filtration quotient (1-based level).

    Available on the monomial route, where they are the radicals of the
    level's primary components.
    """
    filtration = verdict.filtration
    if not 1 <= level <= len(filtration.levels):
        raise IndexError("level out of range")
    primes = filtration.levels[level - 1].associated_primes
    if primes is None:
        raise UnsupportedIdealClassError(
            "associated primes are recorded on the monomial route only"
        )
    return primes


def tensor_split_check(I_x: Ideal, I_y: Ideal, seed: int = 0) -> tuple:
    """Compare seq-CM of S/(I_x + I_y) w.r.t. Q with the ordinary seq-CM of K[y]/I_y.

    ``I_x`` must involve only x variables and ``I_y`` only y variables.  The
    two verdicts agree for every valid input; the pair is returned so callers
    and tests can assert the agreement.
    """
    ring = I_x.ring
    if I_y.ring != ring:
        raise ValueError("both ideals must live in the same ring")
    for g in I_x.gens:
        if any(i in ring.y_range for i in g.support_variables()):
            raise UnsupportedIdealClassError("I_x must use x variables only")
    for g in I_y.gens:
        if any(i in ring.x_range for i in g.support_variables()):
            raise UnsupportedIdealClassError("I_y must use y variables only")
    lhs = is_seq_cm(I_x + I_y, VariableBlock.Q, seed).decision
    ordinary = BigradedRing(0, ring.n, ring.field)
    mapped = []
    for g in I_y.gens:
        terms = {e[ring.m :]: c for e, c in g.terms.items()}
        mapped.append(Polynomial._raw(ordinary, terms))
    rhs = is_seq_cm(Ideal(ordinary, tuple(mapped)), VariableBlock.Q, seed).decision
    return lhs, rhs
