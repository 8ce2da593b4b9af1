import itertools
import random

import pytest

from helpers import (
    cyclic_submodule_cd,
    duval_is_seq_cm,
    ideals_equal,
    intersection_dimension_filtration,
    intersection_primary_decomposition,
    monomials_up_to,
    polarization,
    random_monomial_ideal,
)
from seqcm.certificates import Route
from seqcm.errors import NotMonomialError, UnitIdealError, UnsupportedIdealClassError
from seqcm.filtration import (
    _split_pure_power_families,
    cd_of_prime,
    dimension_filtration,
    is_seq_cm,
    monomial_primary_decomposition,
    quotient_associated_primes,
    tensor_split_check,
)
from seqcm.groebner import Ideal, ideal_quotient
from seqcm.poly import BigradedRing, mono_degree
from seqcm.hypersurface import classify_hypersurface
from seqcm.relcm import IdealPair, VariableBlock, cd_wrt, grade_wrt, is_relative_cm

P, Q, M = VariableBlock.P, VariableBlock.Q, VariableBlock.M


def radical_vars(component):
    return sorted(component.variables)


class TestPrimaryDecomposition:
    def test_two_planes(self, R22, two_planes_ideal):
        decomposition = monomial_primary_decomposition(two_planes_ideal, Q)
        assert [radical_vars(c) for c in decomposition.components] == [[0, 2], [1, 3]]
        assert [c.cd_value for c in decomposition.components] == [1, 1]

    def test_coprime_split(self, R22):
        decomposition = monomial_primary_decomposition(Ideal(R22, (R22.parse("x1*y1"),)), Q)
        got = {(tuple(radical_vars(c)), c.cd_value) for c in decomposition.components}
        assert got == {((0,), 2), ((2,), 1)}

    def test_pure_power_stays(self, R22):
        decomposition = monomial_primary_decomposition(Ideal(R22, (R22.parse("x1^2"),)), Q)
        (comp,) = decomposition.components
        assert ideals_equal(comp.primary, Ideal(R22, (R22.parse("x1^2"),)))
        assert ideals_equal(comp.radical, Ideal(R22, (R22.x(1),)))

    def test_zero_ideal_is_one_component(self, R22):
        """(0) is its own primary component and radical, with cd 2 for Q."""
        (comp,) = monomial_primary_decomposition(Ideal.zero(R22), Q).components
        assert comp.primary.is_zero_ideal() and comp.radical.is_zero_ideal()
        assert comp.cd_value == 2

    def test_unit_ideal_has_no_decomposition(self, R22):
        with pytest.raises(UnitIdealError):
            monomial_primary_decomposition(Ideal.unit(R22), Q)

    def test_embedded_component_is_kept(self, R22):
        I = Ideal(R22, (R22.parse("x1^2"), R22.parse("x1*y1")))
        decomposition = monomial_primary_decomposition(I, Q)
        radsets = {tuple(radical_vars(c)) for c in decomposition.components}
        assert radsets == {(0,), (0, 2)}

    def test_rejects_non_monomial(self, R22, segre_quadric):
        with pytest.raises(NotMonomialError):
            monomial_primary_decomposition(Ideal(R22, (segre_quadric,)), Q)

    def test_random_decompositions_are_sound(self):
        rng = random.Random(300)
        ring = BigradedRing(2, 2)
        for _ in range(25):
            I = random_monomial_ideal(rng, ring)
            if I.is_unit_ideal():
                continue
            decomposition = monomial_primary_decomposition(I, Q)
            comps = decomposition.components
            # intersection reproduces the ideal
            total = None
            for c in comps:
                total = c.primary if total is None else _intersect(total, c.primary)
            assert ideals_equal(total, I)
            # each component is primary: support inside the radical and a
            # pure power of every radical variable among the generators
            for c in comps:
                vs = c.variables
                monos = c.primary.minimal_monomial_generators()
                for m in monos:
                    assert {i for i, e in enumerate(m) if e} <= vs
                for v in vs:
                    assert any(
                        m[v] > 0 and mono_degree(m) == m[v] for m in monos
                    ), "missing pure power"
            # distinct radicals
            rads = [tuple(radical_vars(c)) for c in comps]
            assert len(rads) == len(set(rads))
            # irredundancy: dropping any component grows the intersection
            for k in range(len(comps)):
                rest = None
                for j, c in enumerate(comps):
                    if j == k:
                        continue
                    rest = c.primary if rest is None else _intersect(rest, c.primary)
                if rest is not None:
                    assert not comps[k].primary.contains_ideal(rest)

    def test_cd_of_prime_examples(self, R22):
        assert cd_of_prime(Ideal(R22, (R22.x(1), R22.y(1))), Q) == 1
        assert cd_of_prime(Ideal(R22, (R22.y(1), R22.y(2))), Q) == 0
        assert cd_of_prime(Ideal(R22, (R22.x(1),)), Q) == 2

    def test_cd_of_prime_matches_cd_wrt(self, R22):
        rng = random.Random(301)
        for _ in range(15):
            I = random_monomial_ideal(rng, R22)
            if I.is_unit_ideal():
                continue
            for block in (P, Q, M):
                decomposition = monomial_primary_decomposition(I, block)
                for c in decomposition.components:
                    assert c.cd_value == cd_of_prime(c.radical, block)
                    if not c.radical.is_unit_ideal():
                        assert c.cd_value == cd_wrt(c.radical, block)

    def test_formula_max_over_components(self, R22):
        rng = random.Random(302)
        for _ in range(20):
            I = random_monomial_ideal(rng, R22)
            if I.is_unit_ideal():
                continue
            decomposition = monomial_primary_decomposition(I, Q)
            assert cd_wrt(I, Q) == max(c.cd_value for c in decomposition.components)


def _intersect(a, b):
    from seqcm.groebner import intersect

    return intersect(a, b)


class TestDimensionFiltration:
    def test_monomial_hypersurface_chain(self, R22):
        df = dimension_filtration(Ideal(R22, (R22.parse("x1*y1"),)), Q)
        chain = df.chain
        assert len(chain) == 3
        assert ideals_equal(chain[1], Ideal(R22, (R22.x(1),)))
        assert chain[2].is_unit_ideal()
        assert [s.cd_value for s in df.slices] == [1, 2]
        # the first quotient is (x1)/(x1*y1) ≅ S/(y1)
        pair = IdealPair(chain[1], chain[0])
        assert grade_wrt(pair, Q).grade == 1

    def test_unmixed_ideal_has_trivial_chain(self, two_planes_ideal):
        df = dimension_filtration(two_planes_ideal, Q)
        assert len(df.chain) == 2
        assert df.chain[1].is_unit_ideal()

    def test_ordinary_case(self):
        ring = BigradedRing(0, 2)
        df = dimension_filtration(Ideal(ring, (ring.parse("y1*y2"),)), M)
        assert len(df.chain) == 2

    def test_maximality_brute_force(self):
        """No monomial outside D_{r-1} generates a submodule of cd below c_r."""
        rng = random.Random(303)
        ring = BigradedRing(2, 2)
        fixed = [
            Ideal(ring, (ring.parse("x1^2"), ring.parse("x1*y1"))),  # embedded prime
            Ideal(ring, (ring.parse("x1*y1"),)),
        ]
        randoms = [random_monomial_ideal(rng, ring, max_gens=3) for _ in range(8)]
        checked = 0
        for I in fixed + randoms:
            if I.is_unit_ideal():
                continue
            df = dimension_filtration(I, Q)
            c_top = df.slices[-1].cd_value
            d_prev = df.chain[-2]
            for u in monomials_up_to(ring, 4):
                mono = ring.monomial(u)
                if d_prev.contains(mono):
                    continue
                assert cyclic_submodule_cd(I, u, Q) == c_top
                checked += 1
        assert checked > 50


class TestAgainstIntersectionReference:
    """The leaf redundancy test and the one-fold chain give the same
    components, chain and slices, generator for generator, as intersecting
    all the other components for every test and every chain ideal."""

    @staticmethod
    def assert_matches(I, block):
        decomposition = monomial_primary_decomposition(I, block)
        assert decomposition == intersection_primary_decomposition(I, block)
        assert dimension_filtration(I, block) == intersection_dimension_filtration(
            I, block
        )
        return decomposition

    def test_dropped_component(self, R22):
        # The leaves are (x1), (x1, y1) and (x2, y1); (x1, y1) contains (x1).
        I = Ideal(R22, (R22.parse("x1*y1"), R22.parse("x1*x2")))
        for block in (P, Q, M):
            decomposition = self.assert_matches(I, block)
            radsets = {tuple(radical_vars(c)) for c in decomposition.components}
            assert radsets == {(0,), (1, 2)}

    def test_component_kept_by_one_leaf(self, R22):
        # The {x1, x2} component merges the leaves (x1^2, x2) and (x1, x2^3).
        # (x1^2, x2) contains the leaf (x2) of another component, but
        # (x1, x2^3) contains no other leaf, so the component stays.
        gens = ("x1^2*x2", "x2^3*y1", "x1*x2*y1*y2")
        I = Ideal(R22, tuple(R22.parse(g) for g in gens))
        for block in (P, Q, M):
            decomposition = self.assert_matches(I, block)
            radsets = {tuple(radical_vars(c)) for c in decomposition.components}
            assert radsets == {(1,), (0, 1), (0, 2), (0, 1, 3)}

    def test_random_ideals(self):
        rng = random.Random(310)
        checked = dropped = 0
        for ring in (BigradedRing(2, 2), BigradedRing(3, 3), BigradedRing(4, 4)):
            for _ in range(40):
                I = random_monomial_ideal(rng, ring, max_gens=5)
                monos = I.minimal_monomial_generators()
                leaf_radicals = {
                    frozenset(i for m in leaf for i, e in enumerate(m) if e)
                    for leaf in _split_pure_power_families([monos])
                }
                for block in (P, Q, M):
                    decomposition = self.assert_matches(I, block)
                    checked += 1
                dropped += len(decomposition.components) < len(leaf_radicals)
        assert checked == 360
        assert dropped >= 10  # the drop path is exercised


class TestSeqCmRouting:
    def test_quadric_false_by_rank(self, R22, segre_quadric):
        verdict = is_seq_cm(Ideal(R22, (segre_quadric,)), Q)
        assert not verdict.decision
        assert verdict.route is Route.HYPERSURFACE_RANK1

    def test_two_planes_true_both_blocks(self, two_planes_ideal):
        for block in (P, Q):
            verdict = is_seq_cm(two_planes_ideal, block)
            assert verdict.decision
            assert verdict.route is Route.RELATIVE_CM

    def test_two_planes_false_classically(self, two_planes_ideal):
        verdict = is_seq_cm(two_planes_ideal, M)
        assert not verdict.decision
        assert verdict.route is Route.UNMIXED_SHORTCUT
        assert verdict.offending_level == 1

    def test_offending_level_is_the_first_not_relative_cm(self, R22):
        """A negative verdict whose first level is relative CM: the level
        (cd, grade) pairs are (1, 1) and (2, 1), so level 2 offends."""
        gens = ("x1^2*x2^2*y2", "x1^2*y1*y2^2", "x1*y1^2", "x2*y2^2", "y1^2*y2^2")
        verdict = is_seq_cm(Ideal(R22, tuple(map(R22.parse, gens))), M)
        assert [(l.cd, l.grade) for l in verdict.filtration.levels] == [(1, 1), (2, 1)]
        assert verdict.offending_level == 2 and not verdict.decision
        assert verdict.route is Route.MONOMIAL_FILTRATION

    def test_monomial_chain_certificate(self, R22):
        verdict = is_seq_cm(Ideal(R22, (R22.parse("x1*y1"),)), Q)
        assert verdict.decision
        assert verdict.route is Route.MONOMIAL_FILTRATION
        assert verdict.filtration.level_cds() == (1, 2)

    def test_cd_le_1_route(self, R22):
        # (x1*y1, x1*y2): torsion part (x1)/(I), top S/(x1); cd(Q) = 1... here
        # cd(Q, S/I) = dim S/(I+P) = dim S/(x1, x2) = 2, so use a sharper one.
        ring = BigradedRing(2, 1)
        I = Ideal(ring, (ring.parse("x1*y1"),))
        verdict = is_seq_cm(I, Q)
        assert verdict.decision
        assert verdict.route is Route.CD_LE_1
        assert verdict.filtration.level_cds() == (0, 1)

    def test_unsupported_class(self, R22, segre_quadric):
        I = Ideal(R22, (segre_quadric, R22.parse("x1^2")))
        with pytest.raises(UnsupportedIdealClassError):
            is_seq_cm(I, Q)

    def test_verdict_seed_stable(self, R22, two_planes_ideal, segre_quadric):
        for ideal in (
            two_planes_ideal,
            Ideal(R22, (segre_quadric,)),
            Ideal(R22, (R22.parse("x1*y1"),)),
        ):
            for block in (P, Q):
                decisions = {
                    (v.decision, v.route, v.filtration.level_cds())
                    for v in (is_seq_cm(ideal, block, seed) for seed in (0, 1, 9))
                }
                assert len(decisions) == 1

    def test_grade_constant_along_chain(self, R22):
        """On a positive verdict every partial quotient D_i/I has grade c_1."""
        rng = random.Random(304)
        seen = 0
        for _ in range(15):
            I = random_monomial_ideal(rng, R22, max_gens=3)
            if I.is_unit_ideal():
                continue
            verdict = is_seq_cm(I, Q)
            if not verdict.decision or len(verdict.filtration.levels) < 2:
                continue
            seen += 1
            c1 = verdict.filtration.levels[0].cd
            for level in verdict.filtration.levels:
                pair = IdealPair(level.ideal, I)
                if pair.is_zero_module():
                    continue
                assert grade_wrt(pair, Q).grade == c1
        assert seen >= 2


class TestLevelGradeSearch:
    """Each level's grade search stops at cd; the full search must agree."""

    def test_pair_levels_match_full_search(self, R22):
        from seqcm.filtration import _level_seed

        rng = random.Random(304)
        compared = 0
        for _ in range(15):
            I = random_monomial_ideal(rng, R22, max_gens=3)
            if I.is_unit_ideal():
                continue
            for block in (P, Q, M):
                for seed in (0, 1):
                    verdict = is_seq_cm(I, block, seed)
                    for index, level in enumerate(verdict.filtration.levels):
                        if level.verify.kind != "pair":
                            continue
                        pair = IdealPair(*level.verify.ideals)
                        full = grade_wrt(pair, block, _level_seed(seed, index))
                        assert level.grade == full.grade
                        assert level.regular_sequence == full.regular_sequence
                        assert level.relative_cm == (full.grade == level.cd)
                        compared += 1
        assert compared >= 20

    def test_verdict_carries_the_cyclic_report(self, R22, segre_quadric):
        rng = random.Random(305)
        ideals = [Ideal(R22, (segre_quadric,)), Ideal(R22, (R22.parse("x1*y1 + x2*y1"),))]
        ideals += [random_monomial_ideal(rng, R22, max_gens=3) for _ in range(8)]
        for I in ideals:
            if I.is_unit_ideal():
                continue
            for block in (P, Q):
                for seed in (0, 1):
                    report = is_seq_cm(I, block, seed).report
                    direct = is_relative_cm(IdealPair.cyclic(I), block, seed)
                    assert (report.cd, report.grade, report.relative_cm) == (
                        direct.cd, direct.grade, direct.relative_cm
                    )

    def test_hypersurface_route_reuses_the_report(self, R22, segre_quadric):
        """At seed 0 the handed-over report is the one classify_hypersurface
        would draw, so the documents agree; at other seeds it comes from the
        level-0 seed, so only the witness may differ."""
        from seqcm.cli import _verdict_doc

        def invariants(verdict):
            return (verdict.decision, verdict.route, verdict.offending_level) + tuple(
                (l.cd, l.grade, l.relative_cm, l.verify.kind)
                for l in verdict.filtration.levels
            )

        routed = 0
        for f in (segre_quadric, R22.parse("x1*y1 + x2*y1"), R22.parse("y1^2 + y1*y2")):
            for block in (P, Q):
                for seed in (0, 3):
                    verdict = is_seq_cm(Ideal(R22, (f,)), block, seed)
                    if verdict.route is not Route.HYPERSURFACE_RANK1:
                        continue
                    direct = classify_hypersurface(f, block, seed)
                    assert invariants(verdict) == invariants(direct)
                    if seed == 0:
                        assert _verdict_doc(verdict) == _verdict_doc(direct)
                    assert verdict.report is not None and direct.report is None
                    routed += 1
        assert routed >= 8


class TestAssociatedPrimes:
    def test_levels_of_monomial_hypersurface(self, R22):
        verdict = is_seq_cm(Ideal(R22, (R22.parse("x1*y1"),)), Q)
        lvl1 = quotient_associated_primes(verdict, 1)
        lvl2 = quotient_associated_primes(verdict, 2)
        assert [sorted(str(g) for g in p.gens) for p in lvl1] == [["y1"]]
        assert [sorted(str(g) for g in p.gens) for p in lvl2] == [["x1"]]

    def test_single_level_collects_everything(self, two_planes_ideal):
        verdict = is_seq_cm(two_planes_ideal, M)
        primes = quotient_associated_primes(verdict, 1)
        assert len(primes) == 2

    def test_filtration_quotient_prime_contract(self, R22):
        """Ass(D_i/D_{i-1}) = {p in Ass(D_i/I) with cd(S/p) = c_i}, brute forced."""
        rng = random.Random(305)
        tested = 0
        for _ in range(10):
            I = random_monomial_ideal(rng, R22, max_gens=3)
            if I.is_unit_ideal():
                continue
            verdict = is_seq_cm(I, Q)
            if not verdict.decision or verdict.route is not Route.MONOMIAL_FILTRATION:
                continue
            chain = verdict.filtration.chain()
            for index, level in enumerate(verdict.filtration.levels, start=1):
                d_ideal = chain[index]
                ass = set()
                for u in monomials_up_to(R22, 4):
                    mono = R22.monomial(u)
                    if not d_ideal.contains(mono) or I.contains(mono):
                        continue
                    colon = ideal_quotient(I, mono)
                    monos = colon.minimal_monomial_generators()
                    if all(mono_degree(m) == 1 for m in monos):
                        ass.add(frozenset(m.index(1) for m in monos))
                expected = {
                    prime_vars
                    for prime_vars in ass
                    if cd_of_prime(
                        Ideal(R22, tuple(R22.gen(i) for i in sorted(prime_vars))), Q
                    )
                    == level.cd
                }
                got = {
                    frozenset(
                        e.index(1) for g in p.gens for e in g.terms
                    )
                    for p in quotient_associated_primes(verdict, index)
                }
                assert got == expected
                tested += 1
        assert tested >= 3


class TestTensorCheck:
    def test_cm_factor(self, R22):
        lhs, rhs = tensor_split_check(
            Ideal(R22, (R22.parse("x1^2"),)), Ideal(R22, (R22.parse("y1*y2"),))
        )
        assert (lhs, rhs) == (True, True)

    def test_two_planes_pattern_in_y(self):
        ring = BigradedRing(1, 4)
        I_x = Ideal(ring, (ring.parse("x1^2"),))
        I_y = Ideal(
            ring,
            (
                ring.parse("y1*y3"),
                ring.parse("y1*y4"),
                ring.parse("y2*y3"),
                ring.parse("y2*y4"),
            ),
        )
        lhs, rhs = tensor_split_check(I_x, I_y)
        assert (lhs, rhs) == (False, False)

    def test_free_case(self, R22):
        lhs, rhs = tensor_split_check(Ideal.zero(R22), Ideal.zero(R22))
        assert (lhs, rhs) == (True, True)

    def test_rejects_mixed_generators(self, R22, segre_quadric):
        with pytest.raises(UnsupportedIdealClassError):
            tensor_split_check(Ideal(R22, (segre_quadric,)), Ideal.zero(R22))


class TestOrdinaryReduction:
    def test_x_torsion_free_matches_classical(self):
        """When cd(P, S/I) = 0, seq CM wrt Q coincides with ordinary seq CM."""
        rng = random.Random(306)
        ring = BigradedRing(1, 3)
        tested = 0
        for _ in range(12):
            I = random_monomial_ideal(rng, ring, max_gens=3)
            if I.is_unit_ideal():
                continue
            if cd_wrt(I, P) != 0:
                continue
            lhs = is_seq_cm(I, Q).decision
            rhs = is_seq_cm(I, M).decision
            assert lhs == rhs
            tested += 1
        assert tested >= 2


def edge_ideal(ring, edges, first=0):
    """The edge ideal of a graph on the variables ``first``, ``first + 1``, ...
    of ``ring``, given as pairs of vertices numbered from 0."""
    def edge(a, b):
        exps = [0] * ring.nvars
        exps[first + a] = exps[first + b] = 1
        return ring.monomial(exps)

    return Ideal(ring, [edge(a, b) for a, b in edges])


class TestDuvalOracle:
    """The monomial route against Duval's combinatorial criterion
    (``helpers.duval_is_seq_cm``), which shares no code with the engine."""

    @pytest.mark.parametrize("length", range(3, 9))
    def test_cycles(self, length):
        """The edge ideal of the cycle C_n is sequentially CM exactly for
        n = 3 and 5 (Francisco and Van Tuyl, Proc. AMS 135, 2007)."""
        ring = BigradedRing(length // 2, length - length // 2)
        I = edge_ideal(ring, [(i, (i + 1) % length) for i in range(length)])
        expected = length in (3, 5)
        assert duval_is_seq_cm(I) == expected
        assert is_seq_cm(I, M).decision == expected

    def test_random_edge_ideals(self):
        rng = random.Random(0)
        negatives = 0
        for _ in range(120):
            m, n = rng.choice([(2, 3), (3, 3), (3, 4), (4, 4)])
            pairs = list(itertools.combinations(range(m + n), 2))
            edges = rng.sample(pairs, rng.randint(6, 9))
            I = edge_ideal(BigradedRing(m, n), edges)
            expected = duval_is_seq_cm(I)
            assert is_seq_cm(I, M).decision == expected, (m, n, edges)
            negatives += not expected
        assert negatives >= 10

    def test_split_sum_under_q(self):
        """For I_x + I_y with I_x in x and I_y in y, the Q verdict is the
        ordinary one of K[y]/I_y (what ``tensor_split_check`` compares), so
        the oracle on I_y decides it."""
        rng = random.Random(1)
        ring = BigradedRing(2, 5)
        x_monomials = [ring.x(1), ring.x(2), ring.x(1) * ring.x(2)]
        pairs = list(itertools.combinations(range(5), 2))
        negatives = 0
        for _ in range(60):
            I_x = Ideal(ring, rng.sample(x_monomials, rng.randint(0, 2)))
            edges = rng.sample(pairs, rng.randint(4, 7))
            I_y = edge_ideal(ring, edges, first=ring.m)
            expected = duval_is_seq_cm(I_y)
            assert is_seq_cm(I_x + I_y, Q).decision == expected, (I_x.gens, edges)
            negatives += not expected
        assert negatives >= 5

    @pytest.mark.parametrize(
        "text",
        [
            "x1^2*y2, x2*y1^2, x1*y1, x2*y2^2",
            "x2*y1, x1^2*x2, x1*y2, y1^2*y2^2",
            "x2^2*y1^2, x1*x2, x1*y2^2, y1*y2^2",
            "x1*y1^2, x1*x2^2, y1^2*y2^2, x2*y2",
            "x1^2*x2, x1^2*y2, x2*y1^2, y1*y2",
        ],
    )
    def test_polarized_negatives(self, text):
        """Ideals that are not sequentially CM, from a seeded draw of the
        family of :meth:`test_polarization_keeps_the_verdict`, where they
        are rare."""
        ring = BigradedRing(2, 2)
        I = Ideal(ring, [ring.parse(g) for g in text.split(", ")])
        polarized = polarization(I)
        assert not duval_is_seq_cm(polarized)
        assert not is_seq_cm(polarized, M).decision
        assert not is_seq_cm(I, M).decision

    def test_polarization_keeps_the_verdict(self):
        """A non-squarefree monomial ideal and its polarization have one
        verdict under m, which the oracle decides on the polarization: 3-4
        generators in 2+2 variables, each a product of two variables with
        exponents 1-2."""
        rng = random.Random(3)
        ring = BigradedRing(2, 2)
        for _ in range(40):
            gens = []
            for _ in range(rng.randint(3, 4)):
                exps = [0] * ring.nvars
                for i in rng.sample(range(ring.nvars), 2):
                    exps[i] = rng.randint(1, 2)
                gens.append(ring.monomial(exps))
            I = Ideal(ring, gens)
            polarized = polarization(I)
            expected = duval_is_seq_cm(polarized)
            assert is_seq_cm(polarized, M).decision == expected, I.gens
            assert is_seq_cm(I, M).decision == expected, I.gens
