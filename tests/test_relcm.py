import itertools
import random
from fractions import Fraction

import pytest

import helpers
from helpers import (
    cyclic_submodule_cd,
    exact_grade_search,
    monomials_of_degree,
    plain_cyclic_is_regular,
    random_bihomogeneous,
    random_monomial_ideal,
    random_split_product,
    slow_is_regular,
)
from seqcm.errors import (
    NoRegularFormError,
    NotBihomogeneousError,
    ZeroModuleError,
)
from seqcm.fields import QQ, PrimeField
from seqcm.filtration import dimension_filtration, is_seq_cm
from seqcm.groebner import Ideal, intersect, krull_dim
from seqcm.poly import BigradedRing, Polynomial
from seqcm.relcm import (
    IdealPair,
    VariableBlock,
    cd_subquotient,
    cd_wrt,
    find_regular_linear_form,
    grade_wrt,
    _draw_form,
    _monomial_grade,
    _section_verdict,
    _solve_linear,
    h0_is_zero,
    is_regular_form,
    is_relative_cm,
)

P, Q, M = VariableBlock.P, VariableBlock.Q, VariableBlock.M


def linear_form(ring, indices, coeffs) -> Polynomial:
    return Polynomial(
        ring,
        {
            tuple(1 if i == idx else 0 for i in range(ring.nvars)): Fraction(c)
            for idx, c in zip(indices, coeffs)
        },
    )


def form_supports(ring) -> tuple:
    """Variable sets of the probe forms: the Q block, the P block, and both."""
    return (tuple(ring.y_range), tuple(ring.x_range), tuple(range(ring.nvars)))


class TestCd:
    def test_quadric(self, R22, segre_quadric):
        assert cd_wrt(Ideal(R22, (segre_quadric,)), Q) == 2

    def test_two_planes_both_blocks(self, two_planes_ideal):
        assert cd_wrt(two_planes_ideal, Q) == 1
        assert cd_wrt(two_planes_ideal, P) == 1

    def test_free_module(self, R22):
        assert cd_wrt(Ideal.zero(R22), Q) == 2
        assert cd_wrt(Ideal.zero(R22), P) == 2
        assert cd_wrt(Ideal.zero(R22), M) == 4

    def test_zero_module_rejected(self, R22):
        with pytest.raises(ZeroModuleError):
            cd_wrt(Ideal.unit(R22), Q)


class TestH0:
    def test_quadric_has_no_torsion(self, R22, segre_quadric):
        assert h0_is_zero(IdealPair.cyclic(Ideal(R22, (segre_quadric,))), Q)

    def test_saturation_strictly_larger(self, R22):
        I = Ideal(R22, (R22.parse("x1*y1"), R22.parse("x1*y2")))
        assert not h0_is_zero(IdealPair.cyclic(I), Q)

    def test_saturated_principal(self, R22):
        assert h0_is_zero(IdealPair.cyclic(Ideal(R22, (R22.x(1),))), Q)

    def test_matches_full_saturation_definition(self, R22):
        """The one-round torsion test must agree with sat(B) ∩ A ⊆ B, on
        cyclic pairs and on the non-cyclic pairs of the grade recursion."""
        from helpers import elimination_intersect, elimination_saturation

        rng = random.Random(66)
        blk = Ideal(R22, (R22.y(1), R22.y(2)))
        pairs = []
        for _ in range(20):
            I = random_monomial_ideal(rng, R22)
            if not I.is_unit_ideal():
                pairs.append(IdealPair.cyclic(I))
        for _ in range(20):
            b = random_monomial_ideal(rng, R22, max_gens=3)
            a = b + random_monomial_ideal(rng, R22, max_gens=2)
            pair = IdealPair(a, b, _trusted=True)
            if not a.is_unit_ideal() and not pair.is_zero_module():
                pairs.append(pair)
        outcomes = set()
        for pair in pairs:
            torsion = elimination_intersect(elimination_saturation(pair.b, blk), pair.a)
            by_definition = pair.b.contains_ideal(torsion)
            assert h0_is_zero(pair, Q) == by_definition
            outcomes.add((pair.is_cyclic(), by_definition))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestRegularForms:
    def test_on_quadric_hypersurface(self, R22, segre_quadric):
        pair = IdealPair.cyclic(Ideal(R22, (segre_quadric,)))
        ell = find_regular_linear_form(pair, Q, seed=0)
        assert ell.support_variables() <= set(R22.y_range)
        assert is_regular_form(pair, ell)

    def test_on_free_module_any_form_works(self, R22):
        pair = IdealPair.cyclic(Ideal.zero(R22))
        ell = find_regular_linear_form(pair, Q, seed=1)
        assert is_regular_form(pair, ell)

    def test_needs_both_coefficients(self, R22):
        # On S/(y1*y2) the single variables y1, y2 are zerodivisors.
        pair = IdealPair.cyclic(Ideal(R22, (R22.parse("y1*y2"),)))
        ell = find_regular_linear_form(pair, Q, seed=0)
        coeffs = {e.index(1): c for e, c in ell.terms.items()}
        assert set(coeffs) == set(R22.y_range)
        assert not is_regular_form(pair, R22.y(1))
        assert not is_regular_form(pair, R22.y(2))

    def test_zero_form_is_not_regular(self, R22):
        pair = IdealPair.cyclic(Ideal(R22, (R22.parse("x1*y1"),)))
        assert not is_regular_form(pair, R22.zero())

    def test_first_step_of_the_grade_search(self, R22):
        rng = random.Random(120)
        checked = 0
        for _ in range(15):
            pair = IdealPair.cyclic(random_monomial_ideal(rng, R22))
            if not h0_is_zero(pair, Q):
                continue
            for seed in (0, 1):
                witness = grade_wrt(pair, Q, seed)
                assert find_regular_linear_form(pair, Q, seed) == witness.regular_sequence[0]
                checked += 1
        assert checked >= 10

    def test_nonzero_h0_raises(self, R22):
        # x1 is killed by Q = (y1, y2) in S/(x1*y1, x1*y2).
        pair = IdealPair.cyclic(Ideal(R22, (R22.parse("x1*y1"), R22.parse("x1*y2"))))
        assert not h0_is_zero(pair, Q)
        with pytest.raises(NoRegularFormError, match="H\\^0"):
            find_regular_linear_form(pair, Q, seed=0)

    def test_zero_module_raises(self, R22):
        """S/(1) and (x1)/(x1) are zero, so no form is regular on them."""
        x1 = Ideal(R22, (R22.x(1),))
        for pair in (IdealPair.cyclic(Ideal.unit(R22)), IdealPair(x1, x1)):
            with pytest.raises(ZeroModuleError):
                find_regular_linear_form(pair, Q, seed=0)

    def test_fast_path_matches_elimination_definition(self, R22):
        """Q-block, P-block and mixed forms: the pivot coordinate path
        against the elimination definition."""
        rng = random.Random(77)
        compared = 0
        for _ in range(25):
            I = random_monomial_ideal(rng, R22)
            if I.is_unit_ideal():
                continue
            pair = IdealPair.cyclic(I)
            for indices in form_supports(R22):
                coeffs = [rng.randint(-3, 3) for _ in indices]
                ell = linear_form(R22, indices, coeffs)
                if ell.is_zero():
                    continue
                assert is_regular_form(pair, ell) == slow_is_regular(pair, ell)
                compared += 1
        assert compared >= 50

    def test_rejects_nonlinear_form_and_inhomogeneous_b(self, R22):
        """The test is the pivot coordinate change, which needs a linear l
        and a homogeneous B."""
        pair = IdealPair.cyclic(Ideal(R22, (R22.parse("x1*y1"),)))
        for ell in (R22.parse("y1^2"), R22.parse("y1 - 1")):
            with pytest.raises(ValueError, match="linear"):
                is_regular_form(pair, ell)
        inhomogeneous = IdealPair.cyclic(Ideal(R22, (R22.parse("y1 - 1"),)))
        with pytest.raises(ValueError, match="homogeneous"):
            is_regular_form(inhomogeneous, R22.y(2))

    def test_pair_regularity_matches_oracle(self, R22):
        # Non-cyclic pairs exercise the (B : l) ∩ A ⊆ B route directly.
        x1, y1, y2 = R22.x(1), R22.y(1), R22.y(2)
        a = Ideal(R22, (x1,))
        b = Ideal(R22, (x1 * y1,))
        pair = IdealPair(a, b)
        # On A/B ≅ S/(y1), y2 is regular and y1 is not.
        assert is_regular_form(pair, y2)
        assert not is_regular_form(pair, y1)
        assert slow_is_regular(pair, y2)
        assert not slow_is_regular(pair, y1)
        # P-block and mixed forms: regular unless they vanish modulo y1.
        x2 = R22.x(2)
        for ell, regular in ((x1, True), (x2, True), (x1 + y1, True),
                             (x2 - x1 + y2, True), (y1.scale(2), False)):
            assert is_regular_form(pair, ell) is regular
            assert slow_is_regular(pair, ell) is regular

    def test_pair_fast_path_matches_oracle_randomized(self, R22):
        """Homogeneous non-cyclic pairs: coordinate-change route vs elimination."""
        rng = random.Random(88)
        compared = 0
        for _ in range(20):
            b0 = random_monomial_ideal(rng, R22, max_gens=3)
            extra = random_monomial_ideal(rng, R22, max_gens=2)
            a = b0 + extra
            if a.is_unit_ideal():
                continue
            coeffs = [rng.randint(-2, 2) for _ in range(2)]
            coeffs[-1] = coeffs[-1] or 1
            ell = linear_form(R22, R22.y_range, coeffs)
            # b picks up a linear multiple of a, as in the grade recursion
            b = b0 + a.scaled_by(ell)
            pair = IdealPair(a, b, _trusted=True)
            if pair.is_zero_module():
                continue
            for indices in form_supports(R22):
                probe_coeffs = [rng.randint(-2, 2) for _ in indices]
                probe_coeffs[-1] = probe_coeffs[-1] or 1
                probe = linear_form(R22, indices, probe_coeffs)
                assert is_regular_form(pair, probe) == slow_is_regular(pair, probe)
                compared += 1
        assert compared >= 30

    def test_cyclic_test_modulo_linear_generators(self):
        """S/(I + L) for I monomial or principal and L random block forms,
        some linearly dependent, blocks P, Q and m, over QQ, GF(3) and
        GF(32003): the test that first solves the linear generators agrees
        with the Bayer-Stillman test on all generators, also for forms in
        the span of L."""
        rng = random.Random(1313)
        compared = in_span = 0
        for field in (QQ, PrimeField(3), PrimeField(32003)):
            for k in (2, 3):
                ring = BigradedRing(k, k, field)
                for trial in range(8):
                    if trial % 2:
                        base = [random_bihomogeneous(rng, ring, 1, rng.randint(0, 2))]
                    else:
                        base = list(random_monomial_ideal(rng, ring, max_gens=3).gens)
                    for indices in form_supports(ring):
                        forms = [
                            linear_form(ring, indices, [rng.randint(-3, 3) for _ in indices])
                            for _ in range(rng.randint(1, len(indices)))
                        ]
                        forms = [ell for ell in forms if ell]
                        if not forms:
                            continue
                        dependent = forms[0].scale(2) - forms[-1]
                        ideal = Ideal(ring, base + forms + [dependent])
                        pair = IdealPair.cyclic(ideal)
                        spanned = forms[-1].scale(3) + dependent
                        probes = [spanned] + [
                            linear_form(ring, indices, [rng.randint(-3, 3) for _ in indices])
                            for _ in range(2)
                        ]
                        for ell in filter(None, probes):
                            got = is_regular_form(pair, ell)
                            assert got == plain_cyclic_is_regular(ideal, ell), (ideal, ell)
                            assert not (got and ell is spanned)
                            compared += 1
                        in_span += bool(spanned)
        assert compared >= 400 and in_span >= 130


class TestGrade:
    def test_quadric(self, R22, segre_quadric):
        assert grade_wrt(IdealPair.cyclic(Ideal(R22, (segre_quadric,))), Q).grade == 1

    def test_free_module(self, R22):
        witness = grade_wrt(IdealPair.cyclic(Ideal.zero(R22)), Q)
        assert witness.grade == 2
        assert len(witness.regular_sequence) == 2

    def test_depth_of_two_planes(self, two_planes_ideal):
        assert grade_wrt(IdealPair.cyclic(two_planes_ideal), M).grade == 1

    def test_seed_independence(self, R22, two_planes_ideal, segre_quadric):
        for ideal in (two_planes_ideal, Ideal(R22, (segre_quadric,))):
            pair = IdealPair.cyclic(ideal)
            for block in (P, Q, M):
                grades = {grade_wrt(pair, block, seed).grade for seed in (0, 1, 17)}
                assert len(grades) == 1

    def test_grade_le_cd(self, R22):
        rng = random.Random(55)
        for _ in range(15):
            I = random_monomial_ideal(rng, R22)
            if I.is_unit_ideal():
                continue
            pair = IdealPair.cyclic(I)
            for block in (P, Q):
                assert grade_wrt(pair, block).grade <= cd_wrt(I, block)

    def test_depth_specializes_to_classical(self, R22):
        # depth = grade of the full variable block; on a polynomial ring it is dim.
        assert grade_wrt(IdealPair.cyclic(Ideal.zero(R22)), M).grade == 4


def dense_bihomogeneous(rng, ring, a, b) -> Polynomial:
    """Every monomial of bidegree (a, b), each with a nonzero coefficient."""
    terms = {
        e: Fraction(rng.randint(1, 9))
        for e in monomials_of_degree(ring, a + b)
        if sum(e[i] for i in ring.x_range) == a
    }
    return Polynomial(ring, terms)


def principal_forms(rng, ring, a, b) -> tuple:
    """A split product, a dense, a sparse and a monomial f of bidegree (a, b)."""
    return (
        random_split_product(rng, ring, a, b)[2],
        dense_bihomogeneous(rng, ring, a, b),
        random_bihomogeneous(rng, ring, a, b, max_terms=2),
        random_bihomogeneous(rng, ring, a, b, max_terms=1),
    )


class TestGradeStopsAtCd:
    """is_relative_cm stops the grade search at cd; grade_wrt does not.  On a
    principal S/fS and the block P or Q it takes cd and the stop from the
    closed forms cd(Q) = n - [a = 0] and grade(Q) = n - [b > 0] for f of
    bidegree (a, b) (P mirrored), so it needs neither a dimension nor a
    terminal H^0 proof; cd_wrt and the unstopped grade_wrt stay the reference."""

    def test_matches_full_search_on_random_suites(self, R22):
        ring = BigradedRing(2, 2)
        cases = []
        for suite_seed, max_gens in ((55, 4), (2001, 3)):
            rng = random.Random(suite_seed)
            for _ in range(12):
                I = random_monomial_ideal(rng, ring, max_gens=max_gens)
                if not I.is_unit_ideal():
                    cases.append(IdealPair.cyclic(I))
        rng = random.Random(88)
        for _ in range(8):  # the non-cyclic pairs of the grade recursion
            b = random_monomial_ideal(rng, ring, max_gens=3)
            a = b + random_monomial_ideal(rng, ring, max_gens=2)
            pair = IdealPair(a, b, _trusted=True)
            if not a.is_unit_ideal() and not pair.is_zero_module():
                cases.append(pair)
        compared = 0
        for pair in cases:
            for block in (P, Q, M):
                for seed in (0, 1):
                    report = is_relative_cm(pair, block, seed)
                    full = grade_wrt(pair, block, seed)
                    assert report.grade == full.grade
                    assert report.regular_sequence == full.regular_sequence
                    compared += 1
        assert compared >= 100

    def test_relative_cm_module_needs_no_h0_decision(
        self, monkeypatch, R22, two_planes_ideal
    ):
        """A stopped search decides H^0 only in a step whose first two
        candidates failed; the full search always pays one more H^0
        decision, the terminal one.  On S/(x1*x2) every nonzero y-form is
        regular, so w.r.t. Q no step ever fails.  Two planes are relative CM
        of cd 1 for P and Q; seed 0 draws two zerodivisors first, seeds 1
        and 2 do not."""
        import seqcm.relcm as relcm

        calls = []

        def counting(pair, block):
            calls.append(block)
            return h0_is_zero(pair, block)

        monkeypatch.setattr(relcm, "h0_is_zero", counting)
        cases = [(Ideal(R22, (R22.parse("x1*x2"),)), Q, 2, (0, 0, 0))]
        cases += [(two_planes_ideal, block, 1, (1, 0, 0)) for block in (P, Q)]
        for ideal, block, cd, expected in cases:
            pair = IdealPair.cyclic(ideal)
            for seed, stopped_calls in zip((0, 1, 2), expected):
                calls.clear()
                report = is_relative_cm(pair, block, seed)
                assert report.relative_cm and report.grade == cd
                assert len(calls) == stopped_calls
                calls.clear()
                assert grade_wrt(pair, block, seed).grade == cd
                assert len(calls) == stopped_calls + 1

    def test_closed_form_matches_full_search_on_principal_suites(self):
        """Split, dense, sparse and monomial f of each bidegree with a, b <= 2
        in 2+2, 2+3, 3+2 and 0+2 variables, over QQ and GF(32003): the
        closed-form cd equals cd_wrt, and the grade and regular sequence
        equal those of the unstopped grade_wrt, for P and Q and two seeds."""
        rng = random.Random(1010)
        forms = []
        for field in (QQ, PrimeField(32003)):
            for m, n in ((2, 2), (2, 3), (3, 2), (0, 2)):
                ring = BigradedRing(m, n, field)
                for a, b in itertools.product(range(3 if m else 1), range(3)):
                    if a + b:
                        forms += principal_forms(rng, ring, a, b)
        assert len(forms) == 2 * (3 * 8 + 2) * 4
        for f in forms:
            I = Ideal(f.ring, (f,))
            pair = IdealPair.cyclic(I)
            for block, seed in itertools.product((P, Q), (0, 1)):
                report = is_relative_cm(pair, block, seed)
                full = grade_wrt(pair, block, seed)
                got = (report.cd, report.grade, report.regular_sequence)
                want = (cd_wrt(I, block), full.grade, full.regular_sequence)
                assert got == want, (str(f), block, seed)

    def test_principal_module_needs_no_h0_decision_or_dimension(
        self, monkeypatch, R22, segre_quadric
    ):
        """On the Segre quadric (grade 1 < cd 2 for P and Q) and on the
        split x1*y1^2 of bidegree (1, 2) (likewise), is_relative_cm proves no H^0 and computes no
        Krull dimension: every drawn form has a nonzero last coefficient,
        so it is regular on S/fS at once, and the search stops at the
        closed-form grade 1.  The unstopped grade_wrt on the quadric still
        pays its one terminal H^0 proof."""
        import seqcm.relcm as relcm

        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(relcm, "h0_is_zero", counting("h0", h0_is_zero))
        monkeypatch.setattr(relcm, "krull_dim", counting("dim", krull_dim))
        for f in (segre_quadric, R22.parse("x1*y1^2")):
            pair = IdealPair.cyclic(Ideal(R22, (f,)))
            for block in (P, Q):
                for seed in (0, 1, 2):
                    calls.clear()
                    report = is_relative_cm(pair, block, seed)
                    assert (report.grade, report.cd) == (1, 2)
                    assert calls == []
        pair = IdealPair.cyclic(Ideal(R22, (segre_quadric,)))
        for block in (P, Q):
            calls.clear()
            assert grade_wrt(pair, block).grade == 1
            assert calls == ["h0"]

    def test_non_bigraded_input_is_rejected(self):
        """cd(Q, S/I) = dim S/(I + P) needs a bigraded module.  For
        I = (x1 - y1) it would read 0, while y1 is regular on S/I ≅ K[t];
        on S/(y1 - 1), y1 is a unit and the grade search cannot end.  cd,
        grade, the regular-form search and every decision built on them
        reject both."""
        ring = BigradedRing(1, 1)
        for text in ("x1 - y1", "y1 - 1"):
            I = Ideal(ring, (ring.parse(text),))
            pair = IdealPair.cyclic(I)
            for block in (P, Q):
                for call in (
                    lambda: cd_wrt(I, block),
                    lambda: cd_subquotient(pair, block),
                    lambda: grade_wrt(pair, block),
                    lambda: grade_wrt(pair, block, _stop=0),
                    lambda: find_regular_linear_form(pair, block),
                    lambda: is_relative_cm(pair, block),
                    lambda: is_seq_cm(I, block),
                ):
                    with pytest.raises(NotBihomogeneousError):
                        call()
        y1_minus_1 = IdealPair.cyclic(Ideal(ring, (ring.parse("y1 - 1"),)))
        with pytest.raises(NotBihomogeneousError):
            grade_wrt(y1_minus_1, M)
        pair = IdealPair.cyclic(Ideal(ring, (ring.parse("x1 - y1"),)))
        report = is_relative_cm(pair, M)  # graded, so decided: S/I is CM
        assert (report.cd, report.grade, report.relative_cm) == (1, 1, True)
        assert grade_wrt(pair, M).grade == 1


def level_pairs(I: Ideal, block: VariableBlock) -> list:
    """S/I and the non-cyclic level pairs (D + E)/E that the monomial
    route builds from the dimension filtration of S/I."""
    df = dimension_filtration(I, block)
    pairs = [IdealPair.cyclic(I)]
    if len(df.slices) > 1:
        for index, piece in enumerate(df.slices):
            e = piece.unmixed_part
            pairs.append(IdealPair(df.chain[index + 1] + e, e, _trusted=True))
    return pairs


def random_level_cases(rings, count, seed) -> list:
    """(pair, block) for S/I and the level pairs of random monomial I, for
    ``count[k]`` ideals in ``rings[k]`` and the blocks P, Q and m."""
    rng = random.Random(seed)
    cases = []
    for ring, k in zip(rings, count):
        made = 0
        while made < k:
            I = random_monomial_ideal(rng, ring, max_gens=5)
            if I.is_unit_ideal():
                continue
            made += 1
            for block in (P, Q, M):
                cases += [(pair, block) for pair in level_pairs(I, block)]
    return cases


def rp2_ideal(field) -> Ideal:
    """The Stanley-Reisner ideal of the six-vertex real projective plane in
    K[y1..y6]: the ten triangles that are not facets."""
    ring = BigradedRing(0, 6, field)
    facets = {frozenset(map(int, f)) for f in (
        "123", "134", "145", "156", "126", "235", "346", "245", "356", "246"
    )}
    gens = [
        ring.y(i) * ring.y(j) * ring.y(k)
        for i, j, k in itertools.combinations(range(1, 7), 3)
        if frozenset((i, j, k)) not in facets
    ]
    return Ideal(ring, gens)


class TestMonomialGrade:
    """The Koszul grade of monomial A/B that is_relative_cm stops at, against
    the unstopped random search."""

    def test_matches_full_search_on_level_pairs(self):
        """S/I and every level pair of random monomial ideals in 2+2, 3+3
        and 4+4, blocks P, Q and m, over QQ and GF(32003): the Koszul grade
        equals the grade of the unstopped grade_wrt, and is_relative_cm
        returns that grade and the same regular sequence, at seeds 0 and 1."""
        compared = 0
        for field in (QQ, PrimeField(32003)):
            rings = [BigradedRing(k, k, field) for k in (2, 3, 4)]
            for pair, block in random_level_cases(rings, (6, 4, 2), 606):
                grade = _monomial_grade(pair, block)
                for seed in (0, 1):
                    full = grade_wrt(pair, block, seed)
                    report = is_relative_cm(pair, block, seed)
                    assert grade == full.grade, (pair, block)
                    assert report.grade == full.grade
                    assert report.regular_sequence == full.regular_sequence
                    compared += 1
        assert compared >= 200

    def test_grade_depends_on_the_characteristic(self):
        """The Stanley-Reisner ring of RP^2 is Cohen-Macaulay of depth 3
        exactly when the characteristic is not 2; over GF(2) its depth is 2.
        The Koszul grade takes ranks over the ring's field, and the random
        search agrees."""
        for field, depth in (
            (QQ, 3), (PrimeField(2), 2), (PrimeField(3), 3), (PrimeField(32003), 3)
        ):
            pair = IdealPair.cyclic(rp2_ideal(field))
            assert _monomial_grade(pair, Q) == depth, field
            assert grade_wrt(pair, Q).grade == depth, field

    def test_monomial_module_needs_no_terminal_h0(
        self, monkeypatch, R22, two_planes_ideal
    ):
        """Two planes have depth 1 < dim 2, and (x1*y1, x1*y2) has grade 0
        < cd 2 w.r.t. Q and grade 1 < cd 2 w.r.t. P.  Stopped at the Koszul
        grade, is_relative_cm proves no H^0 at seeds 0, 1 and 2, where the
        unstopped grade_wrt pays for the terminal H^0 proof."""
        import seqcm.relcm as relcm

        calls = []

        def counting(pair, block):
            calls.append(block)
            return h0_is_zero(pair, block)

        monkeypatch.setattr(relcm, "h0_is_zero", counting)
        line_ideal = Ideal(R22, (R22.parse("x1*y1"), R22.parse("x1*y2")))
        cases = [(two_planes_ideal, M, 1), (line_ideal, Q, 0), (line_ideal, P, 1)]
        for ideal, block, grade in cases:
            pair = IdealPair.cyclic(ideal)
            for seed in (0, 1, 2):
                calls.clear()
                report = is_relative_cm(pair, block, seed)
                assert (report.grade, report.cd) == (grade, 2)
                assert calls == []
                assert grade_wrt(pair, block, seed).grade == grade
                assert calls == [block]

    def test_only_monomial_modules(self, segre_quadric):
        pair = IdealPair.cyclic(Ideal(segre_quadric.ring, (segre_quadric,)))
        assert _monomial_grade(pair, Q) is None


class TestCyclicFirst:
    """Each grade step tests its candidates on the section of J: J = B + L
    while A ∩ (B + L) = B + L·A holds, L the ideal of the earlier forms,
    and J = B + L·A after that; only a candidate that neither the lead test
    nor a product witness decides pays for the exact finish's intersection."""

    def test_shortcut_ends_when_the_invariant_breaks(self, R22):
        """The ideal (x1, x2) has grade 1 w.r.t. P.  Every accepted form l
        is a zerodivisor on S/(x1, x2), so the second step must test on
        the pair itself; a test kept on S/(l) would accept a second form
        and report 2."""
        pair = IdealPair(Ideal(R22, (R22.x(1), R22.x(2))), Ideal.zero(R22))
        for seed in (0, 1, 2):
            assert grade_wrt(pair, P, seed).grade == 1

    def test_broken_invariant_matches_exact_search(self):
        """Random monomial pairs A/(A ∩ C), blocks P, Q and m, seeds 0 and
        1, whose first accepted form is a zerodivisor on S/A, so that every
        later step tests on the section of B + L·A: grade_wrt accepts the
        forms of the elimination-only search."""
        rng = random.Random(12)
        broken = 0
        while broken < 20:
            ring = BigradedRing(rng.choice((2, 3)), rng.choice((1, 2)))
            a = random_monomial_ideal(rng, ring, max_gens=3, max_degree=2)
            b = intersect(a, random_monomial_ideal(rng, ring, max_gens=3, max_degree=3))
            pair = IdealPair(a, b)
            if pair.is_zero_module() or a.is_unit_ideal():
                continue
            block = rng.choice((P, Q, M))
            for seed in (0, 1):
                got = grade_wrt(pair, block, seed).regular_sequence
                if got and not is_regular_form(IdealPair.cyclic(a), got[0]):
                    assert got == exact_grade_search(pair, block, seed), (pair, block)
                    broken += 1

    def test_same_witness_as_exact_search(self):
        """Random level pairs in 2+2 and 3+3, blocks P, Q and m, seeds 0
        and 1: grade_wrt accepts the forms of the exact-only search."""
        rings = [BigradedRing(k, k) for k in (2, 3)]
        compared = 0
        for pair, block in random_level_cases(rings, (10, 6), 707):
            if pair.is_cyclic():
                continue
            for seed in (0, 1):
                got = grade_wrt(pair, block, seed).regular_sequence
                assert got == exact_grade_search(pair, block, seed), (pair, block)
                compared += 1
        assert compared >= 40

    def test_accepted_level_pair_steps_need_no_intersection(self, monkeypatch):
        """(x1, y1*y2, y3)/(x1, y3) in 3+3 is a level pair of
        (x3*y3^2, x1*y1*y2, y3) w.r.t. P, of grade and cd 2.  Every
        accepted form passes the section test, and the one rejected
        candidate (at seed 1) has a product witness, so no step pays for
        the exact finish's intersection at seeds 0, 1 and 2.  The
        elimination-only search intersects on every step."""
        import seqcm.relcm as relcm

        calls = []

        def counting(intersection):
            def counted(I, J):
                calls.append(1)
                return intersection(I, J)
            return counted

        monkeypatch.setattr(relcm, "intersect", counting(intersect))
        monkeypatch.setattr(
            helpers, "elimination_intersect", counting(helpers.elimination_intersect)
        )
        ring = BigradedRing(3, 3)
        a = Ideal(ring, [ring.parse(t) for t in ("x1", "y1*y2", "y3")])
        b = Ideal(ring, [ring.parse(t) for t in ("x1", "y3")])
        pair = IdealPair(a, b)
        for seed in (0, 1, 2):
            calls.clear()
            report = is_relative_cm(pair, P, seed)
            assert (report.cd, report.grade) == (2, 2)
            assert calls == []
            calls.clear()
            assert exact_grade_search(pair, P, seed) == report.regular_sequence
            assert len(calls) >= 2

    def test_witness_rejections_agree_with_exact_test(self, monkeypatch):
        """Random level pairs in 2+2, 3+3 and 4+4, blocks P, Q and m, over
        QQ and GF(32003), seeds 0 and 1: every candidate rejected by the
        section test is a zerodivisor on the step's quotient A/(B + L·A) by
        the elimination-only test of the definition, and every candidate it
        accepts is regular by it."""
        import seqcm.relcm as relcm

        verdict = relcm._section_verdict
        searched = []  # the pair of the running search, then its accepted forms
        outcomes = []

        def deciding(section, a, ell):
            got = verdict(section, a, ell)
            if searched and a is searched[0].a:  # a candidate; an invariant test has A = (1)
                first, *forms = searched
                b = sum((first.a.scaled_by(form) for form in forms), first.b)
                step = IdealPair(first.a, b, _trusted=True)
                assert got == slow_is_regular(step, ell), (step, ell)
                outcomes.append(got)
                if got:
                    searched.append(ell)
            return got

        monkeypatch.setattr(relcm, "_section_verdict", deciding)
        for field in (QQ, PrimeField(32003)):
            cases = random_level_cases(
                [BigradedRing(k, k, field) for k in (2, 3, 4)], (6, 4, 2), 606
            ) + random_level_cases([BigradedRing(k, k, field) for k in (2, 3)], (10, 6), 707)
            for pair, block in cases:
                if not pair.is_cyclic():
                    for seed in (0, 1):
                        searched[:] = [pair]
                        grade_wrt(pair, block, seed)
        assert outcomes.count(False) >= 300 and outcomes.count(True) >= 120

    def test_witness_needs_no_invariant(self, monkeypatch):
        """Random monomial pairs A/(A ∩ C), blocks P and m: after a first
        form l1 that is regular on A/B but breaks the invariant (a
        zerodivisor on S/A), every rejection by the section of B + (l1)
        that comes before the exact finish (which needs the invariant) is
        still a zerodivisor of A/(B + l1·A)."""
        import seqcm.relcm as relcm

        finishes = []

        def counting(I, J):
            finishes.append(1)
            return intersect(I, J)

        monkeypatch.setattr(relcm, "intersect", counting)
        rng = random.Random(9)
        witnesses = 0
        for _ in range(600):
            ring = BigradedRing(rng.choice((2, 3)), rng.choice((1, 2)))
            a = random_monomial_ideal(rng, ring, max_gens=3, max_degree=2)
            b = intersect(a, random_monomial_ideal(rng, ring, max_gens=3, max_degree=3))
            pair = IdealPair(a, b)
            if pair.is_zero_module() or a.is_unit_ideal():
                continue
            indices = rng.choice((P, M)).variable_indices(ring)
            l1 = _draw_form(ring, indices, rng, 1)
            if not is_regular_form(pair, l1) or is_regular_form(IdealPair.cyclic(a), l1):
                continue
            section = _solve_linear(ring, b.gens + (l1,))
            for span in (1, 2, 3):
                l2 = _draw_form(ring, indices, rng, span)
                finishes.clear()
                if not _section_verdict(section, a, l2) and not finishes:
                    step = IdealPair(a, b + a.scaled_by(l1), _trusted=True)
                    assert not is_regular_form(step, l2), (pair, l1, l2)
                    witnesses += 1
        assert witnesses >= 20

    def test_no_product_witness_falls_back_to_the_exact_test(self, monkeypatch):
        """A level pair of (x2*x3*y2, x2^2*y3) in 3+3 w.r.t. P: l = 2*x2 + x3
        is a zerodivisor on S/B, B = (x3, x2^2), and on A/B (x2*y2*y3 in A
        is killed), but no product x2·ā, x2 the cofactor of x2^2, leaves B.
        Only the exact finish, with its one intersection, rejects the
        candidate, and the search, which meets such candidates, still
        accepts the forms of the elimination-only search."""
        import seqcm.relcm as relcm

        calls = []

        def counting(I, J):
            calls.append(1)
            return intersect(I, J)

        monkeypatch.setattr(relcm, "intersect", counting)

        ring = BigradedRing(3, 3)
        a = Ideal(ring, [ring.parse(t) for t in (
            "x2*y2*y3", "x2*x3*y2", "x2^2*y3", "x3", "x2^2"
        )])
        b = Ideal(ring, [ring.parse(t) for t in ("x3", "x2^2")])
        pair = IdealPair(a, b)
        ell = ring.parse("2*x2 + x3")
        assert _section_verdict(_solve_linear(ring, b.gens), a, ell) is False
        assert calls == [1]
        assert not is_regular_form(pair, ell) and not slow_is_regular(pair, ell)

        finishes = []

        def recording(*args):
            before = len(calls)
            verdict = _section_verdict(*args)
            finishes.append(len(calls) - before)
            return verdict

        monkeypatch.setattr(relcm, "_section_verdict", recording)
        for seed in range(6):
            got = grade_wrt(pair, P, seed).regular_sequence
            assert got == exact_grade_search(pair, P, seed)
        assert sum(finishes) >= 6

    def test_one_section_per_step(self, monkeypatch):
        """A step solves the linear generators of J once, however many of
        its candidates fail: S/(y1*y2) and the pair (x1)/(x1*y1*y2) w.r.t.
        Q, where y1 and y2 alone are zerodivisors."""
        import seqcm.relcm as relcm

        solves, verdicts = [], []

        def solving(*args):
            solves.append(1)
            return _solve_linear(*args)

        def recording(*args):
            verdicts.append(_section_verdict(*args))
            return verdicts[-1]

        monkeypatch.setattr(relcm, "_solve_linear", solving)
        monkeypatch.setattr(relcm, "_section_verdict", recording)
        ring = BigradedRing(1, 2)
        y1y2 = ring.parse("y1*y2")
        pairs = (
            IdealPair.cyclic(Ideal(ring, (y1y2,))),
            IdealPair(Ideal(ring, (ring.x(1),)), Ideal(ring, (ring.x(1) * y1y2,))),
        )
        rejected = 0
        for pair in pairs:
            for seed in range(12):
                solves.clear()
                verdicts.clear()
                assert find_regular_linear_form(pair, Q, seed)
                assert solves == [1] and verdicts[-1] is True
                rejected += verdicts.count(False)
        assert rejected >= 4


class TestCdSubquotient:
    def test_exact_sequence_rule(self):
        ring = BigradedRing(1, 1)
        pair = IdealPair(Ideal(ring, (ring.y(1),)), Ideal(ring, (ring.parse("x1*y1"),)))
        assert cd_subquotient(pair, Q) == 1

    def test_cyclic_rule(self, R22, segre_quadric):
        pair = IdealPair.cyclic(Ideal(R22, (segre_quadric,)))
        assert cd_subquotient(pair, Q) == cd_wrt(Ideal(R22, (segre_quadric,)), Q)

    def test_unmixed_pair_needs_no_hint(self, R22):
        a = Ideal(R22, (R22.x(1), R22.y(1), R22.x(2), R22.y(2)))
        b = Ideal(R22, (R22.x(2), R22.y(2)))
        pair = IdealPair(a, b)
        assert cd_subquotient(pair, Q) == 1

    def test_pair_outside_the_old_rules_is_exact(self, R22):
        """(x1)/(x1*y1) ≅ S/(y1) up to shift: cd(S/B) = cd(S/A) = 2, so the
        exact-sequence rule did not apply, and trusting an unmixedness hint
        read cd 2.  Its annihilator is (y1), so cd is 1 and the module is
        relative CM."""
        pair = IdealPair(Ideal(R22, (R22.x(1),)), Ideal(R22, (R22.parse("x1*y1"),)))
        assert cd_subquotient(pair, Q) == 1
        report = is_relative_cm(pair, Q)
        assert (report.cd, report.grade, report.relative_cm) == (1, 1, True)

    def test_matches_cyclic_submodule_oracle(self):
        """Random monomial pairs B ⊆ A in 2+2 and 3+3, blocks P, Q and m:
        cd(A/B) is the largest cd of the cyclic submodules of S/B generated
        by the minimal generators of A outside B, since the support of A/B is
        the union of theirs.  The count includes the pairs with
        cd(S/B) <= cd(S/A), which the exact-sequence rule could not decide."""
        rng = random.Random(1414)
        compared = refused = 0
        for k in (2, 3):
            ring = BigradedRing(k, k)
            for _ in range(12):
                b = random_monomial_ideal(rng, ring, max_gens=3)
                a = b + random_monomial_ideal(rng, ring, max_gens=3)
                pair = IdealPair(a, b, _trusted=True)
                if a.is_unit_ideal() or pair.is_zero_module():
                    continue
                for block in (P, Q, M):
                    want = max(
                        cyclic_submodule_cd(b, u, block)
                        for u in a.minimal_monomial_generators()
                        if not b.contains(ring.monomial(u))
                    )
                    assert cd_subquotient(pair, block) == want, (pair, block)
                    compared += 1
                    refused += cd_wrt(b, block) <= cd_wrt(a, block)
        assert compared >= 50
        assert refused >= 20


class TestRelativeCm:
    def test_two_planes_is_relative_cm(self, two_planes_ideal):
        report = is_relative_cm(IdealPair.cyclic(two_planes_ideal), Q)
        assert report.relative_cm and report.cd == report.grade == 1

    def test_quadric_is_not(self, R22, segre_quadric):
        report = is_relative_cm(IdealPair.cyclic(Ideal(R22, (segre_quadric,))), Q)
        assert not report.relative_cm
        assert (report.grade, report.cd) == (1, 2)

    def test_free_module(self, R22):
        report = is_relative_cm(IdealPair.cyclic(Ideal.zero(R22)), Q)
        assert report.relative_cm and report.cd == report.grade == 2


class TestFormulaSuite:
    def test_dimension_formulas_on_random_monomials(self):
        rng = random.Random(2001)
        ring = BigradedRing(2, 2)
        cm_seen = relcm_seen = 0
        for _ in range(40):
            I = random_monomial_ideal(rng, ring, max_gens=3)
            if I.is_unit_ideal():
                continue
            pair = IdealPair.cyclic(I)
            dim = krull_dim(I)
            depth = grade_wrt(pair, M).grade
            if depth == dim:  # Cohen-Macaulay: grade(P) + cd(Q) = dim
                cm_seen += 1
                assert grade_wrt(pair, P).grade + cd_wrt(I, Q) == dim
            rep_q = is_relative_cm(pair, Q)
            if rep_q.relative_cm:  # relative CM wrt Q: cd(P) + cd(Q) = dim
                relcm_seen += 1
                assert cd_wrt(I, P) + cd_wrt(I, Q) == dim
        assert cm_seen >= 5 and relcm_seen >= 5

    def test_block_swap_symmetry(self):
        """P and Q run the same code path, so this compares two independent
        computations on mirror-image modules."""
        rng = random.Random(2002)
        ring = BigradedRing(2, 2)
        mirror_ring = BigradedRing(ring.n, ring.m)

        def mirrored(g):  # exchange the x and y exponent blocks
            terms = {e[ring.m :] + e[: ring.m]: c for e, c in g.terms.items()}
            return Polynomial(mirror_ring, terms)

        for _ in range(12):
            I = random_monomial_ideal(rng, ring, max_gens=3)
            if I.is_unit_ideal():
                continue
            J = Ideal(mirror_ring, tuple(mirrored(g) for g in I.gens))
            assert cd_wrt(I, P) == cd_wrt(J, Q)
            assert cd_wrt(I, Q) == cd_wrt(J, P)
            pair_i, pair_j = IdealPair.cyclic(I), IdealPair.cyclic(J)
            assert grade_wrt(pair_i, P).grade == grade_wrt(pair_j, Q).grade
            assert grade_wrt(pair_i, Q).grade == grade_wrt(pair_j, P).grade
            assert grade_wrt(pair_i, M).grade == grade_wrt(pair_j, M).grade


class TestSmallFieldExhaustion:
    def test_gf2_search_exhausts_with_guidance(self):
        """Over GF(2) every linear y-form divides y1*y2*(y1+y2), so the
        randomized search must fail with the documented error; over the
        rationals the same module has a regular form."""
        from seqcm.fields import PrimeField

        for field, should_fail in ((PrimeField(2), True), (None, False)):
            ring = BigradedRing(1, 2, field) if field else BigradedRing(1, 2)
            f = ring.y(1) * ring.y(2) * (ring.y(1) + ring.y(2))
            pair = IdealPair.cyclic(Ideal(ring, (f,)))
            assert h0_is_zero(pair, Q)
            if should_fail:
                with pytest.raises(NoRegularFormError):
                    find_regular_linear_form(pair, Q, seed=0)
            else:
                ell = find_regular_linear_form(pair, Q, seed=0)
                assert is_regular_form(pair, ell)


class TestDegenerateBlocks:
    def test_ordinary_ring_p_block(self):
        # m = 0: P = (0), torsion functor is the identity, so grade = cd = 0.
        ring = BigradedRing(0, 2)
        I = Ideal(ring, (ring.parse("y1*y2"),))
        pair = IdealPair.cyclic(I)
        assert cd_wrt(I, P) == 0
        assert grade_wrt(pair, P).grade == 0
        assert not h0_is_zero(pair, P)

    def test_zero_module_pair_rejected(self, R22):
        pair = IdealPair(Ideal(R22, (R22.x(1),)), Ideal(R22, (R22.x(1),)))
        with pytest.raises(ZeroModuleError):
            grade_wrt(pair, Q)

    @pytest.mark.parametrize("decide", [h0_is_zero, cd_subquotient])
    def test_zero_module_pair_rejected_by_h0_and_cd(self, R22, decide):
        x1 = Ideal(R22, (R22.x(1),))
        with pytest.raises(ZeroModuleError):
            decide(IdealPair(x1, x1), Q)

    def test_pair_needs_the_lower_ideal_inside(self, R22):
        with pytest.raises(ValueError, match="lower ideal is not contained in the upper"):
            IdealPair(Ideal(R22, (R22.x(1),)), Ideal(R22, (R22.y(1),)))
