import random
from fractions import Fraction

from helpers import (
    dense_membership,
    elimination_quotient,
    elimination_saturation,
    ideals_equal,
    multipass_autoreduce,
    random_bihomogeneous,
    random_monomial_ideal,
)
from seqcm import groebner
from seqcm.groebner import (
    Ideal,
    _autoreduce,
    buchberger,
    colon_by_variable,
    exact_div,
    ideal_quotient,
    intersect,
    krull_dim,
    normal_form,
    saturation,
)
from seqcm.orders import MonomialOrder
from seqcm.poly import BigradedRing, Polynomial


def s_polynomial(f, g):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g under the ring's default order."""
    lcm = tuple(max(a, b) for a, b in zip(f.leading_monomial(), g.leading_monomial()))

    def cofactor_times(p):
        lm = p.leading_monomial()
        shift = tuple(a - b for a, b in zip(lcm, lm))
        return p.mul_term(p.ring.field.one / p.terms[lm], shift)

    return cofactor_times(f) - cofactor_times(g)


def random_poly(rng, ring, max_terms=4, max_degree=3, homogeneous=False):
    terms = {}
    deg = rng.randint(1, max_degree)
    for _ in range(rng.randint(1, max_terms)):
        d = deg if homogeneous else rng.randint(0, max_degree)
        exps = [0] * ring.nvars
        for _ in range(d):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(c)
    return Polynomial(ring, terms)


class TestNormalForm:
    def test_divisible_lead(self, R22):
        assert normal_form(R22.parse("x1*y1"), [R22.x(1)]).is_zero()

    def test_single_division_step(self, R22, segre_quadric):
        assert normal_form(segre_quadric, [R22.x(1)]) == R22.parse("x2*y2")

    def test_empty_basis(self, R22):
        g = R22.parse("x1^2 - y1*y2")
        assert normal_form(g, []) == g

    def test_idempotent(self, R22):
        rng = random.Random(4)
        for _ in range(25):
            gens = [random_poly(rng, R22) for _ in range(2)]
            basis = buchberger([g for g in gens if g])
            f = random_poly(rng, R22)
            once = normal_form(f, basis)
            assert normal_form(once, basis) == once


class TestBuchberger:
    def test_principal_ideal_is_its_own_basis(self, R22, segre_quadric):
        assert buchberger([segre_quadric]) == (segre_quadric,)

    def test_monomial_generators_fixed(self, R22, two_planes_ideal):
        basis = buchberger(list(two_planes_ideal.gens))
        assert set(basis) == set(two_planes_ideal.gens)

    def test_one_reduction(self, R22, segre_quadric):
        basis = buchberger([segre_quadric, R22.x(1)])
        assert set(basis) == {R22.x(1), R22.parse("x2*y2")}
        # confirm with the independent membership oracle
        I = Ideal(R22, (segre_quadric, R22.x(1)))
        for g in basis:
            assert dense_membership(g, I)

    def test_spairs_reduce_to_zero(self, R22):
        rng = random.Random(12)
        for _ in range(15):
            gens = [random_poly(rng, R22) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            basis = buchberger(gens)
            for i in range(len(basis)):
                for j in range(i):
                    s = s_polynomial(basis[i], basis[j])
                    assert normal_form(s, basis).is_zero()

    def test_reduced_basis_unique_under_permutation(self, R22):
        rng = random.Random(13)
        for _ in range(15):
            gens = [random_poly(rng, R22) for _ in range(3)]
            gens = [g for g in gens if g]
            if len(gens) < 2:
                continue
            forward = buchberger(gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == forward


class TestMembership:
    def test_trivial_cases(self, R22):
        I = Ideal(R22, (R22.x(1),))
        assert I.contains(R22.parse("x1*y1"))
        assert I.contains(R22.zero())
        assert not I.contains(R22.parse("x1*y1 + x2*y2"))

    def test_constant_needs_no_basis(self, R22, monkeypatch):
        """A homogeneous ideal holds a constant only when a generator is
        constant, so deciding it runs no Buchberger, even with an empty memo."""
        from collections import OrderedDict

        runs = []

        def counting(*args):
            runs.append(1)
            return buchberger(*args)

        monkeypatch.setattr(groebner, "buchberger", counting)
        monkeypatch.setattr(groebner, "_GB_MEMO", OrderedDict())
        assert not Ideal(R22, (R22.parse("x1*y1 + x2*y2"),)).contains(R22.one())
        assert runs == []

    def test_agrees_with_dense_linear_algebra(self):
        # Homogeneous generators keep the degree-6 oracle complete.
        rng = random.Random(42)
        ring = BigradedRing(2, 2)
        checked = 0
        for _ in range(25):
            gens = [
                random_poly(rng, ring, homogeneous=True)
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
            I = Ideal(ring, gens)
            for _ in range(3):
                if rng.random() < 0.5:
                    # a genuine member: random combination of the generators
                    f = ring.zero()
                    for g in I.gens:
                        f = f + g * random_poly(rng, ring, max_terms=2, max_degree=2)
                else:
                    f = random_poly(rng, ring)
                if f.is_zero() or f.total_degree() > 6:
                    continue
                assert I.contains(f) == dense_membership(f, I)
                checked += 1
        assert checked >= 50


class TestIntersect:
    def test_two_planes(self, R22, two_planes_ideal):
        got = intersect(Ideal(R22, (R22.x(1), R22.y(1))), Ideal(R22, (R22.x(2), R22.y(2))))
        assert ideals_equal(got, two_planes_ideal)
        # the generator list is forced: compare minimal monomial generators
        assert got.minimal_monomial_generators() == two_planes_ideal.minimal_monomial_generators()

    def test_unit_is_neutral(self, R22):
        I = Ideal(R22, (R22.parse("x1*y1 + x2*y2"),))
        assert ideals_equal(intersect(I, Ideal.unit(R22)), I)

    def test_unit_check_needs_no_basis_for_homogeneous_generators(self, R22):
        """Nonconstant homogeneous generators lie in (x1, x2, y1, y2), so
        is_unit_ideal answers without a basis; any other ideal still asks
        for one."""
        I = Ideal(R22, (R22.parse("x1*y1 + x2*y2"), R22.parse("x1^2 - y1*y2")))
        memo = list(groebner._GB_MEMO)
        assert not I.is_unit_ideal()
        assert list(groebner._GB_MEMO) == memo
        assert I._bases == {}
        for text in ("x1, x1 - 1", "x1*y1 - 1, x1", "y2^2 - 1, y2"):
            inhomogeneous = Ideal(R22, [R22.parse(g) for g in text.split(", ")])
            assert inhomogeneous.is_unit_ideal()
        assert not Ideal(R22, (R22.parse("x1 - 1"), R22.parse("y1"))).is_unit_ideal()

    def test_coprime_principal(self, R22):
        got = intersect(Ideal(R22, (R22.x(1),)), Ideal(R22, (R22.y(1),)))
        assert ideals_equal(got, Ideal(R22, (R22.parse("x1*y1"),)))

    def test_membership_characterization(self, R22):
        rng = random.Random(21)
        for _ in range(10):
            I = Ideal(R22, [random_poly(rng, R22) for _ in range(2)])
            J = Ideal(R22, [random_poly(rng, R22) for _ in range(2)])
            if not I.gens or not J.gens:
                continue
            K = intersect(I, J)
            for g in K.gens:
                assert I.contains(g) and J.contains(g)


class TestQuotientAndSaturation:
    def test_monomial_colon(self, R22):
        got = ideal_quotient(Ideal(R22, (R22.parse("x1*x2"),)), R22.x(1))
        assert ideals_equal(got, Ideal(R22, (R22.x(2),)))

    def test_colon_by_irreducible_factor(self, R22, segre_quadric):
        I = Ideal(R22, (segre_quadric,))
        got = ideal_quotient(I, R22.y(1))
        assert ideals_equal(got, I)
        for g in got.gens:
            assert I.contains(g * R22.y(1))

    def test_colon_by_unit(self, R22, two_planes_ideal):
        assert ideals_equal(ideal_quotient(two_planes_ideal, R22.one()), two_planes_ideal)

    def test_colon_containments(self, R22):
        rng = random.Random(31)
        for _ in range(12):
            I = Ideal(R22, [random_poly(rng, R22) for _ in range(2)])
            f = random_poly(rng, R22)
            if not I.gens or f.is_zero():
                continue
            Q = ideal_quotient(I, f)
            assert Q.contains_ideal(I)
            for g in Q.gens:
                assert I.contains(g * f)

    def test_saturation_examples(self, R22, segre_quadric):
        Qblk = Ideal(R22, (R22.y(1), R22.y(2)))
        got = saturation(Ideal(R22, (R22.parse("x1*y1"), R22.parse("x1*y2"))), Qblk)
        assert ideals_equal(got, Ideal(R22, (R22.x(1),)))
        unchanged = saturation(Ideal(R22, (segre_quadric,)), Qblk)
        assert ideals_equal(unchanged, Ideal(R22, (segre_quadric,)))
        assert ideals_equal(saturation(Ideal.unit(R22), Qblk), Ideal.unit(R22))

    def test_saturation_idempotent(self, R22):
        rng = random.Random(8)
        Qblk = Ideal(R22, (R22.y(1), R22.y(2)))
        for _ in range(10):
            I = random_monomial_ideal(rng, R22)
            once = saturation(I, Qblk)
            assert ideals_equal(saturation(once, Qblk), once)

    def test_exact_div(self, R22):
        rng = random.Random(17)
        for _ in range(20):
            f = random_poly(rng, R22)
            g = random_poly(rng, R22)
            if f.is_zero() or g.is_zero():
                continue
            assert exact_div(f * g, f) == g


class TestFastPathsAgainstElimination:
    """The combinatorial and last-variable shortcuts must match the aux-variable route."""

    def test_monomial_quotient_matches(self, R22):
        rng = random.Random(19)
        for _ in range(15):
            I = random_monomial_ideal(rng, R22)
            deg = rng.randint(1, 2)
            exps = [0] * R22.nvars
            for _ in range(deg):
                exps[rng.randrange(R22.nvars)] += 1
            f = R22.monomial(exps)
            assert ideals_equal(ideal_quotient(I, f), elimination_quotient(I, f))

    def test_variable_colon_matches(self, R22):
        rng = random.Random(23)
        for _ in range(15):
            gens = [random_poly(rng, R22, homogeneous=True) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            I = Ideal(R22, gens)
            v = rng.randrange(R22.nvars)
            assert ideals_equal(colon_by_variable(I, v), elimination_quotient(I, R22.gen(v)))

    def test_monomial_saturation_matches(self, R22):
        rng = random.Random(29)
        Qblk = Ideal(R22, (R22.y(1), R22.y(2)))
        for _ in range(10):
            I = random_monomial_ideal(rng, R22)
            assert ideals_equal(saturation(I, Qblk), elimination_saturation(I, Qblk))

    def test_bihomogeneous_saturation_matches(self, R22):
        """Non-monomial ideals f*(y1, y2) + (g), whose Q-saturation contains
        f, and f*(x1, x2) + (g) for P: colon rounds cut short against the
        elimination route."""
        rng = random.Random(41)
        blocks = (
            (Ideal(R22, (R22.y(1), R22.y(2))), (1, 0)),
            (Ideal(R22, (R22.x(1), R22.x(2))), (0, 1)),
        )
        grew = 0
        for _ in range(4):
            for blk, f_bidegree in blocks:
                f = random_bihomogeneous(rng, R22, *f_bidegree, max_terms=2)
                g = random_bihomogeneous(rng, R22, 1, 1, max_terms=3)
                I = Ideal(R22, [f * v for v in blk.gens] + [g])
                got = saturation(I, blk)
                assert ideals_equal(got, elimination_saturation(I, blk))
                grew += not I.contains_ideal(got)
        assert grew >= 6


class TestCaching:
    def test_basis_cached_per_ideal(self, R22, segre_quadric):
        I = Ideal(R22, (segre_quadric, R22.x(1)))
        assert I.groebner_basis() is I.groebner_basis()

    def test_memo_is_thread_safe(self, R22):
        import threading

        rng = random.Random(71)
        gens = [random_poly(rng, R22) for _ in range(3)]
        gens = [g for g in gens if g]
        results = []

        def work():
            ideal = Ideal(R22, gens)  # fresh instance, shared global memo
            results.append(ideal.groebner_basis())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r == results[0] for r in results)


class TestKernel:
    """The one-pass interreduction, the memoised order keys and the bounded
    basis memo against their plain counterparts."""

    def test_one_pass_autoreduce_matches_multipass(self):
        rng = random.Random(53)
        ring = BigradedRing(2, 2)
        checked = 0
        for _ in range(40):
            order = rng.choice(
                [
                    MonomialOrder.grevlex(),
                    MonomialOrder.variable_last(rng.randrange(ring.nvars), ring.nvars),
                    MonomialOrder.eliminate(1),
                ]
            )
            keyfn = order.sort_key(ring.nvars)
            gens = [g for g in (random_poly(rng, ring) for _ in range(3)) if g]
            if not gens:
                continue
            basis = buchberger(gens, order)
            # A Groebner basis that is neither minimal nor reduced: the reduced
            # one plus scaled copies and random members of the ideal.
            polys = list(basis)
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(basis)
                polys.append(g.scale(rng.randint(2, 5)))
                member = ring.zero()
                for h in basis:
                    member = member + h * random_poly(rng, ring, max_terms=2, max_degree=1)
                if member:
                    polys.append(member)
            rng.shuffle(polys)
            items = [(p.leading_monomial(keyfn), p.monic(keyfn).terms) for p in polys]
            got = _autoreduce(items, keyfn, ring)
            assert got == multipass_autoreduce(polys, keyfn) == basis
            checked += 1
        assert checked >= 30

    def test_cached_sort_keys_match_uncached(self):
        rng = random.Random(59)
        for nvars in range(2, 7):
            orders = [MonomialOrder.grevlex()]
            orders += [MonomialOrder.variable_last(v, nvars) for v in range(nvars)]
            orders += [MonomialOrder.eliminate(k) for k in range(1, nvars)]
            monos = [
                tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(60)
            ]
            for order in orders:
                cached = order.sort_key(nvars)
                plain = order._uncached_key(nvars)
                assert order.sort_key(nvars) is cached
                assert [cached(e) for e in monos] == [plain(e) for e in monos]
                assert sorted(monos, key=cached) == sorted(monos, key=plain)

    def test_variable_last_shares_the_grevlex_memo_key(self, R22):
        last = R22.nvars - 1
        assert MonomialOrder.variable_last(last, R22.nvars) == R22.order
        assert MonomialOrder.variable_last(0, R22.nvars) == MonomialOrder(last_var=0)
        I = Ideal(R22, (R22.parse("x1*y2 + x2*y1"), R22.parse("y2^2 - x1*y1")))
        colon_by_variable(I, last)
        I.contains(R22.parse("x1*y1"))
        assert list(I._bases) == [R22.order]

    def test_basis_memo_is_a_bounded_lru(self):
        bound = groebner._GB_MEMO_SIZE
        ring = BigradedRing(1, 1)
        x, y = ring.x(1), ring.y(1)

        def basis(k):
            """A fresh instance each time, so only the process-wide memo can hit."""
            got = Ideal(ring, (x + ring.constant(k) * y,)).groebner_basis()
            assert len(groebner._GB_MEMO) <= bound
            return got

        def memoised(k):
            key = Ideal(ring, (x + ring.constant(k) * y,))._presentation()
            return any(entry[1] == key for entry in groebner._GB_MEMO)

        first = basis(1)
        for k in range(2, bound + 1):
            basis(k)
        assert memoised(1)
        assert basis(1) == first  # a hit makes the first ideal the most recent
        basis(bound + 1)
        assert memoised(1) and not memoised(2)
        for k in range(bound + 2, 2 * bound + 2):
            basis(k)
        assert not memoised(1)
        assert basis(1) == first == (x + y,)


class TestIdealEquality:
    def test_presentation_equality_and_hash(self, R22, segre_quadric):
        a = Ideal(R22, (segre_quadric, R22.x(1)))
        b = Ideal(R22, (R22.parse("x2*y2 + x1*y1"), R22.x(1)))
        assert a == b and hash(a) == hash(b)
        swapped = Ideal(R22, (R22.x(1), segre_quadric))
        assert a != swapped and a.equals(swapped)
        assert a != Ideal(BigradedRing(2, 3), (BigradedRing(2, 3).x(1),))
        assert len({a, b, swapped}) == 2


class TestKrullDim:
    def test_two_planes_dimension(self, two_planes_ideal):
        assert krull_dim(two_planes_ideal) == 2

    def test_zero_ideal(self, R22):
        assert krull_dim(Ideal.zero(R22)) == 4

    def test_unit_sentinel(self, R22):
        assert krull_dim(Ideal.unit(R22)) == -1

    def test_quadric_with_x_block(self, R22, segre_quadric):
        I = Ideal(R22, (R22.x(1), R22.x(2), segre_quadric))
        assert krull_dim(I) == 2

    def test_equals_dim_of_leading_ideal(self, R22):
        rng = random.Random(37)
        one = R22.field.one
        for _ in range(12):
            gens = [random_poly(rng, R22) for _ in range(2)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            I = Ideal(R22, gens)
            lead = Ideal(
                R22,
                tuple(
                    Polynomial._raw(R22, {m: one}) for m in I.leading_monomials()
                ),
            )
            assert krull_dim(I) == krull_dim(lead)

    def test_matches_minimal_prime_covariables(self, R22):
        # For monomial ideals dim = max over components of (nvars - |radical|).
        # Adding a variable (as cd_wrt adds a block) drops it from every
        # independent set, which krull_dim does before its search.
        from seqcm.filtration import monomial_primary_decomposition
        from seqcm.relcm import VariableBlock

        rng = random.Random(41)
        for _ in range(15):
            I = random_monomial_ideal(rng, R22)
            if I.is_unit_ideal():
                continue
            for J in (I, I + Ideal(R22, (R22.y(2),))):
                decomposition = monomial_primary_decomposition(J, VariableBlock.M)
                combinatorial = max(c.cd_value for c in decomposition.components)
                assert krull_dim(J) == combinatorial
