import random
import time
from fractions import Fraction

import pytest

from seqcm.errors import (
    NotBihomogeneousError,
    ParseError,
    RingMismatchError,
    ZeroPolynomialError,
)
from helpers import ref_mono_div, ref_mono_divides, ref_mono_lcm, ref_mono_mul
from seqcm.fields import MAX_PRIME, PrimeField, _is_prime, field_from_name
from seqcm.poly import (
    MAX_NESTING,
    BiDegree,
    BigradedRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def random_poly(rng, ring, max_terms=5, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-6, 6)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(c)
    return Polynomial(ring, terms)


class TestArithmetic:
    def test_additive_inverse(self, R22):
        p = R22.x(1) * R22.y(1)
        assert (p + (-p)).is_zero()

    def test_sum_matches_quadric(self, R22, segre_quadric):
        assert R22.x(1) * R22.y(1) + R22.x(2) * R22.y(2) == segre_quadric

    def test_additive_identity(self, R22):
        g = R22.parse("x1^2*y2 - 3*y1")
        assert R22.zero() + g == g

    def test_distributes(self, R22):
        lhs = (R22.x(1) + R22.x(2)) * R22.y(1)
        assert lhs == R22.x(1) * R22.y(1) + R22.x(2) * R22.y(1)

    def test_multiplicative_identity(self, R22):
        g = R22.parse("2*x1*y1 + 1/3*y2^2")
        assert R22.one() * g == g

    def test_ring_axioms_randomized(self, R22):
        rng = random.Random(2024)
        for _ in range(60):
            p, q, r = (random_poly(rng, R22) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_ring_mismatch_raises(self, R22):
        other = BigradedRing(1, 1)
        with pytest.raises(RingMismatchError):
            R22.x(1) + other.x(1)

    def test_pow(self, R22):
        p = R22.x(1) + R22.y(1)
        assert p ** 3 == p * p * p
        assert p ** 0 == R22.one()


class TestMonomialHelpers:
    def test_map_forms_match_generator_forms(self):
        """The map-based mono_* agree with the generator-expression
        references on random exponent tuples of length 0 to 9, drawn from a
        small range so that zeros and equal entries are frequent."""
        rng = random.Random(404)
        for _ in range(2000):
            n = rng.randint(0, 9)
            u = tuple(rng.randint(0, 3) for _ in range(n))
            v = tuple(rng.choice((e, rng.randint(0, 3))) for e in u)
            assert mono_mul(u, v) == ref_mono_mul(u, v)
            assert mono_lcm(u, v) == ref_mono_lcm(u, v)
            assert mono_divides(u, v) == ref_mono_divides(u, v)
            assert mono_divides(v, u) == ref_mono_divides(v, u)
            w = mono_mul(u, v)
            assert mono_div(w, v) == ref_mono_div(w, v) == u


class TestBidegree:
    def test_quadric_bidegree(self, segre_quadric):
        assert segre_quadric.bidegree() == BiDegree(1, 1)

    def test_constant_bidegree(self, R22):
        assert R22.constant(7).bidegree() == BiDegree(0, 0)

    def test_mixed_raises(self, R22):
        with pytest.raises(NotBihomogeneousError):
            (R22.x(1) + R22.y(1)).bidegree()

    def test_zero_raises(self, R22):
        with pytest.raises(ZeroPolynomialError):
            R22.zero().bidegree()

    def test_bidegree_additive_on_products(self, R22):
        rng = random.Random(7)
        for _ in range(40):
            a1, b1 = rng.randint(0, 2), rng.randint(0, 2)
            a2, b2 = rng.randint(0, 2), rng.randint(0, 2)
            from helpers import random_bihomogeneous

            p = random_bihomogeneous(rng, R22, a1, b1)
            q = random_bihomogeneous(rng, R22, a2, b2)
            assert (p * q).bidegree() == p.bidegree() + q.bidegree()


class TestTextSyntax:
    def test_parse_canonical_examples(self, R22, segre_quadric):
        assert R22.parse("x1*y1 + x2*y2") == segre_quadric
        half = R22.constant(Fraction(1, 2))
        assert R22.parse("1/2*x1^2 - y2") == half * R22.x(1) ** 2 - R22.y(2)

    def test_round_trip_randomized(self, R22):
        rng = random.Random(11)
        for _ in range(80):
            p = random_poly(rng, R22)
            assert R22.parse(str(p)) == p

    def test_round_trip_prime_field(self):
        ring = BigradedRing(2, 2, PrimeField(65537))
        rng = random.Random(5)
        for _ in range(30):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * ring.nvars
                exps[rng.randrange(ring.nvars)] += rng.randint(0, 2)
                terms[tuple(exps)] = rng.randint(-10, 10)
            p = Polynomial(ring, terms)
            assert ring.parse(str(p)) == p

    def test_canonical_printing_is_descending(self, R22):
        p = R22.parse("y2 + x1^2*y1 + x1*y1")
        assert str(p) == "x1^2*y1 + x1*y1 + y2"

    def test_negative_and_fraction_rendering(self, R22):
        p = R22.parse("-x1*y1 + 1/2*y2 - 3")
        assert str(p) == "-x1*y1 + 1/2*y2 - 3"

    def test_unknown_variable_position(self, R22):
        with pytest.raises(ParseError) as err:
            R22.parse("x1*y1 + x3")
        assert err.value.line == 1
        assert err.value.column == 9

    def test_trailing_garbage(self, R22):
        with pytest.raises(ParseError):
            R22.parse("x1 )")

    @pytest.mark.parametrize("text", ["x1*y1^²", "x¹*y1", "x١*y1", "x1*ÿ1"])
    def test_non_ascii_digits_and_letters_are_refused(self, R22, text):
        """'١' (Arabic-Indic one) once read as 1, and '²' as a digit that
        int() then rejected."""
        with pytest.raises(ParseError, match="unexpected character"):
            R22.parse(text)
        assert R22.variable_index("x١") is None

    def test_zero_literal(self, R22):
        assert R22.parse("0").is_zero()

    def test_nesting_depth_is_bounded(self, R22):
        assert R22.parse("(" * 20 + "x1*y1" + ")" * 20) == R22.parse("x1*y1")
        deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert R22.parse(deepest) == R22.parse("x1")
        with pytest.raises(ParseError, match="nested deeper") as err:
            R22.parse("(" * 300 + "x1" + ")" * 300)
        assert err.value.column == MAX_NESTING + 1


class TestPrimeField:
    def test_arithmetic_matches_rationals_mod_p(self):
        p = 65537
        ring_q = BigradedRing(1, 2)
        ring_p = BigradedRing(1, 2, PrimeField(p))
        rng = random.Random(3)
        for _ in range(20):
            f_q = random_poly(rng, ring_q)
            g_q = random_poly(rng, ring_q)
            to_p = lambda poly: Polynomial(ring_p, poly.terms)
            assert to_p(f_q * g_q) == to_p(f_q) * to_p(g_q)
            assert to_p(f_q + g_q) == to_p(f_q) + to_p(g_q)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(65536)

    def test_primality_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        assert [p for p in range(5000) if _is_prime(p)] == [
            p for p in range(5000) if trial(p)
        ]

    def test_large_prime_parses_fast(self):
        start = time.perf_counter()
        field = field_from_name("GF(1000000000000000003)")
        assert time.perf_counter() - start < 0.1
        assert field.name == "GF(1000000000000000003)"

    @pytest.mark.parametrize("n", [561, 3215031751])
    def test_rejects_pseudoprimes(self, n):
        """561 is a Carmichael number; 3215031751 = 151*751*28351 is a
        strong pseudoprime to the bases 2, 3, 5 and 7."""
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)

    def test_refuses_primes_beyond_the_bound(self):
        with pytest.raises(ValueError, match=str(MAX_PRIME)):
            PrimeField(MAX_PRIME)


    def test_denominator_divisible_by_p_is_a_parse_error(self):
        """A p/q coefficient whose reduced denominator vanishes in GF(p) is
        reported at the denominator; one whose fraction reduces away from
        p still parses."""
        ring = BigradedRing(1, 1, PrimeField(5))
        with pytest.raises(ParseError, match="not invertible in GF\\(5\\)") as err:
            ring.parse("x1 + 1/5*x1*y1")
        assert (err.value.line, err.value.column) == (1, 8)
        with pytest.raises(ParseError):
            ring.parse("2/10*y1")
        assert ring.parse("10/5*y1") == ring.parse("2*y1")
        assert str(ring.parse("3/2*y1")) == "4*y1"


class TestStructuralMaps:
    def test_substitute_variable(self, R22):
        p = R22.parse("x1^2*y1 + y1")
        repl = R22.parse("y1 - y2")
        got = p.substitute_variable(R22.variable_index("y1"), repl)
        assert got == R22.parse("x1^2*y1 - x1^2*y2 + y1 - y2")

    def test_substitute_variable_matches_term_by_term_sum(self, R22):
        """Cancelling terms leave no zero coefficients behind."""
        y1 = R22.variable_index("y1")
        p = R22.parse("x1*y1^2 - x1*y2^2 + 3*x2*y1 - 3*x2*y2 + x1^2")
        repl = R22.parse("y2")
        got = p.substitute_variable(y1, repl)
        assert got == R22.parse("x1^2") and all(got.terms.values())
        repl = R22.parse("2*y1 - x1 + 1/2*y2")
        expected = R22.zero()
        for exps, c in p.terms.items():
            base = exps[:y1] + (0,) + exps[y1 + 1 :]
            expected = expected + (repl ** exps[y1]).mul_term(c, base)
        assert p.substitute_variable(y1, repl) == expected

    def test_ring_invariants(self):
        with pytest.raises(ValueError):
            BigradedRing(2, 0)
        with pytest.raises(ValueError):
            BigradedRing(-1, 1)
        # m = 0 is the ordinary singly graded case
        ring = BigradedRing(0, 2)
        assert ring.parse("y1*y2").bidegree() == BiDegree(0, 2)
