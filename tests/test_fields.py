import random
from fractions import Fraction

import pytest

from seqcm.fields import QQ, ModP, PrimeField
from seqcm.groebner import buchberger, normal_form
from seqcm.poly import BigradedRing, Polynomial
from seqcm.relcm import _echelon


class TestRationalElements:
    """An element of QQ is an int when it is an integer and a Fraction when
    it is not."""

    def test_zero_and_one_are_ints(self):
        assert type(QQ.zero) is int and QQ.zero == 0
        assert type(QQ.one) is int and QQ.one == 1

    @pytest.mark.parametrize("value", [3, Fraction(6, 2), "6/2", "3"])
    def test_integral_values_are_ints(self, value):
        assert type(QQ.of(value)) is int and QQ.of(value) == 3

    @pytest.mark.parametrize("value", [Fraction(1, 2), "2/4", "-3/6"])
    def test_other_values_are_fractions(self, value):
        assert type(QQ.of(value)) is Fraction and abs(QQ.of(value)) == Fraction(1, 2)

    @pytest.mark.parametrize("value", [1.0, 0.5, ModP(1, 5), None])
    def test_float_and_foreign_values_are_refused(self, value):
        with pytest.raises(TypeError):
            QQ.of(value)

    @pytest.mark.parametrize("unit", [1, -1])
    def test_inverse_of_a_unit_is_itself(self, unit):
        assert type(QQ.inverse(unit)) is int and QQ.inverse(unit) == unit

    @pytest.mark.parametrize(
        "x,inverse",
        [
            (2, Fraction(1, 2)),
            (-3, Fraction(-1, 3)),
            (Fraction(1, 3), 3),
            (Fraction(-1, 7), -7),
            (Fraction(2, 3), Fraction(3, 2)),
            (Fraction(5), Fraction(1, 5)),
        ],
    )
    def test_inverse(self, x, inverse):
        got = QQ.inverse(x)
        assert got == inverse and x * got == 1
        assert type(got) is (int if inverse.denominator == 1 else Fraction)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inverse(0)


def test_prime_field_inverse_agrees_with_pow():
    field = PrimeField(32003)
    rng = random.Random(5)
    for value in [1, 2, 32002] + [rng.randrange(1, 32003) for _ in range(50)]:
        assert field.inverse(field.of(value)) == ModP(pow(value, -1, 32003), 32003)


def _coefficients_are_exact(polys) -> bool:
    return all(type(c) in (int, Fraction) for p in polys for c in p.terms.values())


def _as_fractions(p: Polynomial) -> Polynomial:
    """p with every coefficient a Fraction, integral ones included."""
    return Polynomial._raw(p.ring, {e: Fraction(c) for e, c in p.terms.items()})


def _random_poly(rng, ring, max_terms=4, max_degree=3):
    coefficients = [-3, -2, -1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        terms[tuple(exps)] = rng.choice(coefficients)
    return Polynomial(ring, terms)


class TestNoFloats:
    """Seeded random computations over QQ keep every coefficient an int or a
    Fraction, and give the same results from the same inputs held as
    Fractions throughout."""

    def test_buchberger_and_normal_form(self):
        rng = random.Random(11)
        ring = BigradedRing(2, 2)
        for _ in range(30):
            gens = [_random_poly(rng, ring) for _ in range(rng.randint(1, 3))]
            basis = buchberger(gens)
            assert _coefficients_are_exact(basis)
            assert basis == buchberger([_as_fractions(g) for g in gens])
            f = _random_poly(rng, ring)
            remainder = normal_form(f, basis)
            assert _coefficients_are_exact([remainder])
            assert remainder == normal_form(_as_fractions(f), basis)

    def test_substitute_variable(self):
        rng = random.Random(12)
        ring = BigradedRing(2, 2)
        for _ in range(30):
            f, replacement = _random_poly(rng, ring), _random_poly(rng, ring, max_degree=1)
            index = rng.randrange(ring.nvars)
            image = f.substitute_variable(index, replacement)
            assert _coefficients_are_exact([image])
            assert image == _as_fractions(f).substitute_variable(
                index, _as_fractions(replacement)
            )

    def test_echelon(self):
        rng = random.Random(13)
        for _ in range(30):
            rows = [
                {col: QQ.of(rng.choice([-2, -1, 1, 3, "1/2", "-5/3"])) for col in
                 rng.sample(range(6), rng.randint(1, 4))}
                for _ in range(rng.randint(1, 5))
            ]
            fractions = [{k: Fraction(v) for k, v in row.items()} for row in rows]
            pivots = _echelon([dict(row) for row in rows], QQ)
            assert all(type(v) in (int, Fraction) for row in pivots.values() for v in row.values())
            assert all(row[col] == 1 for col, row in pivots.items())
            assert pivots == _echelon(fractions, QQ)
