import random
from fractions import Fraction

import pytest

from helpers import ideals_equal, random_bihomogeneous, random_split_product
from seqcm.certificates import Route
from seqcm.errors import NotBihomogeneousError, ZeroPolynomialError
from seqcm.filtration import dimension_filtration, is_seq_cm
from seqcm.groebner import Ideal
from seqcm.hypersurface import (
    classify_hypersurface,
    coefficient_matrix,
    exact_rank,
    hypersurface_stats,
    rank_one_split,
)
from seqcm.poly import BigradedRing, Polynomial, mono_mul
from seqcm.relcm import IdealPair, VariableBlock, cd_wrt, grade_wrt, is_relative_cm

P, Q = VariableBlock.P, VariableBlock.Q


def stats_invariants(f, seed=0):
    """(grade_P, cd_P, grade_Q, cd_Q) of hypersurface_stats, asserted equal
    to the dimension route and the unstopped grade search, which do not
    use the closed forms."""
    stats = hypersurface_stats(f)
    I = Ideal(f.ring, (f,))
    pair = IdealPair.cyclic(I)
    got = []
    for block in (P, Q):
        cd, grade = (stats.invariants[f"{key}_{block.value}"] for key in ("cd", "grade"))
        assert cd == cd_wrt(I, block), (str(f), block)
        assert grade == grade_wrt(pair, block, seed).grade, (str(f), block)
        got += [grade, cd]
    return tuple(got)


def fraction_gauss_rank(entries):
    """Independent rank oracle: plain Gaussian elimination over the fractions."""
    rows = [list(map(Fraction, row)) for row in entries]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                for c in range(col, ncols):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
        col += 1
    return rank


class TestCoefficientMatrix:
    def test_identity_pattern(self, R22, segre_quadric):
        rows = coefficient_matrix(segre_quadric)
        assert len(rows) == 2
        assert [len(row) for row in rows.values()] == [1, 1]
        assert len({y for row in rows.values() for y in row}) == 2

    def test_single_column(self, R22):
        f = (R22.x(1) + R22.x(2)) * R22.y(1)
        rows = coefficient_matrix(f)
        assert len(rows) == 2 and len({y for row in rows.values() for y in row}) == 1
        assert all(c == 1 for row in rows.values() for c in row.values())

    def test_degenerate_column_label(self, R22):
        rows = coefficient_matrix(R22.parse("x1^2"))
        assert rows == {(2, 0, 0, 0): {(0, 0, 0, 0): R22.field.one}}

    def test_reconstruction_round_trip(self, R22):
        """The sparse rows hold f's nonzero terms, split into an x part and
        a y part, and re-expand to f."""
        rng = random.Random(90)
        m = R22.m
        for _ in range(30):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            f = random_bihomogeneous(rng, R22, a, b)
            rows = coefficient_matrix(f)
            for x, row in rows.items():
                assert not any(x[m:]) and all(c and not any(y[:m]) for y, c in row.items())
            terms = {mono_mul(x, y): c for x, row in rows.items() for y, c in row.items()}
            assert Polynomial(R22, terms) == f and len(terms) == len(f.terms)

    def test_rejects_bad_inputs(self, R22):
        with pytest.raises(ZeroPolynomialError):
            coefficient_matrix(R22.zero())
        with pytest.raises(NotBihomogeneousError):
            coefficient_matrix(R22.x(1) + R22.y(1))


def as_maps(entries):
    """Dense rows as maps column -> entry, zero entries kept."""
    return [dict(enumerate(row)) for row in entries]


class TestExactRank:
    def test_known_ranks(self, R22):
        one, zero = R22.field.one, R22.field.zero
        assert exact_rank(as_maps(((one, zero), (zero, one))), R22.field) == 2
        assert exact_rank(as_maps(((one, one), (one, one))), R22.field) == 1
        assert exact_rank(as_maps(((zero,),)), R22.field) == 0

    def test_matches_independent_gauss(self, R22):
        rng = random.Random(91)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            entries = tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(nc))
                for _ in range(nr)
            )
            assert exact_rank(as_maps(entries), R22.field) == fraction_gauss_rank(entries)


class TestRankOneSplit:
    def test_quadric_does_not_split(self, segre_quadric):
        assert rank_one_split(segre_quadric) is None

    def test_shared_column_splits(self, R22):
        witness = rank_one_split(R22.parse("x1*y1 + x2*y1"))
        assert witness.h1 == R22.x(1) + R22.x(2)
        assert witness.h2 == R22.y(1)

    def test_single_monomial(self, R22):
        witness = rank_one_split(R22.parse("x1^2*y1^3"))
        assert witness.h1 == R22.parse("x1^2")
        assert witness.h2 == R22.parse("y1^3")

    def test_h2_is_monic_and_product_exact(self, R22):
        rng = random.Random(92)
        for _ in range(40):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            h1, h2, f = random_split_product(rng, R22, a, b)
            witness = rank_one_split(f)
            assert witness is not None
            assert witness.h1 * witness.h2 == f
            assert witness.h2.leading_coefficient() == R22.field.one

    def test_none_means_rank_at_least_two(self, R22):
        rng = random.Random(93)
        for _ in range(40):
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            f = random_bihomogeneous(rng, R22, a, b)
            witness = rank_one_split(f)
            rank = exact_rank(coefficient_matrix(f).values(), R22.field)
            assert (witness is None) == (rank >= 2)


class TestStats:
    def test_quadric(self, segre_quadric):
        assert stats_invariants(segre_quadric) == (1, 2, 1, 2)

    def test_pure_y_hypersurface(self, R22):
        assert stats_invariants(R22.parse("y1^2")) == (2, 2, 1, 1)

    def test_pure_x_hypersurface(self, R22):
        assert stats_invariants(R22.x(1)) == (1, 1, 2, 2)

    def test_case_table_randomized(self):
        rng = random.Random(94)
        for _ in range(15):
            m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
            ring = BigradedRing(m, n)
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            if a == 0 and b == 0:
                continue
            f = random_bihomogeneous(rng, ring, a, b)
            got = stats_invariants(f)
            if a == 0:
                assert got == (m, m, n - 1, n - 1)
            elif b == 0:
                assert got == (m - 1, m - 1, n, n)
            else:
                assert got == (m - 1, m, n - 1, n)

    def test_carries_split_and_block_reports(self, R22, segre_quadric, monkeypatch):
        """The split and the closed-form invariants, with no grade search:
        each block's values are those of is_relative_cm's report."""
        import seqcm.hypersurface
        import seqcm.relcm

        def searched(*args, **kwargs):
            raise AssertionError("hypersurface_stats searched")

        fs = (segre_quadric, R22.parse("x1*y1 + x2*y1"), R22.parse("y1^2 + y1*y2"))
        with monkeypatch.context() as patched:
            for module, name in ((seqcm.hypersurface, "is_relative_cm"),
                                 (seqcm.relcm, "is_relative_cm"), (seqcm.relcm, "grade_wrt")):
                patched.setattr(module, name, searched)
            all_stats = [hypersurface_stats(f) for f in fs]
        for f, stats in zip(fs, all_stats):
            assert stats.split == rank_one_split(f)
            assert (stats.invariants["a"], stats.invariants["b"]) == f.bidegree()
            for block in (P, Q):
                report = is_relative_cm(IdealPair.cyclic(Ideal(R22, (f,))), block, 3)
                got = tuple(stats.invariants[f"{key}_{block.value}"] for key in ("cd", "grade"))
                assert got == (report.cd, report.grade)

    def test_classify_reuses_the_stats(self, R22, segre_quadric):
        """Handing the stats over changes nothing in the verdict's document,
        at any seed: a verdict that reads a report of S/fS draws it with its
        own seed."""
        from seqcm.cli import _verdict_doc

        for f in (segre_quadric, R22.parse("x1*y1 + x2*y1"), R22.parse("y1^2 + y1*y2")):
            stats = hypersurface_stats(f)
            for seed in (0, 3):
                for block in (P, Q):
                    reused = classify_hypersurface(f, block, seed, _report=stats)
                    fresh = classify_hypersurface(f, block, seed)
                    assert _verdict_doc(reused) == _verdict_doc(fresh)


class TestClassify:
    def test_quadric_negative(self, segre_quadric):
        verdict = classify_hypersurface(segre_quadric, Q)
        assert not verdict.decision
        assert verdict.route is Route.HYPERSURFACE_RANK1
        level = verdict.filtration.levels[0]
        assert (level.grade, level.cd) == (1, 2)

    def test_is_seq_cm_verdict_equals_classify(self, R22, segre_quadric):
        """Both deciders give one verdict on the Segre quadric; verdicts
        compare by value, ideals included."""
        for block in (P, Q):
            verdict = is_seq_cm(Ideal(R22, (segre_quadric,)), block)
            assert verdict == classify_hypersurface(segre_quadric, block)

    def test_monomial_certificate_matches_dimension_filtration(self, R22):
        f = R22.parse("x1*y1")
        verdict = classify_hypersurface(f, Q)
        assert verdict.decision
        assert verdict.filtration.level_cds() == (1, 2)
        df = dimension_filtration(Ideal(R22, (f,)), Q)
        for got, expected in zip(verdict.filtration.chain(), df.chain):
            assert ideals_equal(got, expected)
        mono_verdict = is_seq_cm(Ideal(R22, (f,)), Q)
        assert mono_verdict.decision == verdict.decision

    def test_split_classifies_true_both_blocks(self, R22):
        f = R22.parse("x1*y1 + x2*y1")
        for block in (P, Q):
            verdict = classify_hypersurface(f, block)
            assert verdict.decision
            assert verdict.filtration.level_cds() == (1, 2)

    def test_block_symmetry_randomized(self, R22):
        rng = random.Random(95)
        for _ in range(20):
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            if rng.random() < 0.5:
                _, _, f = random_split_product(rng, R22, a, b)
            else:
                f = random_bihomogeneous(rng, R22, a, b)
            assert classify_hypersurface(f, P).decision == classify_hypersurface(f, Q).decision

    def test_degenerate_degrees_single_level(self, R22):
        verdict = classify_hypersurface(R22.parse("y1^2 + y1*y2"), Q)
        assert verdict.decision
        assert len(verdict.filtration.levels) == 1
        assert verdict.filtration.levels[0].relative_cm

    def test_middle_ideal_depends_on_block(self, R22):
        f = R22.parse("x1^2*y2^3")
        chain_q = classify_hypersurface(f, Q).filtration.chain()
        chain_p = classify_hypersurface(f, P).filtration.chain()
        assert ideals_equal(chain_q[1], Ideal(R22, (R22.parse("x1^2"),)))
        assert ideals_equal(chain_p[1], Ideal(R22, (R22.parse("y2^3"),)))
