import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpos.linalg import (
    FlagK,
    RatMatrix,
    Subspace,
    minor,
    rat_from_str,
    rat_to_str,
    rel_position,
    solve_columns,
    transversal,
    unit_vector,
    vec,
)


def random_matrix(rng, k, m, lo=-9, hi=9):
    return RatMatrix(tuple(tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)) for _ in range(k)))


class TestMinor:
    def test_identity(self):
        M = RatMatrix.from_columns([unit_vector(4, i) for i in range(1, 5)])
        assert minor(M, (1, 2, 3, 4)) == 1

    def test_swap_negates(self):
        rng = random.Random(0)
        M = random_matrix(rng, 4, 6)
        assert minor(M, (1, 3, 4, 6)) == -minor(M, (3, 1, 4, 6))

    def test_convention_from_signed_indices(self):
        rng = random.Random(1)
        M = random_matrix(rng, 5, 12)
        assert minor(M, (5, 7, 8, 11, 10)) == -minor(M, (5, 7, 8, 10, 11))

    def test_wrong_length(self):
        M = random_matrix(random.Random(2), 3, 5)
        with pytest.raises(ValueError):
            minor(M, (1, 2))

    def test_three_term_pluecker(self):
        # Delta_{Sac} Delta_{Sbd} = Delta_{Sab} Delta_{Scd} + Delta_{Sad} Delta_{Sbc}
        rng = random.Random(3)
        for _ in range(20):
            M = random_matrix(rng, 4, 8)
            S, (a, b, c, d_) = (1, 2), (3, 4, 5, 6)
            lhs = minor(M, S + (a, c)) * minor(M, S + (b, d_))
            rhs = minor(M, S + (a, b)) * minor(M, S + (c, d_)) + minor(M, S + (a, d_)) * minor(
                M, S + (b, c)
            )
            assert lhs == rhs


class TestSubspace:
    def test_canonical_equality(self):
        A = Subspace.span(3, [vec((1, 0, 1)), vec((0, 1, 0))])
        B = Subspace.span(3, [vec((1, 1, 1)), vec((2, 1, 2))])
        assert A == B

    def test_self_intersection(self):
        A = Subspace.span(4, [vec((1, 2, 0, 1)), vec((0, 0, 3, 1))])
        assert A.intersect(A) == A

    def test_complementary_coordinates(self):
        A = Subspace.span(4, [unit_vector(4, 1), unit_vector(4, 2)])
        B = Subspace.span(4, [unit_vector(4, 3), unit_vector(4, 4)])
        assert A.intersect(B).dim == 0

    def test_dimension_formula(self):
        rng = random.Random(4)
        for _ in range(25):
            k = rng.randint(2, 5)
            A = Subspace.span(k, [vec([rng.randint(-5, 5) for _ in range(k)])
                                  for _ in range(rng.randint(0, k))])
            B = Subspace.span(k, [vec([rng.randint(-5, 5) for _ in range(k)])
                                  for _ in range(rng.randint(0, k))])
            assert A.add(B).dim + A.intersect(B).dim == A.dim + B.dim


class TestFlags:
    def standard(self, k):
        return FlagK.from_columns([unit_vector(k, i) for i in range(1, k + 1)])

    def antistandard(self, k):
        return FlagK.from_columns([unit_vector(k, i) for i in range(k, 0, -1)])

    def test_rel_position_identity(self):
        F = self.standard(4)
        assert rel_position(F, F) == (1, 2, 3, 4)

    def test_rel_position_w0(self):
        assert rel_position(self.standard(4), self.antistandard(4)) == (4, 3, 2, 1)

    def test_transversal_cases(self):
        assert transversal(self.standard(3), self.antistandard(3))
        assert not transversal(self.standard(3), self.standard(3))

    def test_symmetry_up_to_inverse(self):
        rng = random.Random(5)
        for _ in range(10):
            k = rng.randint(2, 4)
            while True:
                try:
                    F1 = FlagK.from_columns(random_matrix(rng, k, k).columns())
                    F2 = FlagK.from_columns(random_matrix(rng, k, k).columns())
                    break
                except ValueError:
                    continue
            w = rel_position(F1, F2)
            v = rel_position(F2, F1)
            inv = [0] * k
            for i, wi in enumerate(w, start=1):
                inv[wi - 1] = i
            assert v == tuple(inv)

    def test_adjacent_flags_simple_reflection(self):
        # flags differing in exactly one step are in relative position s_j
        F1 = self.standard(3)
        F2 = FlagK.from_columns([unit_vector(3, 1), vec((0, 1, 1)), unit_vector(3, 2)])
        assert rel_position(F1, F2) == (1, 3, 2)

    def test_full_dimension_profile(self):
        # oracle: the returned w must reproduce every intersection dimension
        rng = random.Random(8)
        for _ in range(12):
            k = rng.randint(2, 5)
            while True:
                try:
                    F1 = FlagK.from_columns(random_matrix(rng, k, k).columns())
                    F2 = FlagK.from_columns(random_matrix(rng, k, k).columns())
                    break
                except ValueError:
                    continue
            w = rel_position(F1, F2)
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    expected = len(set(range(1, i + 1)) & set(w[:j]))
                    assert F1.step(i).intersect(F2.step(j)).dim == expected


class TestCramer:
    def test_basis_vector(self):
        M = RatMatrix.from_columns([vec((1, 0)), vec((1, 1))])
        assert solve_columns([M.column(j) for j in (1, 2)], M.column(1)) == [1, 0]

    def test_quotient_of_minors(self):
        rng = random.Random(6)
        for _ in range(15):
            M = random_matrix(rng, 4, 9)
            basis = (1, 3, 5, 7)
            if minor(M, basis) == 0:
                continue
            target = M.column(9)
            coeffs = solve_columns([M.column(j) for j in basis], target)
            for j, pos in enumerate(basis):
                replaced = tuple(9 if b == pos else b for b in basis)
                assert coeffs[j] == minor(M, replaced) / minor(M, basis)

    def test_solve_and_compare(self):
        rng = random.Random(7)
        for _ in range(10):
            M = random_matrix(rng, 4, 4)
            if minor(M, (1, 2, 3, 4)) == 0:
                continue
            x = vec([rng.randint(-5, 5) for _ in range(4)])
            target = tuple(
                sum(M.rows[r][c] * x[c] for c in range(4)) for r in range(4)
            )
            assert solve_columns(M.columns(), target) == list(x)

    def test_target_not_in_span(self):
        M = RatMatrix.from_columns([vec((1, 0, 0)), vec((0, 1, 0))])
        with pytest.raises(ValueError, match="span"):
            solve_columns([M.column(j) for j in (1, 2)], vec((0, 0, 1)))

    def test_dependent_basis(self):
        M = RatMatrix.from_columns([vec((1, 0)), vec((2, 0)), vec((0, 1))])
        with pytest.raises(ValueError, match="dependent"):
            solve_columns([M.column(j) for j in (1, 2)], vec((1, 0)))


class TestSerialization:
    @given(st.fractions())
    @settings(max_examples=60)
    def test_roundtrip(self, x):
        assert rat_from_str(rat_to_str(x)) == x

    def test_integer_form(self):
        assert rat_to_str(Fraction(6, 2)) == "3"
        assert rat_to_str(Fraction(-1, 2)) == "-1/2"
