import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpos.linalg import RatMatrix, quotient_to_str, ratio_to_str

from conftest import (
    Subspace,
    flag,
    from_qcols,
    minor,
    qcol,
    qcols,
    qrows,
    solve_columns,
    transversal,
    unit_vector,
    vec,
    zassenhaus,
)


def random_matrix(rng, k, m, lo=-9, hi=9):
    return RatMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(k)))


class TestMinor:
    def test_identity(self):
        M = from_qcols([unit_vector(4, i) for i in range(1, 5)])
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
        assert zassenhaus(A, A) == A

    def test_complementary_coordinates(self):
        A = Subspace.span(4, [unit_vector(4, 1), unit_vector(4, 2)])
        B = Subspace.span(4, [unit_vector(4, 3), unit_vector(4, 4)])
        assert zassenhaus(A, B).dim == 0

    def test_dimension_formula(self):
        rng = random.Random(4)
        for _ in range(25):
            k = rng.randint(2, 5)
            A = Subspace.span(k, [vec([rng.randint(-5, 5) for _ in range(k)])
                                  for _ in range(rng.randint(0, k))])
            B = Subspace.span(k, [vec([rng.randint(-5, 5) for _ in range(k)])
                                  for _ in range(rng.randint(0, k))])
            assert Subspace.span(k, A.basis + B.basis).dim + zassenhaus(A, B).dim == A.dim + B.dim


class TestFlags:
    def standard(self, k):
        return flag(k, [unit_vector(k, i) for i in range(1, k + 1)])

    def antistandard(self, k):
        return flag(k, [unit_vector(k, i) for i in range(k, 0, -1)])

    def test_transversal_cases(self):
        assert transversal(self.standard(3), self.antistandard(3))
        assert not transversal(self.standard(3), self.standard(3))


class TestCramer:
    def test_basis_vector(self):
        M = from_qcols([vec((1, 0)), vec((1, 1))])
        assert solve_columns([qcol(M, j) for j in (1, 2)], qcol(M, 1)) == [1, 0]

    def test_quotient_of_minors(self):
        rng = random.Random(6)
        for _ in range(15):
            M = random_matrix(rng, 4, 9)
            basis = (1, 3, 5, 7)
            if minor(M, basis) == 0:
                continue
            target = qcol(M, 9)
            coeffs = solve_columns([qcol(M, j) for j in basis], target)
            for j, pos in enumerate(basis):
                replaced = tuple(9 if b == pos else b for b in basis)
                assert coeffs[j] == minor(M, replaced) / minor(M, basis)

    def test_solve_and_compare(self):
        rng = random.Random(7)
        for _ in range(10):
            M = random_matrix(rng, 4, 4)
            if minor(M, (1, 2, 3, 4)) == 0:
                continue
            x, rows = vec([rng.randint(-5, 5) for _ in range(4)]), qrows(M)
            target = tuple(
                sum(rows[r][c] * x[c] for c in range(4)) for r in range(4)
            )
            assert solve_columns(qcols(M), target) == list(x)

    def test_target_not_in_span(self):
        M = from_qcols([vec((1, 0, 0)), vec((0, 1, 0))])
        with pytest.raises(ValueError, match="span"):
            solve_columns([qcol(M, j) for j in (1, 2)], vec((0, 0, 1)))

    def test_dependent_basis(self):
        M = from_qcols([vec((1, 0)), vec((2, 0)), vec((0, 1))])
        with pytest.raises(ValueError, match="dependent"):
            solve_columns([qcol(M, j) for j in (1, 2)], vec((1, 0)))


class TestSerialization:
    @given(st.fractions())
    @settings(max_examples=60)
    def test_roundtrip(self, x):
        assert Fraction(ratio_to_str(x, Fraction(1))) == x

    def test_integer_form(self):
        assert ratio_to_str(Fraction(6), Fraction(2)) == "3"
        assert ratio_to_str(Fraction(-1), Fraction(2)) == "-1/2"
        assert ratio_to_str(Fraction(-1, 2), Fraction(0)) == "(-1/2)/0"

    @given(st.integers(-(2**90), 2**90), st.one_of(st.integers(1, 12), st.integers(1, 2**70)))
    @settings(max_examples=200)
    def test_quotient_text_is_the_fraction_text(self, p, q):
        """``PointV.to_json`` writes an entry num / den without building its Fraction; the text is
        the one ``str`` gives the Fraction."""
        assert quotient_to_str(p, q) == str(Fraction(p, q))
        assert quotient_to_str(p * q, q) == str(p) and quotient_to_str(0, q) == "0"


class TestRatMatrixEntries:
    WANT = ((Fraction(1), Fraction(-2, 3)), (Fraction(0), Fraction(5)))

    @pytest.mark.parametrize("rows", [
        ((1, "-2/3"), (0, 5)),
        (("1", "-4/6"), ("0", "5")),
        ((Fraction(1), Fraction(-2, 3)), (Fraction(0), Fraction(5))),
        ((True, Fraction(-2, 3)), ("0/7", 5)),
    ], ids=["int-str", "str", "fraction", "mixed"])
    def test_int_str_and_fraction_entries_agree(self, rows):
        for M in (RatMatrix.from_rationals(rows), from_qcols(zip(*rows))):
            assert M == RatMatrix.from_rationals(self.WANT) and qrows(M) == self.WANT
            assert all(type(e) is Fraction for r in qrows(M) for e in r)

    def test_integer_rows_over_one_denominator(self):
        """The entries are kept as ints: num = den * the matrix, and columns are columns of num."""
        M = RatMatrix.from_rationals(self.WANT)
        assert (M.num, M.den) == (((3, -2), (0, 15)), 3)
        assert all(type(e) is int for r in M.num for e in r)
        assert M.column(2) == (-2, 15) and qcol(M, 2) == (Fraction(-2, 3), Fraction(5))
        assert RatMatrix.from_columns([(3, 0), (-2, 15)], 3) == M == RatMatrix(((6, -4), (0, 30)), 6)

    @pytest.mark.parametrize("num, den", [
        (((1, 2),), 0),
        (((1, 2),), -3),
        (((1, 2), (3,)), 1),
        ((), 1),
        (((),), 1),
    ], ids=["den-0", "den-negative", "ragged", "no-rows", "no-columns"])
    def test_invalid_shapes_and_denominators(self, num, den):
        with pytest.raises(ValueError):
            RatMatrix(num, den)

    @pytest.mark.parametrize("j", [0, 3])
    def test_column_out_of_range(self, j):
        with pytest.raises(IndexError, match=f"^column {j} out of range 1..2$"):
            RatMatrix(((1, 2),)).column(j)

    def test_ragged_rationals(self):
        with pytest.raises(ValueError, match="ragged"):
            RatMatrix.from_rationals([[1, "1/2"], [3]])


@st.composite
def rational_rows(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)]


@given(rational_rows(), st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_canonical_form(rows, c):
    """Equal rational rows give equal num, den and hash however they are written: as text with
    a common factor in each entry, or as integer rows over a multiple of the denominator."""
    M = RatMatrix.from_rationals(rows)
    texts = [[f"{x.numerator * c}/{x.denominator * c}" for x in r] for r in rows]
    scaled = RatMatrix(tuple(tuple(c * x for x in r) for r in M.num), c * M.den)
    for other in (RatMatrix.from_rationals(texts), scaled):
        assert (other.num, other.den, hash(other)) == (M.num, M.den, hash(M)) and other == M
    assert M.den >= 1 and gcd(M.den, *(x for r in M.num for x in r)) == 1
    assert qrows(M) == tuple(map(tuple, rows))
    assert RatMatrix.from_rationals(qrows(M)) == M
